#include "measure.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  Percentile p;
  p.n = samples.size();
  if (p.n == 0) return p;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(p.n) - 1e-9));
  const std::size_t idx = std::clamp<std::size_t>(rank, 1, p.n) - 1;
  std::nth_element(samples.begin(),
                   samples.begin() + static_cast<std::ptrdiff_t>(idx),
                   samples.end());
  p.value = samples[idx];
  p.beyond = p.n - 1 - idx;
  return p;
}

void IntHistogram::merge(const IntHistogram& other) {
  if (other.counts_.size() != counts_.size())
    throw std::invalid_argument("IntHistogram::merge: different limits");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  n_ += other.n_;
}

Percentile IntHistogram::percentile(double q) const {
  if (!(q > 0.0 && q <= 1.0))
    throw std::invalid_argument("percentile: q must be in (0, 1]");
  Percentile p;
  p.n = n_;
  if (n_ == 0) return p;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n_) - 1e-9)),
      1, n_);
  std::uint64_t seen = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    seen += counts_[v];
    if (seen >= rank) {
      p.value = static_cast<double>(v);
      break;
    }
  }
  p.beyond = n_ - rank;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
}

double parallel_efficiency(double serial_run_s, std::size_t shards,
                           double run_s) {
  if (shards == 0 || run_s <= 0)
    throw std::invalid_argument("parallel_efficiency: empty run");
  return serial_run_s / (static_cast<double>(shards) * run_s);
}

double round_overhead_us(double run_s, double serial_run_s,
                         std::size_t shards, std::uint64_t rounds) {
  if (shards == 0 || rounds == 0)
    throw std::invalid_argument("round_overhead_us: no rounds");
  return (run_s - serial_run_s / static_cast<double>(shards)) /
         static_cast<double>(rounds) * 1e6;
}

double pool_efficiency(const std::vector<double>& point_s,
                       std::size_t workers, double run_s) {
  if (workers == 0 || run_s <= 0)
    throw std::invalid_argument("pool_efficiency: empty run");
  return std::accumulate(point_s.begin(), point_s.end(), 0.0) /
         (static_cast<double>(workers) * run_s);
}

}  // namespace perfbench
