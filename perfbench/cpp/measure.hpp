// The benchmark's own arithmetic: percentiles that carry their sample
// counts, per-channel FIFO matching of sends to receives, and the derived
// efficiency figures of the sharded simulator and the sweep pool.
//
// Everything here is unit-tested (perfbench/tests); the workload
// functions only collect raw samples and call into these helpers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of a sample set, with the counts a reader needs
/// to judge it: `n` samples in total, `beyond` of them strictly above the
/// reported rank. A tail percentile is only worth reporting when at least
/// ten samples lie beyond it (reportable()).
struct Percentile {
  double value{0};
  std::size_t n{0};
  std::size_t beyond{0};

  static constexpr std::size_t kMinBeyond = 10;
  [[nodiscard]] bool reportable() const { return n > 0 && beyond >= kMinBeyond; }
};

/// q in (0, 1]. Rank = ceil(q * n), 1-based; `beyond` = n - rank. An empty
/// set gives {0, 0, 0}.
Percentile percentile(std::vector<double> samples, double q);

/// Counts of non-negative integer samples (e.g. whole microseconds), one
/// bucket per value below `limit`; larger values land in the last bucket,
/// so a percentile that reads `limit` means "at least limit". Memory is
/// fixed at construction (limit + 1 counters), so a long run does not grow
/// the process the way a sample vector would.
class IntHistogram {
 public:
  explicit IntHistogram(std::size_t limit) : counts_(limit + 1, 0) {}

  void add(std::uint64_t v) {
    ++counts_[v < counts_.size() - 1 ? v : counts_.size() - 1];
    ++n_;
  }
  void merge(const IntHistogram& other);
  /// Same rank rule as percentile() over the expanded samples.
  [[nodiscard]] Percentile percentile(double q) const;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_{0};
};

/// Median (mean of the two middle values for an even count); 0 if empty.
double median(std::vector<double> samples);

/// Sharded-simulator efficiency: serial time over the ideal `shards`-way
/// split of the parallel run. 1.0 = perfect scaling.
double parallel_efficiency(double serial_run_s, std::size_t shards,
                           double run_s);

/// Wall time per round beyond the ideal split of the serial work, in µs:
/// (run_s - serial_run_s / shards) / rounds. Positive = barrier cost.
double round_overhead_us(double run_s, double serial_run_s,
                         std::size_t shards, std::uint64_t rounds);

/// Sweep pool efficiency: the distinct points' serial times summed, over
/// the wall time the pool's workers had (workers * run_s).
double pool_efficiency(const std::vector<double>& point_s,
                       std::size_t workers, double run_s);

/// Matches each receive on a (from, to) channel to the oldest unmatched
/// send on that channel. Valid for any transport that delivers every
/// message once and in order per channel (TCP with no retransmission;
/// the live workload checks requeued_frames == 0 to rule that out).
/// Thread-safe: one mutex per channel, so different channels never
/// contend.
template <typename T>
class FifoMatcher {
 public:
  explicit FifoMatcher(std::size_t nodes)
      : nodes_(nodes), channels_(nodes * nodes) {
    for (auto& c : channels_) c = std::make_unique<Channel>();
  }

  void on_send(std::size_t from, std::size_t to, T stamp) {
    Channel& c = channel(from, to);
    std::lock_guard lk(c.mu);
    c.pending.push_back(std::move(stamp));
  }

  /// The matching send, or nothing when the channel has no unmatched send
  /// (a receive the matcher never saw sent — counted by the caller).
  std::optional<T> on_receive(std::size_t from, std::size_t to) {
    Channel& c = channel(from, to);
    std::lock_guard lk(c.mu);
    if (c.pending.empty()) return std::nullopt;
    T out = std::move(c.pending.front());
    c.pending.pop_front();
    return out;
  }

  /// Sends not yet matched, over all channels.
  std::size_t unmatched() const {
    std::size_t total = 0;
    for (const auto& c : channels_) {
      std::lock_guard lk(c->mu);
      total += c->pending.size();
    }
    return total;
  }

 private:
  struct Channel {
    mutable std::mutex mu;
    std::deque<T> pending;
  };
  Channel& channel(std::size_t from, std::size_t to) {
    return *channels_.at(from * nodes_ + to);
  }

  std::size_t nodes_;
  std::vector<std::unique_ptr<Channel>> channels_;
};

}  // namespace perfbench
