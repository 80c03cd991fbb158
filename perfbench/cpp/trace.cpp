#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace perfbench {

const char* to_string(SpanKind k) {
  switch (k) {
    case SpanKind::kRun: return "run";
    case SpanKind::kOp: return "op";
    case SpanKind::kSend: return "send";
    case SpanKind::kTransit: return "transit";
    case SpanKind::kHandle: return "handle";
    case SpanKind::kEvent: return "event";
    case SpanKind::kPoint: return "point";
  }
  return "?";
}

std::uint64_t request_key(const hlock::Message& m) {
  if (!m.req.requester.valid()) return 0;
  // 16 bits of lock, 16 of requester, 32 of the Lamport counter: unique
  // for every request the benchmark's workloads issue.
  return (static_cast<std::uint64_t>(m.lock.value & 0xffffu) << 48) |
         (static_cast<std::uint64_t>(m.req.requester.value & 0xffffu) << 32) |
         (m.req.stamp.counter & 0xffffffffu);
}

SpanLog::SpanLog(std::size_t writers, std::size_t cap)
    : buffers_(writers), cap_(cap) {
  for (Buffer& b : buffers_) b.spans.reserve(std::min<std::size_t>(cap, 1 << 16));
}

std::vector<Span> SpanLog::all() const {
  std::vector<Span> out;
  for (const Buffer& b : buffers_)
    out.insert(out.end(), b.spans.begin(), b.spans.end());
  return out;
}

std::uint64_t SpanLog::dropped() const {
  std::uint64_t total = 0;
  for (const Buffer& b : buffers_) total += b.dropped;
  return total;
}

bool SpanLog::write_csv(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) return false;
  os << "id,parent,key,kind,start_ns,end_ns\n";
  for (const Buffer& b : buffers_) {
    for (const Span& s : b.spans) {
      os << s.id << ',' << s.parent << ',' << s.key << ','
         << to_string(s.kind) << ',' << s.start_ns << ',' << s.end_ns
         << '\n';
    }
  }
  os.flush();
  return static_cast<bool>(os);
}

std::vector<SelfTime> self_times(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  index.reserve(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) index.emplace(spans[i].id, i);

  // Children's intervals, clipped to their parent, grouped by parent.
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> covered(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    const auto it = index.find(s.parent);
    if (it == index.end()) continue;
    const Span& p = spans[it->second];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) covered[it->second].emplace_back(lo, hi);
  }

  std::vector<SelfTime> out(kSpanKinds);
  std::vector<double> dur_sum(kSpanKinds, 0), self_sum(kSpanKinds, 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& iv = covered[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t union_ns = 0;
    std::int64_t cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (!open || lo > cur_hi) {
        if (open) union_ns += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (open) union_ns += cur_hi - cur_lo;
    const auto k = static_cast<std::size_t>(s.kind);
    const std::int64_t dur = s.end_ns - s.start_ns;
    ++out[k].count;
    dur_sum[k] += static_cast<double>(dur);
    self_sum[k] += static_cast<double>(dur - union_ns);
  }
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (out[k].count == 0) continue;
    out[k].mean_us = dur_sum[k] / static_cast<double>(out[k].count) / 1e3;
    out[k].mean_self_us =
        self_sum[k] / static_cast<double>(out[k].count) / 1e3;
  }
  return out;
}

}  // namespace perfbench
