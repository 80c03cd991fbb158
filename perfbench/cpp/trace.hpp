// In-memory span log for the traced runs.
//
// A span is one interval at a layer boundary the benchmark wraps: name,
// start, end, the span that caused it (parent), and a key shared by every
// span of one lock request (derived from Message::req). Spans are kept in
// memory per writer thread — each writer appends only to its own buffer,
// so recording takes no lock — and written to a CSV file when the run
// ends. self_times() derives each span kind's self time: its duration
// minus the part of it that its child spans cover.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "msg/message.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  kRun,      ///< one wrapped run of a workload's unit of work
  kOp,       ///< live: lock op from issue to its done callback
  kSend,     ///< live: Transport::send into the TCP node
  kTransit,  ///< live: end of Transport::send to the peer's handler
  kHandle,   ///< HlsNode::handle of one message
  kEvent,    ///< one simulator event (post_event_hook to post_event_hook)
  kPoint,    ///< one sweep point evaluated serially
};
inline constexpr std::size_t kSpanKinds = 7;
const char* to_string(SpanKind k);

struct Span {
  std::uint64_t id{0};
  std::uint64_t parent{0};  ///< 0 = root
  std::uint64_t key{0};     ///< request key; 0 = none
  std::int64_t start_ns{0};
  std::int64_t end_ns{0};
  SpanKind kind{SpanKind::kRun};
};

/// Monotonic nanoseconds (steady_clock), the one clock every span uses.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The key all spans of one lock request share: lock, requester, and the
/// request's Lamport counter. 0 when the message carries no request.
std::uint64_t request_key(const hlock::Message& m);

class SpanLog {
 public:
  /// `writers` independent buffers, each holding at most `cap` spans;
  /// spans past the cap are counted in dropped() and not kept.
  SpanLog(std::size_t writers, std::size_t cap);

  /// Fresh nonzero span id (thread-safe).
  std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append to `writer`'s buffer. Each buffer must have one writer thread
  /// at a time.
  void record(std::size_t writer, const Span& s) {
    Buffer& b = buffers_[writer];
    if (b.spans.size() < cap_) {
      b.spans.push_back(s);
    } else {
      ++b.dropped;
    }
  }

  /// Every kept span, in buffer order. Call once writers have stopped.
  [[nodiscard]] std::vector<Span> all() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Write `id,parent,key,kind,start_ns,end_ns` rows; false on I/O error.
  bool write_csv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t dropped{0};
  };
  std::vector<Buffer> buffers_;
  std::size_t cap_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Per span kind: how many spans, their mean duration and mean self time.
struct SelfTime {
  std::size_t count{0};
  double mean_us{0};
  double mean_self_us{0};
};

/// Self time of a span = its duration minus the union of its children's
/// intervals, each clipped to the parent. Children whose parent was not
/// kept count as roots.
std::vector<SelfTime> self_times(const std::vector<Span>& spans);

}  // namespace perfbench
