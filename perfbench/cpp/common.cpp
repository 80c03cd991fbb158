#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "measure.hpp"
#include "net/framing.hpp"
#include "workloads.hpp"

namespace perfbench {

void pin_to_one_cpu(Report& report) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof one, &one) != 0) break;
      report.note("pinned to cpu " + std::to_string(cpu));
      return;
    }
  }
  report.note("not pinned: CPU affinity unavailable");
}

void report_virtual_latency(Report& report, const std::vector<double>& factors,
                            double net_latency_us) {
  const Percentile p50 = percentile(factors, 0.50);
  const Percentile p99 = percentile(factors, 0.99);
  report.check(p99.reportable(),
               "latency p99 has >= 10 samples beyond it (n=" +
                   std::to_string(p99.n) + ")");
  report.note("acquire latency samples n=" + std::to_string(p50.n) +
              " (p99 has " + std::to_string(p99.beyond) + " beyond)");
  report.set("latency_factor_p50", p50.value, "x");
  report.set("latency_factor_p99", p99.value, "x");
  report.set("acquire_p50_us", p50.value * net_latency_us, "us");
  report.set("acquire_p99_us", p99.value * net_latency_us, "us");
}

int hls_kind_index(hlock::MsgKind kind) {
  switch (kind) {
    case hlock::MsgKind::kRequest: return 0;
    case hlock::MsgKind::kGrant: return 1;
    case hlock::MsgKind::kToken: return 2;
    case hlock::MsgKind::kRelease: return 3;
    case hlock::MsgKind::kFreeze: return 4;
    default: return -1;
  }
}

void report_msgs_by_kind(Report& report, const hlock::CounterMap& counts,
                         std::uint64_t lock_requests) {
  if (lock_requests == 0) return;
  for (const char* kind : kHlsKinds) {
    report.set(std::string("core.msgs_by_kind.") + kind,
               static_cast<double>(counts.get(kind)) /
                   static_cast<double>(lock_requests),
               "1/request");
  }
}

void report_codec(Report& report, const std::vector<hlock::Message>& captured,
                  bool frames) {
  if (captured.empty()) return;
  constexpr int kPasses = 5;
  std::size_t queued = 0;
  for (const hlock::Message& m : captured) queued += m.queue.size();

  std::vector<std::vector<std::uint8_t>> encoded(captured.size());
  std::int64_t t0 = now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < captured.size(); ++i)
      encoded[i] = hlock::encode(captured[i]);
  }
  const double n = static_cast<double>(captured.size() * kPasses);
  report.set("msg.encode_ns", static_cast<double>(now_ns() - t0) / n, "ns");

  std::size_t decoded_queued = 0;
  t0 = now_ns();
  for (int pass = 0; pass < kPasses; ++pass) {
    for (const auto& buf : encoded)
      decoded_queued += hlock::decode(buf).queue.size();
  }
  report.set("msg.decode_ns", static_cast<double>(now_ns() - t0) / n, "ns");
  report.check(decoded_queued == queued * kPasses,
               "decoded messages carry their queues");

  bool round_trip = true;
  for (std::size_t i = 0; i < captured.size(); ++i)
    round_trip = round_trip && hlock::decode(encoded[i]) == captured[i];
  report.check(round_trip, "captured messages decode to themselves");

  if (frames) {
    // One byte stream of data frames, fed to the decoder in socket-sized
    // reads, the way TcpNode feeds it.
    std::vector<std::uint8_t> stream;
    for (std::size_t i = 0; i < captured.size(); ++i) {
      const auto f = hlock::net::frame(captured[i], i + 1);
      stream.insert(stream.end(), f.begin(), f.end());
    }
    constexpr std::size_t kRead = 64 * 1024;
    std::size_t decoded = 0;
    t0 = now_ns();
    for (int pass = 0; pass < kPasses; ++pass) {
      hlock::net::FrameDecoder dec;
      hlock::net::DecodedFrame f;
      for (std::size_t off = 0; off < stream.size(); off += kRead) {
        dec.feed(stream.data() + off, std::min(kRead, stream.size() - off));
        while (dec.next_frame(f)) ++decoded;
      }
    }
    report.set("net.frame_decode_ns", static_cast<double>(now_ns() - t0) / n,
               "ns");
    report.check(decoded == captured.size() * kPasses,
                 "FrameDecoder returns every captured frame");
  }
  report.note("codec timed over " + std::to_string(captured.size()) +
              " captured messages");
}

void report_spans(Report& report, const SpanLog& log, const std::string& path) {
  const std::vector<Span> spans = log.all();
  report.set("trace.spans", static_cast<double>(spans.size()), "count");
  report.set("trace.dropped_spans", static_cast<double>(log.dropped()),
             "count");
  const std::vector<SelfTime> self = self_times(spans);
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    if (self[k].count == 0) continue;
    const std::string name = to_string(static_cast<SpanKind>(k));
    report.set("trace.self_us." + name, self[k].mean_self_us, "us");
    report.note("span " + name + ": n=" + std::to_string(self[k].count) +
                " mean=" + std::to_string(self[k].mean_us) +
                "us self=" + std::to_string(self[k].mean_self_us) + "us");
  }
  if (!path.empty())
    report.check(log.write_csv(path), "span file written to " + path);
}

}  // namespace perfbench
