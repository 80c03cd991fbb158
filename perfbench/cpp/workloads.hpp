// The four workloads and the helpers they share. Each workload builds its
// inputs from RunArgs::seed, measures for RunArgs::seconds, checks its
// outputs, and fills a Report: the end-to-end metrics always, and with
// RunArgs::trace the per-layer metrics and the tracing overhead as well.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "msg/message.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

void run_fig5_sim(const RunArgs& args, Report& report);
void run_forest(const RunArgs& args, Report& report);
void run_live_mesh(const RunArgs& args, Report& report);
void run_sweep(const RunArgs& args, Report& report);

inline double seconds_between(std::int64_t t0_ns, std::int64_t t1_ns) {
  return static_cast<double>(t1_ns - t0_ns) / 1e9;
}

/// Repeat `rep` (which records its own timings) until `budget_s` has
/// passed and at least `min_reps` ran.
template <typename Fn>
void repeat_for(double budget_s, std::size_t min_reps, Fn&& rep) {
  const std::int64_t t0 = now_ns();
  for (std::size_t reps = 0;
       reps < min_reps || seconds_between(t0, now_ns()) < budget_s; ++reps)
    rep();
}

/// Restrict this thread, and every thread it creates from now on, to the
/// lowest CPU it may run on, and note which. The multi-threaded workloads
/// whose threads hand work to each other at high rate (live_mesh, forest)
/// run this way: spread over the vCPUs of a shared VM, each hand-off paid a
/// cross-CPU wake-up whose cost moved by up to 6x with the host's load.
void pin_to_one_cpu(Report& report);

/// Simulated-latency metrics shared by the simulator workloads:
/// latency_factor_p50/p99 from the per-op factor samples, and
/// acquire_p50/p99_us as the same percentiles in virtual microseconds.
void report_virtual_latency(Report& report, const std::vector<double>& factors,
                            double net_latency_us);

/// core.msgs_by_kind.<kind>: protocol messages of each HLS kind per lock
/// request.
void report_msgs_by_kind(Report& report, const hlock::CounterMap& counts,
                         std::uint64_t lock_requests);

/// msg.encode_ns and msg.decode_ns over `captured` messages, and with
/// `frames` also net.frame_decode_ns (FrameDecoder over the same messages
/// framed as the TCP transport frames them).
void report_codec(Report& report, const std::vector<hlock::Message>& captured,
                  bool frames);

/// trace.spans, trace.dropped_spans and trace.self_us.<kind> from the log;
/// writes the log to `path` (a failed write fails the run).
void report_spans(Report& report, const SpanLog& log, const std::string& path);

/// Index of an HLS message kind in the five per-kind arrays, or -1.
int hls_kind_index(hlock::MsgKind kind);
inline constexpr const char* kHlsKinds[5] = {"request", "grant", "token",
                                             "release", "freeze"};

}  // namespace perfbench
