// sweep: the point lists of bench/fig5_message_overhead (9 node counts x
// 3 protocols, 60 ops per node) and bench/sensitivity (19 HLS points at
// 60 nodes, 40 ops per node, of which 4 repeat the base spec), submitted
// in that order to a cold harness::SweepRunner with default memoisation
// and a fixed pool of 2 workers. SweepRunner's pool and memo are measured
// nowhere else.
//
// Unit of work: build the point list and runner (setup_s), run them
// (run_s). Each repetition uses a fresh runner, so every run is cold.
//
// Traced run: every distinct point is also timed serially through
// harness::run_experiment (harness.sweep.point_s); those results must
// equal the pool's.
#include <algorithm>
#include <thread>

#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::harness::ExperimentResult;
using hlock::harness::Protocol;
using hlock::harness::SweepPoint;
using hlock::harness::SweepRunner;
using hlock::workload::WorkloadSpec;

constexpr std::size_t kSetupBatch = 100;

std::size_t pool_workers() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(n, 1, 2);
}

std::vector<SweepPoint> sweep_points(std::uint64_t seed) {
  using hlock::harness::make_point;
  std::vector<SweepPoint> points;

  WorkloadSpec fig5;
  fig5.ops_per_node = 60;
  fig5.seed = seed;
  for (const std::size_t n : hlock::harness::sweep_node_counts(120)) {
    points.push_back(make_point(Protocol::kHls, n, fig5));
    points.push_back(make_point(Protocol::kNaimiPure, n, fig5));
    points.push_back(make_point(Protocol::kNaimiSameWork, n, fig5));
  }

  WorkloadSpec base;
  base.ops_per_node = 40;
  base.seed = seed;
  std::vector<WorkloadSpec> specs{base};
  WorkloadSpec reads = base;
  reads.p_entry_read = 0.95;
  reads.p_table_read = 0.05;
  reads.p_upgrade = reads.p_entry_write = reads.p_table_write = 0.0;
  specs.push_back(reads);
  WorkloadSpec writes = base;
  writes.p_entry_read = 0.40;
  writes.p_table_read = 0.05;
  writes.p_upgrade = 0.10;
  writes.p_entry_write = 0.35;
  writes.p_table_write = 0.10;
  specs.push_back(writes);
  for (const auto cs : {hlock::msec(5), hlock::msec(15), hlock::msec(50),
                        hlock::msec(150)}) {
    WorkloadSpec s = base;
    s.cs_mean = cs;
    specs.push_back(s);
  }
  for (const auto idle : {hlock::msec(50), hlock::msec(150), hlock::msec(500),
                          hlock::msec(1500)}) {
    WorkloadSpec s = base;
    s.idle_mean = idle;
    specs.push_back(s);
  }
  for (const double bias : {0.0, 0.5, 0.9, 1.0}) {
    WorkloadSpec s = base;
    s.home_bias = bias;
    specs.push_back(s);
  }
  for (const std::uint32_t e : {1u, 2u, 4u, 8u}) {
    WorkloadSpec s = base;
    s.entries_per_node = e;
    specs.push_back(s);
  }
  for (const WorkloadSpec& s : specs)
    points.push_back(make_point(Protocol::kHls, 60, s));
  return points;
}

hlock::harness::SweepOptions pool_options() {
  hlock::harness::SweepOptions opts;
  opts.threads = pool_workers();
  opts.memoize = true;
  return opts;
}

}  // namespace

void run_sweep(const RunArgs& args, Report& report) {
  const std::uint64_t seed = mix_seed(args.seed, 3);
  const std::vector<SweepPoint> points = sweep_points(seed);

  // Index of each point's first occurrence; distinct points are those
  // that are their own first occurrence.
  std::vector<std::size_t> first_of(points.size());
  std::vector<std::size_t> distinct;
  for (std::size_t i = 0; i < points.size(); ++i) {
    first_of[i] = i;
    for (std::size_t j = 0; j < i; ++j) {
      if (points[j] == points[i]) {
        first_of[i] = j;
        break;
      }
    }
    if (first_of[i] == i) distinct.push_back(i);
  }
  std::uint64_t expected = 0;
  for (const SweepPoint& p : points)
    expected += p.config.nodes * p.config.spec.ops_per_node;

  std::vector<double> setup_s;
  std::vector<ExperimentResult> first;
  bool dup_equal = true;
  bool complete = true;
  bool identical = true;

  const auto rep = [&] {
    // Building the list and runner takes microseconds: time a batch.
    const std::int64_t t0 = now_ns();
    for (std::size_t b = 0; b < kSetupBatch; ++b) {
      const std::vector<SweepPoint> list = sweep_points(seed);
      const SweepRunner runner(pool_options());
      complete = complete && list.size() == points.size();
    }
    setup_s.push_back(seconds_between(t0, now_ns()) / kSetupBatch);

    SweepRunner runner(pool_options());
    const std::int64_t t1 = now_ns();
    const std::vector<ExperimentResult> results = runner.run(points);
    const double run = seconds_between(t1, now_ns());

    std::uint64_t done = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      done += results[i].app_ops;
      dup_equal = dup_equal && results[i] == results[first_of[i]];
    }
    complete = complete && results.size() == points.size() && done == expected;
    report.count_ops(expected, expected - std::min(done, expected));
    if (first.empty()) {
      first = results;
    } else {
      identical = identical && results == first;
    }
    return run;
  };

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> run_s;
  repeat_for(budget, 3, [&] { run_s.push_back(rep()); });

  report.check(complete, "every point completed all its ops");
  report.check(dup_equal, "duplicate points return equal results");
  report.check(identical, "repeated cold sweeps give identical results");

  // Work counts cover every distinct point; the protocol's quality
  // metrics (messages, latency) cover the HLS points, the protocol under
  // test — the Naimi baselines only add work.
  std::uint64_t ops = 0, messages = 0;
  std::uint64_t hls_ops = 0, hls_messages = 0, hls_requests = 0, hls_bytes = 0;
  hlock::CounterMap hls_kinds;
  std::vector<double> factors;
  for (const std::size_t i : distinct) {
    const ExperimentResult& r = first[i];
    ops += r.app_ops;
    messages += r.messages;
    if (points[i].protocol != Protocol::kHls) continue;
    hls_ops += r.app_ops;
    hls_messages += r.messages;
    hls_requests += r.lock_requests;
    hls_bytes += r.wire_bytes;
    hls_kinds.merge(r.messages_by_kind);
    const auto& s = r.latency_factor.samples();
    factors.insert(factors.end(), s.begin(), s.end());
  }

  const double run = median(run_s);
  report.note("reps=" + std::to_string(run_s.size()) + " points=" +
              std::to_string(points.size()) + " distinct=" +
              std::to_string(distinct.size()) +
              " workers=" + std::to_string(pool_workers()));
  report.set("setup_s", median(setup_s), "s");
  report.set("run_s", run, "s");
  report.set("events_per_s", static_cast<double>(messages) / run, "1/s");
  report.set("ops_per_s", static_cast<double>(ops) / run, "1/s");
  report.set("msgs_per_request",
             static_cast<double>(hls_messages) /
                 static_cast<double>(hls_requests),
             "1/request");
  report_virtual_latency(
      report, factors,
      static_cast<double>(points.front().config.spec.net_latency_mean));
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return;

  SpanLog log(1, 4096);
  std::vector<double> traced_s;
  repeat_for(budget, 3, [&] {
    const std::uint64_t id = log.next_id();
    const std::int64_t start = now_ns();
    traced_s.push_back(rep());
    log.record(0, Span{id, 0, 0, start, now_ns(), SpanKind::kRun});
  });
  report.check(identical, "traced sweeps give the untraced results");

  // Each distinct point once more, serially, under its own span.
  std::vector<double> point_s;
  bool serial_equal = true;
  const std::uint64_t serial_id = log.next_id();
  const std::int64_t serial_start = now_ns();
  for (const std::size_t i : distinct) {
    const std::uint64_t id = log.next_id();
    const std::int64_t t0 = now_ns();
    const ExperimentResult r =
        hlock::harness::run_experiment(points[i].protocol, points[i].config);
    const std::int64_t t1 = now_ns();
    log.record(0, Span{id, serial_id, 0, t0, t1, SpanKind::kPoint});
    point_s.push_back(seconds_between(t0, t1));
    serial_equal = serial_equal && r == first[i];
  }
  log.record(0, Span{serial_id, 0, 0, serial_start, now_ns(), SpanKind::kRun});
  report.check(serial_equal, "serial points equal the pool's results");

  const Percentile p50 = percentile(point_s, 0.5);
  report.set("trace.overhead", median(traced_s) / run - 1.0, "ratio");
  report.set("harness.sweep.points", static_cast<double>(points.size()),
             "count");
  report.set("harness.sweep.duplicate_share",
             static_cast<double>(points.size() - distinct.size()) /
                 static_cast<double>(points.size()),
             "ratio");
  report.set("harness.sweep.point_s.p50", p50.value, "s");
  report.set("harness.sweep.point_s.max",
             *std::max_element(point_s.begin(), point_s.end()), "s");
  report.set("harness.sweep.point_s.n", static_cast<double>(p50.n), "count");
  report.set("harness.sweep.pool_efficiency",
             pool_efficiency(point_s, pool_workers(), run), "ratio");
  report_msgs_by_kind(report, hls_kinds, hls_requests);
  report.set("msg.bytes_per_message",
             static_cast<double>(hls_bytes) / static_cast<double>(hls_messages),
             "B");
  report.set("lockmgr.requests_per_op",
             static_cast<double>(hls_requests) / static_cast<double>(hls_ops),
             "1/op");
  report_spans(report, log, args.spans_path);
}

}  // namespace perfbench
