// forest: a harness::ManyLocksCluster on 2 shards. 16 trees x 4 nodes,
// 4 levels, 10^6 Zipf-0.9 locks, 10 % cross-tree ops, 4 clusters per tree
// with 0.05 ms intra-cluster latency. The small intra-cluster floor makes
// the conservative window tiny, so sim::ShardedSimulator spends most of
// the run in round barriers: this workload is where the sharded engine,
// its lookahead and its barrier do the work.
//
// Unit of work: build the forest (setup_s) and run it on 2 shards
// (run_s). Repetitions cycle through a few sub-seeds derived from --seed.
// Once per invocation and sub-seed, outside the timed phase, the same
// forest runs on 1 shard as the oracle: every 2-shard result must equal it.
//
// The run is pinned to one CPU (pin_to_one_cpu): the round barrier is a
// condition-variable hand-off, and across the vCPUs of a shared VM its
// cross-CPU wake-up cost moved a 2-shard repetition between ~1.1 s and
// ~4.9 s with the host's load. On one CPU each round costs a few context
// switches and a repetition is steady; the workload then measures the
// sharded engine's per-round CPU overhead, not parallel speed-up.
//
// Rounds happen inside ManyLocksCluster::run(), so the benchmark cannot
// wrap them from outside; round cost comes from the sharded getters and
// the serial run instead (sim.sharded.round_overhead_us).
#include <utility>

#include "harness/many_locks_cluster.hpp"
#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using hlock::harness::ManyLocksCluster;
using hlock::harness::ManyLocksConfig;
using hlock::harness::ManyLocksResult;

constexpr std::size_t kShards = 2;
constexpr std::uint32_t kOpsPerNode = 100;
/// Seeds derived from --seed; repetitions cycle through them and the
/// protocol metrics pool them.
constexpr std::size_t kSubSeeds = 8;

ManyLocksConfig forest_config(std::uint64_t seed) {
  ManyLocksConfig cfg;
  cfg.nodes = 4;
  cfg.trees = 16;
  cfg.levels = 4;
  cfg.shards = kShards;
  cfg.cross_tree_pct = 10.0;
  cfg.clusters = 4;
  cfg.intra_latency_mean = hlock::usec(50);
  cfg.spec.lock_count = 1'000'000;
  cfg.spec.zipf_theta = 0.9;
  cfg.spec.ops_per_node = kOpsPerNode;
  cfg.spec.seed = seed;
  return cfg;
}

/// Per sub-seed: its config, the 1-shard oracle result and time, and what
/// the last 2-shard repetition reported through the sharded getters.
struct SubSeed {
  ManyLocksConfig cfg;
  ManyLocksResult oracle;
  double serial_run_s{0};
  std::vector<double> run_s;
  std::uint64_t rounds{0};
  std::uint64_t cross_posts{0};
  std::uint64_t mailbox_events{0};
  std::uint64_t window_revalidations{0};
  std::vector<std::uint64_t> shard_events;
  hlock::Duration lookahead{0};
};

}  // namespace

void run_forest(const RunArgs& args, Report& report) {
  pin_to_one_cpu(report);
  std::vector<SubSeed> subs(kSubSeeds);
  for (std::size_t k = 0; k < kSubSeeds; ++k) {
    SubSeed& sub = subs[k];
    sub.cfg = forest_config(mix_seed(args.seed, 200 + k));
    // The oracle: the same forest on one shard, serial. Timed, because
    // the traced run reports it as sim.sharded.serial_run_s.
    ManyLocksConfig serial_cfg = sub.cfg;
    serial_cfg.shards = 1;
    ManyLocksCluster serial(serial_cfg);
    const std::int64_t t0 = now_ns();
    serial.run();
    sub.serial_run_s = seconds_between(t0, now_ns());
    sub.oracle = serial.result();
  }
  const ManyLocksConfig& cfg = subs[0].cfg;
  const std::uint64_t expected =
      static_cast<std::uint64_t>(cfg.trees) * cfg.nodes * cfg.spec.ops_per_node;

  std::vector<double> setup_s;
  bool equal_oracle = true;
  std::vector<std::uint64_t> hook_events(kShards, 0);
  std::size_t next = 0;

  // One repetition of the next sub-seed; returns {run seconds, events}.
  const auto rep = [&](bool traced) {
    SubSeed& sub = subs[next++ % kSubSeeds];
    const std::int64_t t0 = now_ns();
    ManyLocksCluster cluster(sub.cfg);
    const std::int64_t t1 = now_ns();
    if (traced) {
      // Each shard's hook runs only on the worker advancing that shard.
      for (std::size_t s = 0; s < kShards; ++s) {
        cluster.sharded().shard(s).post_event_hook = [&hook_events, s] {
          ++hook_events[s];
        };
      }
    }
    const std::int64_t t2 = now_ns();
    cluster.run();
    const std::int64_t t3 = now_ns();
    setup_s.push_back(seconds_between(t0, t1));
    const ManyLocksResult r = cluster.result();
    report.count_ops(expected, expected - r.ops);
    equal_oracle = equal_oracle && r == sub.oracle && r.deadlock_cycles == 0;
    sub.rounds = cluster.rounds();
    sub.cross_posts = cluster.sharded().cross_posts();
    sub.mailbox_events = cluster.sharded().mailbox_events();
    sub.window_revalidations = cluster.sharded().window_revalidations();
    sub.lookahead = cluster.lookahead();
    sub.shard_events.assign(kShards, 0);
    for (std::size_t s = 0; s < kShards; ++s)
      sub.shard_events[s] = cluster.sharded().shard(s).events_processed();
    const double run = seconds_between(t2, t3);
    if (!traced) sub.run_s.push_back(run);
    return std::pair{run, r.events};
  };

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> run_s, events_per_s;
  repeat_for(budget, kSubSeeds, [&] {
    const auto [run, events] = rep(false);
    run_s.push_back(run);
    events_per_s.push_back(static_cast<double>(events) / run);
  });

  // Pool the sub-seeds' outcomes.
  std::uint64_t ops = 0, messages = 0, requests = 0, deadlocks = 0;
  std::vector<double> factors;
  for (const SubSeed& sub : subs) {
    ops += sub.oracle.ops;
    messages += sub.oracle.messages;
    requests += sub.oracle.lock_requests;
    deadlocks += sub.oracle.deadlock_cycles;
    const auto& f = sub.oracle.latency_factor.samples();
    factors.insert(factors.end(), f.begin(), f.end());
  }
  report.check(ops == expected * kSubSeeds,
               "the oracle completed every op of every sub-seed");
  report.check(deadlocks == 0, "deadlock_cycles == 0");
  report.check(equal_oracle,
               "2-shard ManyLocksResult equals the 1-shard oracle");

  const double run = median(run_s);
  const SubSeed& s0 = subs[0];
  report.note("reps=" + std::to_string(run_s.size()) + " over " +
              std::to_string(kSubSeeds) + " sub-seeds; sub-seed 0: rounds=" +
              std::to_string(s0.rounds) +
              " events=" + std::to_string(s0.oracle.events) +
              " engines=" + std::to_string(s0.oracle.engines_materialized) +
              " serial_run_s=" + std::to_string(s0.serial_run_s));
  report.set("setup_s", median(setup_s), "s");
  report.set("run_s", run, "s");
  report.set("events_per_s", median(events_per_s), "1/s");
  report.set("ops_per_s", static_cast<double>(expected) / run, "1/s");
  report.set("msgs_per_request",
             static_cast<double>(messages) / static_cast<double>(requests),
             "1/request");
  report_virtual_latency(report, factors,
                         static_cast<double>(cfg.spec.net_latency_mean));
  report.set("peak_rss_mb", peak_rss_mb(), "MiB");
  if (!args.trace) return;

  SpanLog log(1, 1024);
  std::vector<double> traced_s;
  std::uint64_t traced_events = 0;
  repeat_for(budget, kSubSeeds, [&] {
    const std::uint64_t id = log.next_id();
    const std::int64_t start = now_ns();
    const auto [traced_run, events] = rep(true);
    log.record(0, Span{id, 0, 0, start, now_ns(), SpanKind::kRun});
    traced_s.push_back(traced_run);
    traced_events += events;
  });
  std::uint64_t hooked = 0;
  for (const std::uint64_t n : hook_events) hooked += n;
  report.check(hooked == traced_events, "post_event_hook saw every event");
  report.check(equal_oracle, "traced runs equal the oracle");
  report.set("trace.overhead", median(traced_s) / run - 1.0, "ratio");

  // The sharded engine's figures, for sub-seed 0: its 2-shard median, its
  // serial oracle time and its round count belong to the same forest.
  const double run0 = median(s0.run_s);
  const ManyLocksResult& o = s0.oracle;
  std::uint64_t max_shard = 0;
  for (const std::uint64_t n : s0.shard_events) max_shard = std::max(max_shard, n);
  report.set("sim.event_ns",
             s0.serial_run_s / static_cast<double>(o.events) * 1e9, "ns");
  report.set("sim.sharded.rounds", static_cast<double>(s0.rounds), "count");
  report.set("sim.sharded.events_per_round",
             static_cast<double>(o.events) / static_cast<double>(s0.rounds),
             "count");
  report.set("sim.sharded.lookahead_us", static_cast<double>(s0.lookahead),
             "us");
  report.set("sim.sharded.cross_posts", static_cast<double>(s0.cross_posts),
             "count");
  report.set("sim.sharded.mailbox_events",
             static_cast<double>(s0.mailbox_events), "count");
  report.set("sim.sharded.window_revalidations",
             static_cast<double>(s0.window_revalidations), "count");
  report.set("sim.sharded.shard_imbalance",
             static_cast<double>(max_shard) /
                 (static_cast<double>(o.events) / static_cast<double>(kShards)),
             "ratio");
  report.set("sim.sharded.serial_run_s", s0.serial_run_s, "s");
  report.set("sim.sharded.parallel_efficiency",
             parallel_efficiency(s0.serial_run_s, kShards, run0), "ratio");
  report.set("sim.sharded.round_overhead_us",
             round_overhead_us(run0, s0.serial_run_s, kShards, s0.rounds), "us");
  report_msgs_by_kind(report, o.messages_by_kind, o.lock_requests);
  report.set("core.engines_materialized",
             static_cast<double>(o.engines_materialized), "count");
  report.set("msg.bytes_per_message",
             static_cast<double>(o.wire_bytes) / static_cast<double>(o.messages),
             "B");
  report.set("lockmgr.requests_per_op",
             static_cast<double>(o.lock_requests) / static_cast<double>(o.ops),
             "1/op");
  report.set("lockmgr.deadlock_cycles", static_cast<double>(o.deadlock_cycles),
             "count");
  report_spans(report, log, args.spans_path);
}

}  // namespace perfbench
