// SweepRunner: parallel execution must be invisible in the results —
// bit-identical ExperimentResults in submission order at any thread
// count — and the memo cache must collapse duplicate points without
// changing what callers see.
#include <gtest/gtest.h>

#include <vector>

#include "harness/experiment.hpp"
#include "harness/sweep_runner.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

workload::WorkloadSpec small_spec() {
  workload::WorkloadSpec spec;
  spec.ops_per_node = 20;
  return spec;
}

/// The fig5 point set, shrunk for test time: all three protocols at the
/// standard node counts up to 40.
std::vector<SweepPoint> fig5_points() {
  const workload::WorkloadSpec spec = small_spec();
  std::vector<SweepPoint> points;
  for (const std::size_t n : sweep_node_counts(40)) {
    points.push_back(make_point(Protocol::kHls, n, spec));
    points.push_back(make_point(Protocol::kNaimiPure, n, spec));
    points.push_back(make_point(Protocol::kNaimiSameWork, n, spec));
  }
  return points;
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.app_ops, b.app_ops);
  EXPECT_EQ(a.lock_requests, b.lock_requests);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.messages_by_kind.all(), b.messages_by_kind.all());
  ASSERT_EQ(a.latency_factor.count(), b.latency_factor.count());
  EXPECT_EQ(a.latency_factor.mean(), b.latency_factor.mean());
  EXPECT_EQ(a.latency_factor.percentile(0.95),
            b.latency_factor.percentile(0.95));
  ASSERT_EQ(a.latency_by_kind.size(), b.latency_by_kind.size());
  for (const auto& [kind, summary] : a.latency_by_kind) {
    const auto it = b.latency_by_kind.find(kind);
    ASSERT_NE(it, b.latency_by_kind.end()) << kind;
    EXPECT_EQ(summary.count(), it->second.count()) << kind;
    EXPECT_EQ(summary.mean(), it->second.mean()) << kind;
  }
}

TEST(SweepRunner, MatchesSerialPathAtEveryThreadCount) {
  const auto points = fig5_points();

  // Ground truth: the plain serial path every bench used before.
  std::vector<ExperimentResult> serial;
  for (const SweepPoint& p : points)
    serial.push_back(run_experiment(p.protocol, p.config));

  for (const std::size_t threads : {1u, 2u, 8u}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    const auto parallel = runner.run(points);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " point=" + std::to_string(i));
      expect_identical(serial[i], parallel[i]);
    }
  }
}

TEST(SweepRunner, ResultsComeBackInSubmissionOrder) {
  // Mixed sizes so completion order differs from submission order.
  const workload::WorkloadSpec spec = small_spec();
  std::vector<SweepPoint> points;
  for (const std::size_t n : {40ul, 2ul, 20ul, 5ul, 10ul})
    points.push_back(make_point(Protocol::kHls, n, spec));

  SweepOptions opts;
  opts.threads = 4;
  SweepRunner runner(opts);
  const auto results = runner.run(points);
  ASSERT_EQ(results.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i)
    EXPECT_EQ(results[i].nodes, points[i].config.nodes);
}

TEST(SweepRunner, MemoCacheHitsDuplicatePoints) {
  const workload::WorkloadSpec spec = small_spec();
  const SweepPoint a = make_point(Protocol::kHls, 10, spec);
  const SweepPoint b = make_point(Protocol::kNaimiPure, 10, spec);

  SweepOptions opts;
  opts.threads = 1;
  SweepRunner runner(opts);
  const auto first = runner.run({a, b, a});
  EXPECT_EQ(runner.memo_misses(), 2u);
  EXPECT_EQ(runner.memo_hits(), 1u);
  expect_identical(first[0], first[2]);

  // The cache persists across run() calls on the same runner.
  const auto second = runner.run({a, b});
  EXPECT_EQ(runner.memo_misses(), 2u);
  EXPECT_EQ(runner.memo_hits(), 3u);
  expect_identical(first[0], second[0]);
  expect_identical(first[1], second[1]);
}

TEST(SweepRunner, MemoDistinguishesEveryKeyComponent) {
  // The memo key is the whole SweepPoint: a change to any one field of the
  // protocol, ClusterConfig, WorkloadSpec or EngineOptions is a different
  // point and must be simulated, never served another point's result.
  const SweepPoint base = make_point(Protocol::kHls, 10, small_spec());
  const auto vary = [&](auto&& edit) {
    SweepPoint v = base;
    edit(v);
    return v;
  };
  const std::vector<SweepPoint> variants{
      vary([](SweepPoint& v) { v.protocol = Protocol::kNaimiPure; }),
      vary([](SweepPoint& v) { v.config.nodes = 20; }),
      vary([](SweepPoint& v) { v.config.latency = LatencyKind::kConstant; }),
      vary([](SweepPoint& v) { v.config.loss_rate = 0.01; }),
      vary([](SweepPoint& v) { v.config.spec.seed = 7; }),
      vary([](SweepPoint& v) { v.config.spec.cs_mean = msec(20); }),
      vary([](SweepPoint& v) { v.config.spec.idle_mean = msec(100); }),
      vary([](SweepPoint& v) { v.config.spec.net_latency_mean = msec(100); }),
      vary([](SweepPoint& v) {
        v.config.spec.p_entry_read = 0.79;
        v.config.spec.p_table_read = 0.11;
      }),
      vary([](SweepPoint& v) {
        v.config.spec.p_upgrade = 0.03;
        v.config.spec.p_entry_write = 0.06;
      }),
      vary([](SweepPoint& v) {
        v.config.spec.p_entry_write = 0.04;
        v.config.spec.p_table_write = 0.02;
      }),
      vary([](SweepPoint& v) { v.config.spec.entries_per_node = 2; }),
      vary([](SweepPoint& v) { v.config.spec.home_bias = 0.25; }),
      vary([](SweepPoint& v) { v.config.spec.ops_per_node = 21; }),
      vary([](SweepPoint& v) {
        v.config.engine_opts.allow_child_grants = false;
      }),
      vary([](SweepPoint& v) {
        v.config.engine_opts.allow_local_queues = false;
      }),
      vary([](SweepPoint& v) { v.config.engine_opts.enable_freezing = false; }),
      vary([](SweepPoint& v) { v.config.engine_opts.lazy_release = false; }),
      vary([](SweepPoint& v) {
        v.config.engine_opts.enable_priorities = true;
      }),
      vary([](SweepPoint& v) { v.config.engine_opts.locality_bias = true; }),
      vary([](SweepPoint& v) {
        v.config.engine_opts.locality_fairness_cap = 9;
      }),
      vary([](SweepPoint& v) { v.config.shards = 4; }),
      vary([](SweepPoint& v) { v.config.clusters = 4; }),
      vary([](SweepPoint& v) {
        v.config.placement = ClusterPlacement::kStripe;
      }),
      vary([](SweepPoint& v) { v.config.intra_latency_mean = usec(100); }),
      vary([](SweepPoint& v) { v.config.inter_latency_mean = msec(100); }),
      vary([](SweepPoint& v) { v.config.spec.lock_count = 50'000; }),
      vary([](SweepPoint& v) { v.config.spec.zipf_theta = 0.9; }),
  };
  for (std::size_t i = 0; i < variants.size(); ++i)
    EXPECT_FALSE(variants[i] == base) << "variant " << i;

  // Every variant is a small classic-cluster run, so all of them go
  // through the runner: each must be a miss, and only the repeated base
  // a hit.
  std::vector<SweepPoint> points{base};
  points.insert(points.end(), variants.begin(), variants.end());
  points.push_back(base);
  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  const auto results = runner.run(points);
  EXPECT_EQ(runner.memo_misses(), variants.size() + 1);
  EXPECT_EQ(runner.memo_hits(), 1u);
  EXPECT_TRUE(results.front() == results.back());
  // Sanity: the distinct configurations really produced distinct runs.
  EXPECT_NE(results[0].messages, results[2].messages);
  EXPECT_NE(results[0].messages, results[5].messages);
}

TEST(SweepRunner, MemoCanBeDisabled) {
  const SweepPoint a = make_point(Protocol::kHls, 10, small_spec());
  SweepOptions opts;
  opts.threads = 2;
  opts.memoize = false;
  SweepRunner runner(opts);
  const auto results = runner.run({a, a, a});
  EXPECT_EQ(runner.memo_misses(), 0u);
  EXPECT_EQ(runner.memo_hits(), 0u);
  expect_identical(results[0], results[1]);
  expect_identical(results[0], results[2]);
}

TEST(SweepRunner, RepeatReevaluatesAndDisablesMemo) {
  const SweepPoint a = make_point(Protocol::kHls, 5, small_spec());
  SweepOptions opts;
  opts.threads = 1;
  opts.repeat = 3;
  SweepRunner runner(opts);
  const auto repeated = runner.run({a, a});
  EXPECT_EQ(runner.memo_hits(), 0u);
  EXPECT_EQ(runner.memo_misses(), 0u);
  // Repetition must not perturb the (deterministic) result.
  const ExperimentResult once = run_experiment(a.protocol, a.config);
  expect_identical(once, repeated[0]);
  expect_identical(once, repeated[1]);
}

TEST(SweepRunner, ForEachIndexCoversAllIndicesOnce) {
  for (const std::size_t threads : {1u, 4u}) {
    SweepOptions opts;
    opts.threads = threads;
    SweepRunner runner(opts);
    std::vector<int> counts(100, 0);
    runner.for_each_index(counts.size(),
                          [&](std::size_t i) { counts[i]++; });
    for (std::size_t i = 0; i < counts.size(); ++i)
      EXPECT_EQ(counts[i], 1) << "i=" << i << " threads=" << threads;
  }
}

TEST(SweepRunner, PropagatesExceptionsFromPoints) {
  workload::WorkloadSpec bad = small_spec();
  bad.p_entry_read = 2.0;  // mode mix no longer sums to 1 -> validate throws
  SweepOptions opts;
  opts.threads = 2;
  SweepRunner runner(opts);
  EXPECT_THROW(runner.run({make_point(Protocol::kHls, 4, bad)}),
               std::invalid_argument);
}

}  // namespace
