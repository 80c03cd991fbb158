// Bit-reproducibility of the simulator: the same seed must yield the same
// message counts, wire bytes, per-kind breakdown, and final virtual time —
// run-to-run within a build (Determinism.*) and across builds against
// constants recorded from the seed revision (SeedRegression.*). The
// regression half is the guard rail for hot-path optimizations: any
// allocation or ordering change that alters behavior trips it.
#include <gtest/gtest.h>

#include "harness/cluster.hpp"
#include "harness/many_locks_cluster.hpp"

namespace hlock {
namespace {

using harness::ClusterConfig;
using harness::ExperimentResult;
using harness::HlsCluster;
using harness::NaimiCluster;

ClusterConfig fig5_config() {
  ClusterConfig config;
  config.nodes = 24;
  config.spec.ops_per_node = 40;
  return config;  // default fig5 workload mix, default seed
}

template <typename Cluster, typename... Extra>
ExperimentResult run_once(const ClusterConfig& config, Extra... extra) {
  Cluster cluster(config, extra...);
  cluster.run();
  return cluster.result();
}

void expect_identical(const ExperimentResult& a, const ExperimentResult& b) {
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.lock_requests, b.lock_requests);
  EXPECT_EQ(a.virtual_end, b.virtual_end);
  EXPECT_EQ(a.messages_by_kind.all(), b.messages_by_kind.all());
}

TEST(Determinism, HlsSameSeedSameRun) {
  const ClusterConfig config = fig5_config();
  expect_identical(run_once<HlsCluster>(config), run_once<HlsCluster>(config));
}

TEST(Determinism, NaimiSameSeedSameRun) {
  const ClusterConfig config = fig5_config();
  expect_identical(run_once<NaimiCluster>(config, true),
                   run_once<NaimiCluster>(config, true));
}

TEST(Determinism, DifferentSeedsDiverge) {
  ClusterConfig config = fig5_config();
  const ExperimentResult a = run_once<HlsCluster>(config);
  config.spec.seed ^= 1;
  const ExperimentResult b = run_once<HlsCluster>(config);
  // Virtual time depends on every sampled latency; a one-bit seed change
  // must perturb it (equal counts could coincide, time practically cannot).
  EXPECT_NE(a.virtual_end, b.virtual_end);
}

// Constants recorded from the seed build (pre-optimization revision) at
// n=24, ops_per_node=40, default seed. A mismatch means an "optimization"
// changed observable behavior, not just speed.
TEST(SeedRegression, HlsFig5Counts) {
  const ExperimentResult r = run_once<HlsCluster>(fig5_config());
  EXPECT_EQ(r.messages, 5151u);
  EXPECT_EQ(r.wire_bytes, 322985u);
  EXPECT_EQ(r.virtual_end, 86894413);
  EXPECT_EQ(r.messages_by_kind.get("request"), 2252u);
  EXPECT_EQ(r.messages_by_kind.get("grant"), 778u);
  EXPECT_EQ(r.messages_by_kind.get("token"), 609u);
  EXPECT_EQ(r.messages_by_kind.get("release"), 839u);
  EXPECT_EQ(r.messages_by_kind.get("freeze"), 673u);
}

TEST(SeedRegression, NaimiFig5Counts) {
  const ExperimentResult r = run_once<NaimiCluster>(fig5_config(), true);
  EXPECT_EQ(r.messages, 3533u);
  EXPECT_EQ(r.wire_bytes, 208447u);
  EXPECT_EQ(r.virtual_end, 157215059);
  EXPECT_EQ(r.messages_by_kind.get("naimi_request"), 2573u);
  EXPECT_EQ(r.messages_by_kind.get("naimi_token"), 960u);
}

// The plan path (many-lock forest, cross-tree gateway legs): constants
// recorded at the revision that still ran it through a dedicated plan
// session. The shard-count cmp oracles cannot see a behavior change that
// is identical at every shard count; these can.
harness::ManyLocksResult run_forest(bool coupled) {
  harness::ManyLocksConfig cfg;
  cfg.nodes = 8;
  cfg.trees = 8;
  cfg.levels = 4;
  cfg.spec.lock_count = 8 * 500;
  cfg.spec.zipf_theta = 0.9;
  cfg.spec.ops_per_node = 20;
  cfg.spec.seed = 42;
  if (coupled) {
    cfg.cross_tree_pct = 10.0;
    cfg.clusters = 4;
    cfg.intra_latency_mean = usec(50);
  }
  harness::ManyLocksCluster cluster(cfg);
  cluster.run();
  return cluster.result();
}

TEST(SeedRegression, ManyLocksCounts) {
  const harness::ManyLocksResult flat = run_forest(false);
  EXPECT_EQ(flat.ops, 1280u);
  EXPECT_EQ(flat.lock_requests, 4982u);
  EXPECT_EQ(flat.messages, 12505u);
  EXPECT_EQ(flat.events, 18767u);
  EXPECT_EQ(flat.virtual_end, 37515447);
  EXPECT_EQ(flat.cross_tree_ops, 0u);

  const harness::ManyLocksResult coupled = run_forest(true);
  EXPECT_EQ(coupled.ops, 1280u);
  EXPECT_EQ(coupled.lock_requests, 5538u);
  EXPECT_EQ(coupled.messages, 13997u);
  EXPECT_EQ(coupled.events, 21085u);
  EXPECT_EQ(coupled.virtual_end, 67037269);
  EXPECT_EQ(coupled.cross_tree_ops, 135u);
}

}  // namespace
}  // namespace hlock
