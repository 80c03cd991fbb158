// Integration tests: full simulated clusters of the paper's protocol with
// the global safety probe armed after every event, across node counts,
// seeds and workload mixes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/invariants.hpp"

namespace hlock::harness {
namespace {

ClusterConfig small_config(std::size_t nodes, std::uint64_t seed,
                           std::uint32_t ops = 30) {
  ClusterConfig c;
  c.nodes = nodes;
  c.spec.seed = seed;
  c.spec.ops_per_node = ops;
  return c;
}

TEST(HlsCluster, SingleNodeRunsWithoutMessages) {
  HlsCluster cluster(small_config(1, 42));
  install_safety_probe(cluster);
  cluster.run();
  const auto r = cluster.result();
  EXPECT_EQ(r.app_ops, 30u);
  // Everything is local: the only node is every lock's token node.
  EXPECT_EQ(r.messages, 0u);
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, TwoNodesCompleteAndQuiesce) {
  HlsCluster cluster(small_config(2, 7));
  install_safety_probe(cluster);
  cluster.run();
  EXPECT_EQ(cluster.result().app_ops, 60u);
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, EveryOpCompletesAtModerateScale) {
  HlsCluster cluster(small_config(12, 99, 20));
  install_safety_probe(cluster);
  cluster.run();
  EXPECT_EQ(cluster.result().app_ops, 240u);
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, DeterministicAcrossRuns) {
  auto run_once = [] {
    HlsCluster cluster(small_config(6, 1234));
    cluster.run();
    const auto r = cluster.result();
    return std::make_tuple(r.messages, r.virtual_end,
                           r.latency_factor.mean());
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(HlsCluster, WriteHeavyMixStaysSafe) {
  ClusterConfig c = small_config(8, 5, 15);
  c.spec.p_entry_read = 0.20;
  c.spec.p_table_read = 0.20;
  c.spec.p_upgrade = 0.20;
  c.spec.p_entry_write = 0.20;
  c.spec.p_table_write = 0.20;
  HlsCluster cluster(c);
  install_safety_probe(cluster);
  cluster.run();
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, UpgradeOnlyMixExercisesRule7) {
  ClusterConfig c = small_config(6, 11, 15);
  c.spec.p_entry_read = 0.0;
  c.spec.p_table_read = 0.0;
  c.spec.p_upgrade = 1.0;
  c.spec.p_entry_write = 0.0;
  c.spec.p_table_write = 0.0;
  HlsCluster cluster(c);
  install_safety_probe(cluster);
  cluster.run();
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, WriterOnlyMixSerializesEverything) {
  ClusterConfig c = small_config(5, 13, 10);
  c.spec.p_entry_read = 0.0;
  c.spec.p_table_read = 0.0;
  c.spec.p_upgrade = 0.0;
  c.spec.p_entry_write = 0.0;
  c.spec.p_table_write = 1.0;
  HlsCluster cluster(c);
  install_safety_probe(cluster);
  cluster.run();
  EXPECT_EQ(check_quiescent(cluster), "");
}

// ---------------------------------------------------------------------------
// Engines built on first touch, the per-mode queue counts behind the
// token's frozen set, and per-kind latency summaries, each pinned against
// a brute-force or unprobed reference.

/// The fig5 spec at `nodes` nodes (default mix, one entry per node).
ClusterConfig fig5_config(std::size_t nodes) {
  ClusterConfig c;
  c.nodes = nodes;
  c.spec.ops_per_node = 40;
  return c;
}

std::size_t engines_built(const HlsCluster& cluster) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i)
    total += cluster.node(i).lock_count();
  return total;
}

TEST(HlsCluster, EnginesAreBuiltOnlyOnFirstTouch) {
  HlsCluster cluster(fig5_config(64));
  EXPECT_EQ(engines_built(cluster), 0u);
  cluster.run();
  const std::size_t grid = cluster.node_count() * cluster.layout().lock_count();
  const std::size_t built = engines_built(cluster);
  EXPECT_GT(built, 0u);
  // Each node touches the table lock and the few entries it used or was
  // asked about, not all 65 locks.
  EXPECT_LT(built * 4, grid) << built << " of " << grid;
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, SafetyProbeBuildsNoEngines) {
  HlsCluster plain(fig5_config(24));
  plain.run();
  HlsCluster probed(fig5_config(24));
  install_safety_probe(probed);
  probed.run();
  EXPECT_EQ(probed.result(), plain.result());
  for (std::size_t i = 0; i < plain.node_count(); ++i) {
    EXPECT_EQ(probed.node(i).lock_count(), plain.node(i).lock_count())
        << "node " << i;
  }
  EXPECT_LT(engines_built(probed),
            probed.node_count() * probed.layout().lock_count());
  EXPECT_EQ(check_quiescent(probed), "");
}

TEST(HlsCluster, InitialHolderMapsTableAndEntries) {
  ClusterConfig c = fig5_config(4);
  c.spec.entries_per_node = 3;
  const HlsCluster cluster(c);
  const auto& layout = cluster.layout();
  EXPECT_EQ(cluster.initial_holder(layout.table_lock()), NodeId{0});
  for (std::uint32_t e = 0; e < layout.entry_count(); ++e)
    EXPECT_EQ(cluster.initial_holder(layout.entry_lock(e)), NodeId{e / 3});
  EXPECT_THROW((void)cluster.initial_holder(LockId{layout.lock_count()}),
               std::out_of_range);
}

/// After every event, every materialized token node's frozen set must
/// equal the brute-force union of frozen_for(owned, q.mode) over its queue.
/// One exemption: a token node that reached W through a local Rule 7
/// upgrade keeps its pre-upgrade set until the next recompute (the W
/// release). Nothing reads the set meanwhile, since no mode is compatible
/// with W, and the protocol has always behaved this way.
/// Returns the number of (event, token engine) pairs checked.
std::uint64_t check_frozen_after_every_event(HlsCluster& cluster) {
  std::uint64_t checked = 0;
  cluster.simulator().post_event_hook = [&cluster, &checked] {
    for (std::size_t i = 0; i < cluster.node_count(); ++i) {
      cluster.node(i).for_each_engine(
          [&](LockId lock, const core::HlsEngine& e) {
            if (!e.is_token_node() || e.owned_mode() == Mode::kW) return;
            ModeSet brute;
            for (const QueuedRequest& q : e.queue())
              brute |= frozen_for(e.owned_mode(), q.mode);
            ++checked;
            if (!(brute == e.frozen())) {
              throw std::logic_error(
                  "node " + std::to_string(i) + " lock " +
                  std::to_string(lock.value) + ": frozen " +
                  e.frozen().to_string() + " != brute force " +
                  brute.to_string());
            }
          });
    }
  };
  cluster.run();
  return checked;
}

TEST(HlsCluster, QueueModeCountsMatchBruteForceOnFig5) {
  HlsCluster cluster(fig5_config(24));
  std::uint64_t checked = 0;
  ASSERT_NO_THROW(checked = check_frozen_after_every_event(cluster));
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, QueueModeCountsMatchBruteForceUnderUpgradesAndPriorities) {
  ClusterConfig c = fig5_config(16);
  c.spec.seed = 77;
  c.spec.p_entry_read = 0.30;
  c.spec.p_table_read = 0.20;
  c.spec.p_upgrade = 0.40;
  c.spec.p_entry_write = 0.05;
  c.spec.p_table_write = 0.05;
  c.engine_opts.enable_priorities = true;
  HlsCluster cluster(c);
  std::uint64_t checked = 0;
  ASSERT_NO_THROW(checked = check_frozen_after_every_event(cluster));
  EXPECT_GT(checked, 0u);
  EXPECT_EQ(check_quiescent(cluster), "");
}

TEST(HlsCluster, LatencyByKindNamesExactlyTheKindsThatRan) {
  ClusterConfig c = fig5_config(6);
  c.spec.p_entry_read = 0.6;
  c.spec.p_table_read = 0.2;
  c.spec.p_upgrade = 0.0;
  c.spec.p_entry_write = 0.2;
  c.spec.p_table_write = 0.0;
  HlsCluster cluster(c);
  std::map<std::string, std::vector<double>> seen;
  cluster.on_op_done = [&](NodeId, const lockmgr::OpStats& stats) {
    seen[lockmgr::to_string(stats.op.kind)].push_back(
        static_cast<double>(stats.acquire_latency) /
        static_cast<double>(c.spec.net_latency_mean));
  };
  cluster.run();
  const ExperimentResult r = cluster.result();
  ASSERT_EQ(r.latency_by_kind.size(), seen.size());
  EXPECT_EQ(seen.size(), 3u);  // no upgrades, no table writes
  for (const auto& [kind, factors] : seen) {
    const auto it = r.latency_by_kind.find(kind);
    ASSERT_NE(it, r.latency_by_kind.end()) << kind;
    Summary expected;
    for (const double f : factors) expected.add(f);
    expected.seal();
    EXPECT_EQ(it->second, expected) << kind;
  }
}

// ---------------------------------------------------------------------------
// Property sweep: node count x seed, probe always armed.
// ---------------------------------------------------------------------------

struct SweepParam {
  std::size_t nodes;
  std::uint64_t seed;
};

class HlsClusterSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(HlsClusterSweep, SafeAndLive) {
  const auto p = GetParam();
  HlsCluster cluster(small_config(p.nodes, p.seed, 15));
  install_safety_probe(cluster);
  ASSERT_NO_THROW(cluster.run());
  EXPECT_EQ(check_quiescent(cluster), "");
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> out;
  for (const std::size_t nodes : {2, 3, 4, 6, 9, 16}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      out.push_back({nodes, seed});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(NodesBySeeds, HlsClusterSweep,
                         ::testing::ValuesIn(sweep_params()),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(pinfo.param.nodes) +
                                  "_s" + std::to_string(pinfo.param.seed);
                         });

}  // namespace
}  // namespace hlock::harness
