// Zipf sampler and forest layout: seed reproducibility, agreement with
// the analytic distribution, and the determinism of the tree -> shard /
// lock -> home assignments the sharded harness builds on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "workload/forest.hpp"
#include "workload/zipf.hpp"

using namespace hlock;
using namespace hlock::workload;

TEST(Zipf, SameSeedSameDraws) {
  const ZipfTable table(1000, 0.9);
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 2000; ++i)
    ASSERT_EQ(table.sample(a), table.sample(b)) << "draw " << i;
}

TEST(Zipf, DifferentSeedsDiffer) {
  const ZipfTable table(1000, 0.9);
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 200; ++i)
    if (table.sample(a) != table.sample(b)) ++differing;
  EXPECT_GT(differing, 100);
}

TEST(Zipf, ProbabilitiesSumToOne) {
  for (const double theta : {0.0, 0.5, 0.9, 1.2}) {
    const ZipfTable table(512, theta);
    double sum = 0;
    for (std::uint32_t k = 0; k < table.size(); ++k)
      sum += table.probability(k);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "theta " << theta;
  }
}

TEST(Zipf, FrequenciesMatchAnalyticCdf) {
  // Sampled rank frequencies must track probability(k) — binomial
  // std-dev for the hot ranks at n draws is ~sqrt(p/n), so 5 sigma
  // tolerance keeps this deterministic-seed test far from flaky while
  // still catching an off-by-one in the CDF inversion.
  const ZipfTable table(100, 0.9);
  Rng rng(7);
  constexpr int kDraws = 200'000;
  std::vector<int> hist(table.size(), 0);
  for (int i = 0; i < kDraws; ++i) ++hist[table.sample(rng)];
  for (const std::uint32_t k : {0u, 1u, 2u, 10u, 50u, 99u}) {
    const double p = table.probability(k);
    const double expected = p * kDraws;
    const double sigma = std::sqrt(p * (1 - p) * kDraws);
    EXPECT_NEAR(hist[k], expected, 5 * sigma + 1) << "rank " << k;
  }
}

TEST(Zipf, ThetaZeroIsUniform) {
  const ZipfTable table(64, 0.0);
  for (std::uint32_t k = 0; k < table.size(); ++k)
    EXPECT_DOUBLE_EQ(table.probability(k), 1.0 / 64);
  Rng rng(3);
  std::vector<int> hist(table.size(), 0);
  for (int i = 0; i < 64 * 1000; ++i) ++hist[table.sample(rng)];
  for (const int count : hist) EXPECT_NEAR(count, 1000, 250);
}

TEST(Zipf, SkewConcentratesMass) {
  const ZipfTable uniform(1000, 0.0);
  const ZipfTable skewed(1000, 0.99);
  EXPECT_GT(skewed.probability(0), 10 * uniform.probability(0));
  EXPECT_LT(skewed.probability(999), uniform.probability(999));
}

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfTable(0, 0.9), std::invalid_argument);
  EXPECT_THROW(ZipfTable(10, -0.1), std::invalid_argument);
}

TEST(ForestLayout, PartitionsIdSpaceExactly) {
  for (const std::uint32_t levels : {3u, 4u}) {
    for (const std::uint32_t locks : {64u, 3125u, 50'000u}) {
      const ForestLayout layout(locks, levels);
      EXPECT_EQ(layout.locks_per_tree(),
                1 + layout.dbs() + layout.collections() + layout.pages());
      EXPECT_EQ(layout.locks_per_tree(), locks);
      EXPECT_EQ(layout.dbs() == 0, levels == 3);
      // Level-order ids tile [0, locks) with no gaps or overlaps.
      EXPECT_EQ(layout.top_lock().value, 0u);
      if (levels == 4) {
        EXPECT_EQ(layout.db_lock(0).value, 1u);
      }
      EXPECT_EQ(layout.collection_lock(0).value, 1 + layout.dbs());
      EXPECT_EQ(layout.page_lock(layout.pages() - 1).value, locks - 1);
    }
  }
}

TEST(ForestLayout, MostLocksAreLeaves) {
  const ForestLayout layout(100'000, 4);
  EXPECT_GT(layout.pages(), 85'000u);
  EXPECT_GT(layout.collections(), layout.dbs());
}

TEST(ForestLayout, ShardAndHomeAssignmentsAreDeterministic) {
  for (std::uint32_t tree = 0; tree < 32; ++tree) {
    EXPECT_EQ(ForestLayout::shard_of(tree, 4), tree % 4);
    EXPECT_EQ(ForestLayout::shard_of(tree, 1), 0u);
  }
  const ForestLayout layout(1000, 3);
  for (std::uint32_t v = 0; v < layout.locks_per_tree(); ++v) {
    const NodeId home = ForestLayout::home_of(LockId{v}, 8);
    EXPECT_LT(home.value, 8u);
    EXPECT_EQ(home.value, ForestLayout::home_of(LockId{v}, 8).value);
  }
}

TEST(ForestLayout, RejectsBadShapes) {
  EXPECT_THROW(ForestLayout(7, 3), std::invalid_argument);
  EXPECT_THROW(ForestLayout(100, 2), std::invalid_argument);
  EXPECT_THROW(ForestLayout(100, 5), std::invalid_argument);
}

TEST(ForestOpGen, PlansAreTopDownAndLevelCorrect) {
  const ForestLayout layout(5000, 4);
  const ZipfTable zipf(layout.pages(), 0.9);
  WorkloadSpec spec;
  ForestOpGen gen(spec, zipf, Rng(11));
  std::vector<lockmgr::PlanStep> plan;
  for (int i = 0; i < 500; ++i) {
    const ForestOp op = gen.next();
    ForestOpGen::plan_for(layout, op, plan);
    ASSERT_EQ(plan.size(), op.collection_scope ? 3u : 4u);
    EXPECT_EQ(plan[0].lock.value, layout.top_lock().value);
    // Every non-leaf step carries an intent mode; the leaf the op's mode.
    for (std::size_t s = 0; s + 1 < plan.size(); ++s)
      EXPECT_EQ(plan[s].mode, lockmgr::intent_for(op.leaf_mode));
    EXPECT_EQ(plan.back().mode, op.leaf_mode);
    if (!op.collection_scope) {
      EXPECT_EQ(plan.back().lock.value, layout.page_lock(op.page).value);
    }
  }
}

TEST(ForestOpGen, SameSeedSameStream) {
  const ForestLayout layout(1000, 3);
  const ZipfTable zipf(layout.pages(), 0.5);
  WorkloadSpec spec;
  ForestOpGen a(spec, zipf, Rng(99));
  ForestOpGen b(spec, zipf, Rng(99));
  for (int i = 0; i < 300; ++i) {
    const ForestOp oa = a.next();
    const ForestOp ob = b.next();
    EXPECT_EQ(oa.page, ob.page);
    EXPECT_EQ(oa.leaf_mode, ob.leaf_mode);
    EXPECT_EQ(oa.collection_scope, ob.collection_scope);
    EXPECT_EQ(oa.cs, ob.cs);
    EXPECT_EQ(a.next_idle(), b.next_idle());
  }
}
