// Multi-level hierarchy tests: lock-plan computation and intent-mode
// selection. (Plans run end to end in test_sessions.cpp.)
#include <gtest/gtest.h>

#include "lockmgr/hierarchy.hpp"

namespace hlock::lockmgr {
namespace {

Hierarchy three_level() {
  Hierarchy h("db");
  const ResourceId t0 = h.add_child(h.root(), "table0");
  const ResourceId t1 = h.add_child(h.root(), "table1");
  h.add_child(t0, "row0");
  h.add_child(t0, "row1");
  h.add_child(t1, "row2");
  return h;
}

TEST(Hierarchy, StructureAndNames) {
  const Hierarchy h = three_level();
  EXPECT_EQ(h.resource_count(), 6u);
  EXPECT_EQ(h.name_of(h.root()), "db");
  EXPECT_EQ(h.depth_of(h.root()), 0u);
  EXPECT_EQ(h.depth_of(ResourceId{3}), 2u);  // row0
  EXPECT_EQ(h.parent_of(ResourceId{3}), ResourceId{1});
  EXPECT_FALSE(h.parent_of(h.root()).valid());
  EXPECT_EQ(h.children_of(h.root()).size(), 2u);
  EXPECT_EQ(h.children_of(ResourceId{1}).size(), 2u);
  EXPECT_THROW((void)h.name_of(ResourceId{9}), std::out_of_range);
}

TEST(Hierarchy, PathToLeaf) {
  const Hierarchy h = three_level();
  const auto path = h.path_to(ResourceId{5});  // row2
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[0], h.root());
  EXPECT_EQ(path[1], ResourceId{2});  // table1
  EXPECT_EQ(path[2], ResourceId{5});
}

TEST(Hierarchy, IntentModeSelection) {
  EXPECT_EQ(intent_for(Mode::kR), Mode::kIR);
  EXPECT_EQ(intent_for(Mode::kIR), Mode::kIR);
  EXPECT_EQ(intent_for(Mode::kW), Mode::kIW);
  EXPECT_EQ(intent_for(Mode::kIW), Mode::kIW);
  EXPECT_EQ(intent_for(Mode::kU), Mode::kIW);
  EXPECT_THROW(intent_for(Mode::kNone), std::invalid_argument);
}

TEST(Hierarchy, LockPlansForEveryLevel) {
  const Hierarchy h = three_level();
  // Leaf write: IW on db, IW on table, W on row.
  const auto leaf = lock_plan(h, ResourceId{3}, Mode::kW);
  ASSERT_EQ(leaf.size(), 3u);
  EXPECT_EQ(leaf[0], (PlanStep{LockId{0}, Mode::kIW}));
  EXPECT_EQ(leaf[1], (PlanStep{LockId{1}, Mode::kIW}));
  EXPECT_EQ(leaf[2], (PlanStep{LockId{3}, Mode::kW}));
  // Table scan: IR on db, R on table.
  const auto scan = lock_plan(h, ResourceId{2}, Mode::kR);
  ASSERT_EQ(scan.size(), 2u);
  EXPECT_EQ(scan[0], (PlanStep{LockId{0}, Mode::kIR}));
  EXPECT_EQ(scan[1], (PlanStep{LockId{2}, Mode::kR}));
  // Whole-database op: single step.
  const auto whole = lock_plan(h, h.root(), Mode::kU);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0], (PlanStep{LockId{0}, Mode::kU}));
}

TEST(Hierarchy, PlanCompatibilityAcrossDisjointSubtrees) {
  // The whole point of intents: writers on rows of DIFFERENT tables must
  // be pairwise compatible at every shared level.
  const Hierarchy h = three_level();
  const auto w0 = lock_plan(h, ResourceId{3}, Mode::kW);  // table0/row0
  const auto w2 = lock_plan(h, ResourceId{5}, Mode::kW);  // table1/row2
  for (const auto& a : w0) {
    for (const auto& b : w2) {
      if (a.lock != b.lock) continue;
      EXPECT_TRUE(compatible(a.mode, b.mode))
          << a.mode << " vs " << b.mode << " on lock " << a.lock;
    }
  }
  // Same-table writers conflict exactly at the row (disjoint rows: no
  // conflict anywhere).
  const auto w1 = lock_plan(h, ResourceId{4}, Mode::kW);  // table0/row1
  for (const auto& a : w0) {
    for (const auto& b : w1) {
      if (a.lock != b.lock) continue;
      EXPECT_TRUE(compatible(a.mode, b.mode));
    }
  }
}

}  // namespace
}  // namespace hlock::lockmgr
