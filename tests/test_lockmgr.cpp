// Resource layout and oracle tests.
#include <gtest/gtest.h>

#include "lockmgr/oracle.hpp"
#include "lockmgr/resource.hpp"

namespace hlock::lockmgr {
namespace {

TEST(ResourceLayout, LockIdAssignment) {
  const ResourceLayout layout(5);
  EXPECT_EQ(layout.table_lock(), LockId{0});
  EXPECT_EQ(layout.entry_lock(0), LockId{1});
  EXPECT_EQ(layout.entry_lock(4), LockId{5});
  EXPECT_EQ(layout.entry_count(), 5u);
  EXPECT_EQ(layout.lock_count(), 6u);
  EXPECT_THROW((void)layout.entry_lock(5), std::out_of_range);
  EXPECT_THROW(ResourceLayout(0), std::invalid_argument);
}

TEST(ResourceLayout, OrderedLocksAscend) {
  const ResourceLayout layout(4);
  const auto order = layout.entry_locks_in_order();
  ASSERT_EQ(order.size(), 4u);
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LT(order[i - 1], order[i]);
  }
}

TEST(Oracle, CompatibleHoldsCoexist) {
  OracleLock lock;
  lock.add(NodeId{0}, Mode::kIR);
  lock.add(NodeId{1}, Mode::kR);
  lock.add(NodeId{2}, Mode::kU);
  EXPECT_EQ(lock.hold_count(), 3u);
  EXPECT_EQ(lock.strongest_hold(), Mode::kU);
}

TEST(Oracle, IncompatibleHoldThrows) {
  OracleLock lock;
  lock.add(NodeId{0}, Mode::kR);
  EXPECT_THROW(lock.add(NodeId{1}, Mode::kIW), IncompatibleHolds);
  EXPECT_THROW(lock.add(NodeId{1}, Mode::kW), IncompatibleHolds);
  EXPECT_EQ(lock.hold_count(), 1u);
}

TEST(Oracle, CanHoldMirrorsCompatibility) {
  OracleLock lock;
  lock.add(NodeId{0}, Mode::kIW);
  EXPECT_TRUE(lock.can_hold(Mode::kIR));
  EXPECT_TRUE(lock.can_hold(Mode::kIW));
  EXPECT_FALSE(lock.can_hold(Mode::kR));
  EXPECT_FALSE(lock.can_hold(Mode::kU));
  EXPECT_FALSE(lock.can_hold(Mode::kW));
}

TEST(Oracle, RemoveSpecificHold) {
  OracleLock lock;
  lock.add(NodeId{0}, Mode::kIR);
  lock.add(NodeId{0}, Mode::kIR);  // re-entrant hold
  lock.remove(NodeId{0}, Mode::kIR);
  EXPECT_EQ(lock.hold_count(), 1u);
  EXPECT_THROW(lock.remove(NodeId{1}, Mode::kIR), std::logic_error);
}

TEST(Oracle, UpgradeReplaceIsAtomic) {
  OracleLock lock;
  lock.add(NodeId{0}, Mode::kU);
  lock.replace(NodeId{0}, Mode::kU, Mode::kW);
  EXPECT_EQ(lock.strongest_hold(), Mode::kW);

  OracleLock blocked;
  blocked.add(NodeId{0}, Mode::kU);
  blocked.add(NodeId{1}, Mode::kR);
  EXPECT_THROW(blocked.replace(NodeId{0}, Mode::kU, Mode::kW),
               IncompatibleHolds);
  // Failed replace restores the original hold.
  EXPECT_EQ(blocked.hold_count(), 2u);
  EXPECT_EQ(blocked.strongest_hold(), Mode::kU);
}

TEST(Oracle, ManagerTracksManyLocks) {
  OracleLockManager mgr;
  mgr.lock(LockId{0}).add(NodeId{0}, Mode::kW);
  mgr.lock(LockId{1}).add(NodeId{1}, Mode::kW);  // disjoint locks: fine
  EXPECT_EQ(mgr.total_holds(), 2u);
}

}  // namespace
}  // namespace hlock::lockmgr
