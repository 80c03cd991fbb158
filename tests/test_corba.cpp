// End-to-end tests of the CosConcurrency-style facade over real TCP
// sockets: multiple nodes, multiple application threads, blocking locks,
// try_lock, upgrades and downgrades.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "corba/concurrency.hpp"
#include "net/cluster.hpp"

namespace hlock::corba {
namespace {

constexpr LockId kTable{0};

struct Fixture {
  explicit Fixture(std::size_t n) : cluster(n) {
    services.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<ConcurrencyService>(cluster.node(i)));
    }
    for (auto& s : services) s->create_lock_set(kTable, NodeId{0});
  }
  net::InProcessCluster cluster;
  std::vector<std::unique_ptr<ConcurrencyService>> services;
};

TEST(CorbaService, LockUnlockAcrossTwoNodes) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);
  LockSet b = f.services[1]->lock_set(kTable);

  const LockHandle ha = a.lock(LockMode::kWrite);
  EXPECT_EQ(ha.mode, Mode::kW);
  a.unlock(ha);

  const LockHandle hb = b.lock(LockMode::kWrite);
  EXPECT_EQ(hb.mode, Mode::kW);
  b.unlock(hb);
}

TEST(CorbaService, ConcurrentReadersShareTheLock) {
  Fixture f(3);
  std::vector<std::thread> threads;
  std::atomic<int> holding{0};
  std::atomic<bool> all_overlapped{false};
  for (int i = 0; i < 3; ++i) {
    threads.emplace_back([&, i] {
      LockSet set = f.services[static_cast<std::size_t>(i)]->lock_set(kTable);
      const LockHandle h = set.lock(LockMode::kRead);
      holding.fetch_add(1);
      // Barrier: nobody releases until all three hold R simultaneously
      // (or a generous deadline proves sharing is broken).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (holding.load() < 3 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (holding.load() == 3) all_overlapped.store(true);
      set.unlock(h);
    });
  }
  for (auto& t : threads) t.join();
  // All three readers must have overlapped (reads are compatible).
  EXPECT_TRUE(all_overlapped.load());
}

TEST(CorbaService, WritersExclude) {
  Fixture f(2);
  std::atomic<int> inside{0};
  std::atomic<bool> overlap{false};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&, i] {
      LockSet set = f.services[static_cast<std::size_t>(i)]->lock_set(kTable);
      for (int round = 0; round < 5; ++round) {
        const LockHandle h = set.lock(LockMode::kWrite);
        if (inside.fetch_add(1) != 0) overlap.store(true);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
        inside.fetch_sub(1);
        set.unlock(h);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_FALSE(overlap.load());
}

TEST(CorbaService, TryLockSucceedsLocallyFailsRemotely) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);  // node 0 starts as root
  LockSet b = f.services[1]->lock_set(kTable);

  // Node 0 holds the token: a local try_lock must succeed.
  const auto ha = a.try_lock(LockMode::kWrite);
  ASSERT_TRUE(ha.has_value());
  // Node 1 owns nothing: try_lock cannot succeed without messages.
  const auto hb = b.try_lock(LockMode::kRead);
  EXPECT_FALSE(hb.has_value());
  a.unlock(*ha);
}

TEST(CorbaService, UpgradeChangesUToW) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);
  const LockHandle h = a.lock(LockMode::kUpgrade);
  EXPECT_EQ(h.mode, Mode::kU);
  const LockHandle w = a.change_mode(h, LockMode::kWrite);
  EXPECT_EQ(w.mode, Mode::kW);
  a.unlock(w);
}

TEST(CorbaService, UpgradeWaitsForReadersToDrain) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);
  LockSet b = f.services[1]->lock_set(kTable);

  const LockHandle hu = a.lock(LockMode::kUpgrade);
  const LockHandle hr = b.lock(LockMode::kRead);  // R is compatible with U

  std::atomic<bool> upgraded{false};
  std::thread up([&] {
    const LockHandle hw = a.change_mode(hu, LockMode::kWrite);
    upgraded.store(true);
    a.unlock(hw);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_FALSE(upgraded.load());  // blocked on the reader
  b.unlock(hr);
  up.join();
  EXPECT_TRUE(upgraded.load());
}

TEST(CorbaService, DowngradeIsImmediate) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);
  const LockHandle hw = a.lock(LockMode::kWrite);
  const LockHandle hr = a.change_mode(hw, LockMode::kRead);
  EXPECT_EQ(hr.mode, Mode::kR);

  // A remote reader can now share.
  LockSet b = f.services[1]->lock_set(kTable);
  const LockHandle hb = b.lock(LockMode::kRead);
  b.unlock(hb);
  a.unlock(hr);
}

TEST(CorbaService, UnsafeModeChangeIsRejected) {
  Fixture f(1);
  LockSet a = f.services[0]->lock_set(kTable);
  const LockHandle hu = a.lock(LockMode::kUpgrade);
  // U -> IW would invalidate concurrent readers; must be refused.
  EXPECT_THROW(a.change_mode(hu, LockMode::kIntentionWrite), std::logic_error);
  a.unlock(hu);
}

TEST(CorbaService, DropLocksReleasesEverything) {
  Fixture f(2);
  LockSet a = f.services[0]->lock_set(kTable);
  (void)a.lock(LockMode::kIntentionRead);
  (void)a.lock(LockMode::kIntentionRead);
  f.services[0]->drop_locks(kTable);

  // A remote writer can now proceed (nothing is still held).
  LockSet b = f.services[1]->lock_set(kTable);
  const LockHandle hb = b.lock(LockMode::kWrite);
  b.unlock(hb);
}

TEST(CorbaService, IntentThenLeafHierarchy) {
  // Two lock sets: table + one entry, exercised the way the paper's
  // workload uses them (intent on the table, leaf mode on the entry).
  net::InProcessCluster cluster(2);
  std::vector<std::unique_ptr<ConcurrencyService>> services;
  for (std::size_t i = 0; i < 2; ++i) {
    services.push_back(std::make_unique<ConcurrencyService>(cluster.node(i)));
    services.back()->create_lock_set(LockId{0}, NodeId{0});
    services.back()->create_lock_set(LockId{1}, NodeId{1});
  }
  LockSet table0 = services[0]->lock_set(LockId{0});
  LockSet entry0 = services[0]->lock_set(LockId{1});
  LockSet table1 = services[1]->lock_set(LockId{0});

  const LockHandle it0 = table0.lock(LockMode::kIntentionWrite);
  const LockHandle le0 = entry0.lock(LockMode::kWrite);
  // Concurrent intent write on the table from the other node is allowed.
  const LockHandle it1 = table1.lock(LockMode::kIntentionWrite);
  table1.unlock(it1);
  entry0.unlock(le0);
  table0.unlock(it0);
}

TEST(CorbaService, DepartureOverTcpIsAViewChange) {
  Fixture f(3);
  LockSet a = f.services[0]->lock_set(kTable);
  LockSet b = f.services[1]->lock_set(kTable);
  LockSet c = f.services[2]->lock_set(kTable);

  // Give everyone some history so the tree is non-trivial; node 1 keeps a
  // hold across the first departure.
  const auto ha = a.lock(LockMode::kRead);
  const auto hb = b.lock(LockMode::kRead);
  a.unlock(ha);

  // Node 0 (the initial root) leaves: it holds nothing and waits for
  // nothing, so the survivors move to view 1 without it, the new root
  // (node 1, the lowest survivor) first.
  const std::set<NodeId> v1{NodeId{1}, NodeId{2}};
  f.services[1]->recover(kTable, 1, NodeId{1}, v1);
  f.services[2]->recover(kTable, 1, NodeId{1}, v1);
  // Node 1's R survived the view change and still excludes a writer.
  EXPECT_FALSE(c.try_lock_for(LockMode::kWrite, msec(50)).has_value());
  b.unlock(hb);
  const auto hc = c.lock(LockMode::kWrite);  // cluster still fully works
  c.unlock(hc);

  // Node 1 leaves too; node 2 is alone in view 2.
  f.services[2]->recover(kTable, 2, NodeId{2}, {NodeId{2}});
  const auto hc2 = c.lock(LockMode::kUpgrade);
  const auto hw = c.change_mode(hc2, LockMode::kWrite);
  c.unlock(hw);
}

TEST(CorbaService, GrantWakesTheRequestThatAskedAcrossLockSets) {
  // Request ids are only unique per engine: node 1's first request on
  // lock 0 and its first request on lock 1 carry the same id. The grant
  // for lock 0 must still wake the thread that asked for lock 0.
  net::InProcessCluster cluster(2);
  std::vector<std::unique_ptr<ConcurrencyService>> services;
  for (std::size_t i = 0; i < 2; ++i) {
    services.push_back(std::make_unique<ConcurrencyService>(cluster.node(i)));
    services.back()->create_lock_set(LockId{0}, NodeId{0});
    services.back()->create_lock_set(LockId{1}, NodeId{0});
  }
  LockSet held0 = services[0]->lock_set(LockId{0});
  LockSet held1 = services[0]->lock_set(LockId{1});
  const LockHandle w0 = held0.lock(LockMode::kWrite);
  const LockHandle w1 = held1.lock(LockMode::kWrite);

  // Every wait is bounded, so a misrouted grant fails instead of hanging.
  std::optional<LockHandle> got_a;
  std::optional<LockHandle> got_b;
  std::string error_a;
  std::string error_b;
  const auto attempt = [&](LockId lock, Duration timeout,
                           std::optional<LockHandle>& got,
                           std::string& error) {
    try {
      got = services[1]->lock_set(lock).try_lock_for(LockMode::kWrite,
                                                      timeout);
    } catch (const std::exception& e) {
      error = e.what();
    }
  };
  std::thread a([&] { attempt(LockId{0}, msec(3000), got_a, error_a); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::thread b([&] { attempt(LockId{1}, msec(1500), got_b, error_b); });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  held0.unlock(w0);  // grants A; node 0 still holds W on lock 1
  a.join();
  b.join();

  EXPECT_EQ(error_a, "");
  EXPECT_EQ(error_b, "");
  ASSERT_TRUE(got_a.has_value());
  EXPECT_EQ(got_a->lock, LockId{0});
  EXPECT_EQ(got_a->mode, Mode::kW);
  EXPECT_FALSE(got_b.has_value()) << "B woke holding lock "
                                  << got_b->lock;

  // B's cancelled request leaves nothing behind: once node 0 lets go,
  // lock 1 changes hands both ways.
  held1.unlock(w1);
  if (got_a) services[1]->lock_set(LockId{0}).unlock(*got_a);
  LockSet mine1 = services[1]->lock_set(LockId{1});
  const auto h1 = mine1.try_lock_for(LockMode::kWrite, msec(5000));
  ASSERT_TRUE(h1.has_value());
  mine1.unlock(*h1);
  const auto back = held1.try_lock_for(LockMode::kWrite, msec(5000));
  ASSERT_TRUE(back.has_value());
  held1.unlock(*back);
}

}  // namespace
}  // namespace hlock::corba
