// Recovery fuzzer: random traffic, random interleavings, and repeated
// random crashes each followed by a view change. Invariants: never two
// incompatible holds among LIVE nodes; exactly one token at quiescence;
// every request issued by a SURVIVING node is eventually granted or was
// issued by a node that later crashed.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

class RecoveryFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RecoveryFuzz, RepeatedCrashesStaySafeAndLive) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kNodes = 6;

  testing::TestBus bus;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> crashed(kNodes, false);
  std::uint32_t view = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(std::make_unique<HlsEngine>(LockId{0}, id, NodeId{0},
                                                  bus.port(id)));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [&, i, raw](const Message& m) {
      if (!crashed[i]) raw->handle(m);
    });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < kNodes; ++a) {
      if (crashed[a]) continue;
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          if (crashed[b]) continue;
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb)) << "seed " << seed;
          }
        }
      }
    }
  };
  auto live_count = [&] {
    std::size_t n = 0;
    for (const bool c : crashed) n += c ? 0 : 1;
    return n;
  };

  for (int step = 0; step < 1200; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (crashed[i]) continue;
    if (dice < 0.35) {
      if (engines[i]->backlog_size() < 2) {
        (void)engines[i]->request_lock(
            kRealModes[rng.next_below(5)],
            [&, i](RequestId rid, Mode mode) { held[i][rid] = mode; });
      }
    } else if (dice < 0.60) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
      }
    } else if (dice < 0.63 && live_count() > 2) {
      // CRASH node i, then the view service recovers everyone else.
      crashed[i] = true;
      held[i].clear();
      testing::view_change(engines, crashed, ++view);
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 20000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (crashed[i]) continue;
      while (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      if (crashed[i]) continue;
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
  }

  // Liveness among survivors: nobody is left waiting.
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (crashed[i]) continue;
    EXPECT_FALSE(engines[i]->has_pending()) << "node " << i << " seed "
                                            << seed;
    EXPECT_EQ(engines[i]->backlog_size(), 0u) << "node " << i;
  }
  // Exactly one token among the living.
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!crashed[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RecoveryFuzz,
                         ::testing::Range<std::uint64_t>(1, 31));

// ---------------------------------------------------------------------------
// Mixed churn: departures AND crashes in the same run, each a view change.
// ---------------------------------------------------------------------------

class MixedChurnFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MixedChurnFuzz, LeavesAndCrashesTogether) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed ^ 0xc0ffee);
  constexpr std::size_t kNodes = 7;

  testing::TestBus bus;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> gone(kNodes, false);  // crashed or left
  std::vector<bool> leaving(kNodes, false);  // draining, then departs
  std::uint32_t view = 0;
  int departures = 0, crashes = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(std::make_unique<HlsEngine>(LockId{0}, id, NodeId{0},
                                                  bus.port(id)));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [&, i, raw](const Message& m) {
      if (!gone[i]) raw->handle(m);
    });
  }
  // Node i is gone: every remaining node moves to the next view.
  auto view_change_without = [&](std::size_t i) {
    gone[i] = true;
    held[i].clear();
    testing::view_change(engines, gone, ++view);
  };

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < kNodes; ++a) {
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < kNodes; ++b) {
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb)) << "seed " << seed;
          }
        }
      }
    }
  };

  // At most two departures and two crashes: three of the seven nodes
  // always remain.
  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (gone[i]) continue;
    if (leaving[i] && held[i].empty() && !engines[i]->has_pending() &&
        engines[i]->backlog_size() == 0 && departures < 2) {
      view_change_without(i);  // drained: depart
      ++departures;
      continue;
    }
    if (dice < 0.35) {
      if (!leaving[i] && engines[i]->backlog_size() < 2) {
        (void)engines[i]->request_lock(
            kRealModes[rng.next_below(5)],
            [&, i](RequestId rid, Mode mode) { held[i][rid] = mode; });
      }
    } else if (dice < 0.58) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
      }
    } else if (dice < 0.61) {
      leaving[i] = true;  // issue nothing more; depart once drained
    } else if (dice < 0.63 && crashes < 2) {
      view_change_without(i);  // crash
      ++crashes;
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 20000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (gone[i]) continue;
      while (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        held[i].erase(rid);
        engines[i]->unlock(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      if (gone[i]) continue;
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
  }

  EXPECT_GT(departures, 0) << "seed " << seed;
  EXPECT_GT(crashes, 0) << "seed " << seed;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (gone[i]) continue;
    EXPECT_FALSE(engines[i]->has_pending()) << "node " << i << " seed "
                                            << seed;
  }
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!gone[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedChurnFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hlock::core
