// Interleaving fuzzer: random application ops against random cross-channel
// message interleavings (per-channel FIFO preserved, everything else
// adversarial). After every delivered message the global mutual-exclusion
// invariant is checked; at the end the system must quiesce with every
// issued request granted exactly once.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

struct FuzzParams {
  std::size_t nodes;
  std::uint64_t seed;
  int steps;
  bool priorities;
};

class EngineFuzz : public ::testing::TestWithParam<FuzzParams> {};

TEST_P(EngineFuzz, MutualExclusionUnderRandomInterleavings) {
  const FuzzParams p = GetParam();
  Rng rng(p.seed);

  testing::TestBus bus;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  // Per node: live holds and their modes (mirrors of the grants).
  std::vector<std::map<RequestId, Mode>> held(p.nodes);
  std::vector<std::set<RequestId>> upgradeable(p.nodes);
  // Node i asked for a U it means to upgrade (half of its U requests): it
  // asks for nothing more until that U is upgraded or released, so it has
  // nothing outstanding when it upgrades. Its other U holds live alongside
  // later requests of its own.
  std::vector<bool> will_upgrade(p.nodes, false);
  std::uint64_t issued = 0, granted = 0, upgrades_done = 0;

  EngineOptions opts;
  opts.enable_priorities = p.priorities;
  // Continuations for node i's requests and upgrades. A grant must
  // reach its request exactly once, so it never finds its id held.
  const auto on_granted = [&](std::size_t i) {
    return [&, i](RequestId rid, Mode mode) {
      EXPECT_EQ(held[i].count(rid), 0u) << "grant fired twice";
      held[i][rid] = mode;
      if (mode == Mode::kU) upgradeable[i].insert(rid);
      ++granted;
    };
  };
  // An upgrade completes on a hold that is still held: unlock() refuses
  // a hold whose upgrade is outstanding.
  const auto on_upgraded = [&](std::size_t i) {
    return [&, i](RequestId rid, Mode mode) {
      const auto it = held[i].find(rid);
      ASSERT_NE(it, held[i].end()) << "upgrade of a released hold";
      it->second = mode;
      ++upgrades_done;
    };
  };
  for (std::size_t i = 0; i < p.nodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(std::make_unique<HlsEngine>(LockId{0}, id, NodeId{0},
                                                  bus.port(id), opts));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [raw](const Message& m) { raw->handle(m); });
  }

  auto check_mutex = [&] {
    for (std::size_t a = 0; a < p.nodes; ++a) {
      for (const auto& [ra, ma] : held[a]) {
        for (std::size_t b = 0; b < p.nodes; ++b) {
          for (const auto& [rb, mb] : held[b]) {
            if (a == b && ra == rb) continue;
            ASSERT_TRUE(compatible(ma, mb))
                << "incompatible " << ma << "@" << a << " and " << mb << "@"
                << b << " seed " << p.seed;
          }
        }
      }
    }
  };

  for (int step = 0; step < p.steps; ++step) {
    const std::size_t i = rng.next_below(p.nodes);
    const double dice = rng.next_double();
    if (dice < 0.40) {
      // Issue a new request (bounded outstanding per node).
      if (engines[i]->backlog_size() < 3 && !will_upgrade[i]) {
        const Mode mode = kRealModes[rng.next_below(5)];
        const auto prio = static_cast<std::uint8_t>(rng.next_below(4));
        (void)engines[i]->request_lock(mode, on_granted(i), prio);
        will_upgrade[i] = mode == Mode::kU && rng.next_below(2) == 0;
        ++issued;
      }
    } else if (dice < 0.65) {
      // Release a random hold (not one with an upgrade pending).
      if (!held[i].empty()) {
        auto it = held[i].begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(held[i].size())));
        const RequestId rid = it->first;
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
          if (upgradeable[i].erase(rid) != 0) will_upgrade[i] = false;
        } catch (const std::logic_error&) {
          // Upgrade in flight on this hold; fine.
        }
      }
    } else if (dice < 0.72) {
      // Upgrade a held U, only while the node has nothing outstanding (as
      // under SessionMux's upgrade gate): from upgrade() on the U stays
      // held, so an upgrade queued behind a request that the U blocks
      // would deadlock the node. The node may ask for more afterwards.
      if (!upgradeable[i].empty() && !engines[i]->has_pending() &&
          engines[i]->backlog_size() == 0) {
        const RequestId rid = *upgradeable[i].begin();
        upgradeable[i].erase(rid);
        will_upgrade[i] = false;
        engines[i]->upgrade(rid, on_upgraded(i));
      }
    } else {
      // Deliver 0-3 messages in random channel order.
      const std::size_t count = rng.next_below(4);
      for (std::size_t k = 0; k < count; ++k) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }

  // Drain: release everything, finish all deliveries, repeatedly — a
  // request may be granted only after other nodes release.
  for (int round = 0; round < 10000; ++round) {
    bool progress = false;
    while (bus.deliver_random(rng)) {
      check_mutex();
      progress = true;
    }
    for (std::size_t i = 0; i < p.nodes; ++i) {
      std::vector<RequestId> rids;
      for (const auto& [rid, mode] : held[i]) rids.push_back(rid);
      for (const RequestId rid : rids) {
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
          upgradeable[i].erase(rid);
          progress = true;
        } catch (const std::logic_error&) {
        }
      }
    }
    bool quiet = bus.pending() == 0;
    for (std::size_t i = 0; i < p.nodes && quiet; ++i) {
      quiet = held[i].empty() && !engines[i]->has_pending() &&
              engines[i]->backlog_size() == 0;
    }
    if (quiet) break;
    if (!progress && bus.pending() == 0) break;
  }

  // Liveness: every issued request was eventually granted (upgrades keep
  // their original id, so they don't add to `granted`).
  EXPECT_EQ(granted, issued) << "seed " << p.seed;
  // Exactly one token at the end.
  std::size_t tokens = 0;
  for (const auto& e : engines) tokens += e->is_token_node() ? 1 : 0;
  EXPECT_EQ(tokens, 1u);
  for (std::size_t i = 0; i < p.nodes; ++i) {
    EXPECT_TRUE(engines[i]->queue().empty()) << "node " << i;
    EXPECT_TRUE(engines[i]->children().empty()) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Fuzz with dynamic membership: nodes randomly decide to leave mid-run,
// drain (issue nothing more, release their holds) and then depart, each
// departure a view change among the remaining nodes.
// ---------------------------------------------------------------------------

class MembershipFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MembershipFuzz, LeavesDuringTrafficStaySafeAndLive) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kNodes = 6;

  testing::TestBus bus;
  std::vector<std::unique_ptr<HlsEngine>> engines;
  std::vector<std::map<RequestId, Mode>> held(kNodes);
  std::vector<bool> gone(kNodes, false);
  std::vector<bool> leaving(kNodes, false);
  std::uint64_t issued = 0, granted = 0;
  std::uint32_t view = 0;
  int departures = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(std::make_unique<HlsEngine>(LockId{0}, id, NodeId{0},
                                                  bus.port(id)));
    HlsEngine* raw = engines.back().get();
    bus.register_handler(id, [&, i, raw](const Message& m) {
      if (!gone[i]) raw->handle(m);
    });
  }

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
  auto live_count = [&] {
    std::size_t n = 0;
    for (std::size_t i = 0; i < kNodes; ++i) n += gone[i] ? 0 : 1;
    return n;
  };

  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (gone[i]) continue;
    if (leaving[i] && held[i].empty() && !engines[i]->has_pending() &&
        engines[i]->backlog_size() == 0 && live_count() > 2) {
      // Drained: every remaining node moves to the next view.
      gone[i] = true;
      ++departures;
      testing::view_change(engines, gone, ++view);
      continue;
    }
    if (dice < 0.35) {
      if (!leaving[i] && engines[i]->backlog_size() < 2) {
        (void)engines[i]->request_lock(
            kRealModes[rng.next_below(5)], [&, i](RequestId rid, Mode mode) {
              held[i][rid] = mode;
              ++granted;
            });
        ++issued;
      }
    } else if (dice < 0.60) {
      if (!held[i].empty()) {
        const RequestId rid = held[i].begin()->first;
        try {
          engines[i]->unlock(rid);
          held[i].erase(rid);
        } catch (const std::logic_error&) {
        }
      }
    } else if (dice < 0.66) {
      leaving[i] = true;
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_mutex();
      }
    }
  }
  EXPECT_GT(departures, 0) << "seed " << seed;

  // Drain.
  for (int round = 0; round < 10000; ++round) {
    while (bus.deliver_random(rng)) check_mutex();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (gone[i]) continue;
      std::vector<RequestId> rids;
      for (const auto& [rid, mode] : held[i]) rids.push_back(rid);
      for (const RequestId rid : rids) {
        engines[i]->unlock(rid);
        held[i].erase(rid);
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

  EXPECT_EQ(granted, issued) << "seed " << seed;
  std::size_t tokens = 0;
  for (std::size_t i = 0; i < kNodes; ++i) {
    if (!gone[i] && engines[i]->is_token_node()) ++tokens;
  }
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MembershipFuzz,
                         ::testing::Range<std::uint64_t>(1, 25));

std::vector<FuzzParams> fuzz_params() {
  std::vector<FuzzParams> out;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({4, seed, 800, false});
  }
  for (std::uint64_t seed = 21; seed <= 30; ++seed) {
    out.push_back({8, seed, 1200, false});
  }
  for (std::uint64_t seed = 31; seed <= 36; ++seed) {
    out.push_back({5, seed, 800, true});  // with priority arbitration
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzz,
                         ::testing::ValuesIn(fuzz_params()),
                         [](const auto& pinfo) {
                           return "n" + std::to_string(pinfo.param.nodes) +
                                  "_s" + std::to_string(pinfo.param.seed) +
                                  (pinfo.param.priorities ? "_prio" : "");
                         });

}  // namespace
}  // namespace hlock::core
