// Interleaving fuzzer for the Naimi baseline: random requests/releases
// against random channel interleavings; exactly one node in the critical
// section at any delivered point; all requests eventually served.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "naimi/naimi_engine.hpp"
#include "test_util.hpp"

namespace hlock::naimi {
namespace {

class NaimiFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NaimiFuzz, SingleHolderUnderRandomInterleavings) {
  const std::uint64_t seed = GetParam();
  Rng rng(seed);
  constexpr std::size_t kNodes = 6;

  testing::TestBus bus;
  std::vector<std::unique_ptr<NaimiEngine>> engines;
  std::vector<std::optional<RequestId>> in_cs(kNodes);
  std::uint64_t issued = 0, granted = 0;

  for (std::size_t i = 0; i < kNodes; ++i) {
    const NodeId id{static_cast<std::uint32_t>(i)};
    engines.push_back(std::make_unique<NaimiEngine>(LockId{0}, id, NodeId{0},
                                                    bus.port(id)));
    NaimiEngine* raw = engines.back().get();
    bus.register_handler(id, [raw](const Message& m) { raw->handle(m); });
  }

  auto check_single_holder = [&] {
    int holders = 0;
    for (const auto& cs : in_cs) holders += cs.has_value() ? 1 : 0;
    ASSERT_LE(holders, 1) << "seed " << seed;
  };

  for (int step = 0; step < 2000; ++step) {
    const std::size_t i = rng.next_below(kNodes);
    const double dice = rng.next_double();
    if (dice < 0.40) {
      if (engines[i]->backlog_size() < 3) {
        (void)engines[i]->request([&, i](RequestId rid) {
          in_cs[i] = rid;
          ++granted;
        });
        ++issued;
      }
    } else if (dice < 0.65) {
      if (in_cs[i]) {
        // Reset BEFORE releasing: release() pumps the backlog and may
        // synchronously enter the next critical section (which re-sets
        // the slot); wiping afterwards would lose that hold.
        const RequestId rid = *in_cs[i];
        in_cs[i].reset();
        engines[i]->release(rid);
      }
    } else {
      for (std::size_t k = rng.next_below(4); k-- > 0;) {
        if (!bus.deliver_random(rng)) break;
        check_single_holder();
      }
    }
  }

  // Drain.
  for (int round = 0; round < 20000; ++round) {
    while (bus.deliver_random(rng)) check_single_holder();
    bool any = false;
    for (std::size_t i = 0; i < kNodes; ++i) {
      if (in_cs[i]) {
        const RequestId rid = *in_cs[i];
        in_cs[i].reset();
        engines[i]->release(rid);
        any = true;
      }
    }
    bool quiet = bus.pending() == 0 && !any;
    for (std::size_t i = 0; i < kNodes && quiet; ++i) {
      quiet = !in_cs[i] && engines[i]->backlog_size() == 0 &&
              !engines[i]->requesting();
    }
    if (quiet) break;
  }

  EXPECT_EQ(granted, issued) << "seed " << seed;
  std::size_t tokens = 0;
  for (const auto& e : engines) tokens += e->has_token() ? 1 : 0;
  EXPECT_EQ(tokens, 1u) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, NaimiFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace hlock::naimi
