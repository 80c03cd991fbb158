// Unit tests for the Naimi/Trehel/Arnold baseline: mutual exclusion, path
// reversal, distributed queueing through next pointers.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "naimi/naimi_engine.hpp"
#include "test_util.hpp"

namespace hlock::naimi {
namespace {

struct Net {
  NaimiEngine& add(std::uint32_t i, std::uint32_t root) {
    auto engine = std::make_unique<NaimiEngine>(LockId{0}, NodeId{i},
                                                NodeId{root},
                                                bus.port(NodeId{i}));
    NaimiEngine* raw = engine.get();
    bus.register_handler(NodeId{i},
                         [raw](const Message& m) { raw->handle(m); });
    engines[i] = std::move(engine);
    return *raw;
  }
  NaimiEngine& operator[](std::uint32_t i) { return *engines.at(i); }
  void pump() { bus.deliver_all(); }

  /// request at node `i`, recording the grant in acquired[i].
  RequestId request(std::uint32_t i) {
    return engines.at(i)->request(
        [this, i](RequestId id) { acquired[i].push_back(id); });
  }

  testing::TestBus bus;
  std::map<std::uint32_t, std::unique_ptr<NaimiEngine>> engines;
  std::map<std::uint32_t, std::vector<RequestId>> acquired;
};

TEST(NaimiEngine, RootEntersImmediately) {
  Net net;
  net.add(0, 0);
  const RequestId id = net.request(0);
  // The synchronous grant reports the id request() then returns.
  EXPECT_EQ(net.acquired[0], std::vector<RequestId>{id});
  EXPECT_EQ(net.bus.total_sent(), 0u);
  net[0].release(id);
}

TEST(NaimiEngine, RemoteAcquireMovesToken) {
  Net net;
  net.add(0, 0);
  net.add(1, 0);
  const RequestId r1 = net.request(1);
  net.pump();
  EXPECT_EQ(net.acquired[1], std::vector<RequestId>{r1});
  EXPECT_TRUE(net[1].has_token());
  EXPECT_FALSE(net[0].has_token());
  // Path reversal: node 0's probable owner now points at node 1.
  EXPECT_EQ(net[0].father(), NodeId{1});
  net[1].release(net.acquired[1][0]);
}

TEST(NaimiEngine, WaitersFormDistributedQueue) {
  Net net;
  net.add(0, 0);
  net.add(1, 0);
  net.add(2, 0);
  const RequestId r0 = net.request(0);  // root holds CS
  (void)net.request(1);
  net.pump();
  EXPECT_EQ(net[0].next(), NodeId{1});  // 1 queued behind the holder
  (void)net.request(2);
  net.pump();
  EXPECT_EQ(net[1].next(), NodeId{2});  // 2 queued behind 1
  EXPECT_TRUE(net.acquired[1].empty());
  net[0].release(r0);
  net.pump();
  ASSERT_EQ(net.acquired[1].size(), 1u);
  EXPECT_TRUE(net.acquired[2].empty());
  net[1].release(net.acquired[1][0]);
  net.pump();
  ASSERT_EQ(net.acquired[2].size(), 1u);
  net[2].release(net.acquired[2][0]);
}

TEST(NaimiEngine, MutualExclusionOverManyRounds) {
  Net net;
  constexpr std::uint32_t kNodes = 8;
  for (std::uint32_t i = 0; i < kNodes; ++i) net.add(i, 0);

  int in_cs = 0;
  bool overlap = false;
  std::vector<std::pair<std::uint32_t, RequestId>> to_release;

  for (int round = 0; round < 20; ++round) {
    for (std::uint32_t i = 0; i < kNodes; ++i) {
      (void)net.request(i);
    }
    // Drain: each node releases as soon as it acquires.
    std::size_t served = 0;
    while (served < kNodes) {
      for (std::uint32_t i = 0; i < kNodes; ++i) {
        auto& log = net.acquired[i];
        if (!log.empty()) {
          ++in_cs;
          if (in_cs > 1) overlap = true;
          --in_cs;
          net[i].release(log.front());
          log.clear();
          ++served;
        }
      }
      if (served < kNodes && !net.bus.deliver_one()) {
        // No progress possible: fail loudly.
        FAIL() << "protocol stuck with " << served << "/" << kNodes;
      }
    }
    net.pump();
  }
  EXPECT_FALSE(overlap);
}

TEST(NaimiEngine, BacklogServesLocalRequestsInOrder) {
  Net net;
  net.add(0, 0);
  const RequestId a = net.request(0);
  const RequestId b = net.request(0);  // backlog
  EXPECT_EQ(net[0].backlog_size(), 1u);
  EXPECT_EQ(net.acquired[0].size(), 1u);
  net[0].release(a);
  ASSERT_EQ(net.acquired[0].size(), 2u);
  EXPECT_EQ(net.acquired[0][1], b);
  net[0].release(b);
}

TEST(NaimiEngine, ApiMisuseThrows) {
  Net net;
  net.add(0, 0);
  const RequestId id = net.request(0);
  net[0].release(id);
  EXPECT_THROW(net[0].release(id), std::logic_error);
  Message wrong;
  wrong.lock = LockId{3};
  EXPECT_THROW(net[0].handle(wrong), std::logic_error);
}

TEST(NaimiEngine, TokenPassesDirectlyWhenIdle) {
  Net net;
  net.add(0, 0);
  net.add(1, 0);
  net.add(2, 0);
  // 1 acquires and releases; then 2 requests — the request is forwarded
  // along probable owners to 1, which passes the token directly.
  (void)net.request(1);
  net.pump();
  net[1].release(net.acquired[1][0]);
  (void)net.request(2);
  net.pump();
  EXPECT_EQ(net.acquired[2].size(), 1u);
  EXPECT_TRUE(net[2].has_token());
  net[2].release(net.acquired[2][0]);
}

TEST(NaimiEngine, EachGrantReachesItsOwnContinuationExactlyOnce) {
  // Node 1 has a remote request in flight and one backlogged behind it:
  // each grant reaches the continuation of the request that asked, once.
  Net net;
  net.add(0, 0);
  net.add(1, 0);
  std::vector<std::pair<int, RequestId>> fired;
  const auto request = [&](int tag) {
    return net[1].request(
        [&fired, tag](RequestId id) { fired.emplace_back(tag, id); });
  };
  const RequestId first = request(0);
  const RequestId second = request(1);
  EXPECT_TRUE(fired.empty());
  net.pump();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(0, first));
  net[1].release(first);  // the backlog enters at once: 1 holds the token
  net.pump();
  const std::vector<std::pair<int, RequestId>> want{{0, first},
                                                    {1, second}};
  EXPECT_EQ(fired, want);
  net[1].release(second);
}

}  // namespace
}  // namespace hlock::naimi
