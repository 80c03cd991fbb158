// Request-cancellation tests: backlog removal, in-flight absorption, and
// interaction with queue service and other waiters.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

struct Net {
  HlsEngine& add(char name, char root) {
    auto engine = std::make_unique<HlsEngine>(LockId{0}, id_of(name),
                                              id_of(root),
                                              bus.port(id_of(name)));
    HlsEngine* raw = engine.get();
    bus.register_handler(id_of(name),
                         [raw](const Message& m) { raw->handle(m); });
    engines[name] = std::move(engine);
    return *raw;
  }
  HlsEngine& operator[](char c) { return *engines.at(c); }
  void pump() { bus.deliver_all(); }

  /// request_lock at `name`, recording the grant in acquired[name].
  RequestId request(char name, Mode mode) {
    return engines.at(name)->request_lock(
        mode, [this, name](RequestId id, Mode granted) {
          acquired[name].emplace_back(id, granted);
        });
  }
  /// upgrade at `name`, recording the completion in upgraded[name].
  void upgrade(char name, RequestId id) {
    engines.at(name)->upgrade(id, [this, name](RequestId done, Mode mode) {
      EXPECT_EQ(mode, Mode::kW);
      upgraded[name].push_back(done);
    });
  }

  testing::TestBus bus;
  std::map<char, std::unique_ptr<HlsEngine>> engines;
  std::map<char, std::vector<std::pair<RequestId, Mode>>> acquired;
  std::map<char, std::vector<RequestId>> upgraded;
};

TEST(Cancel, BacklogEntryIsRemoved) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net.request('B', Mode::kW);  // pending
  const RequestId second = net.request('B', Mode::kR);  // backlog
  EXPECT_EQ(net['B'].backlog_size(), 1u);
  EXPECT_TRUE(net['B'].cancel(second));
  EXPECT_EQ(net['B'].backlog_size(), 0u);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);  // only the W came through
  EXPECT_EQ(net.acquired['B'][0].second, Mode::kW);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
}

TEST(Cancel, InFlightGrantIsAbsorbedSilently) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId rid = net.request('B', Mode::kR);
  EXPECT_TRUE(net['B'].cancel(rid));  // request already on the wire
  net.pump();                          // grant arrives, absorbed
  EXPECT_TRUE(net.acquired['B'].empty());
  EXPECT_TRUE(net['B'].holds().empty());
  EXPECT_FALSE(net['B'].has_pending());
  // The lock is fully available again for everyone (the token moved to B
  // with the absorbed grant, so A's W travels there).
  (void)net.request('A', Mode::kW);
  net.pump();
  ASSERT_EQ(net.acquired['A'].size(), 1u);
  net['A'].unlock(net.acquired['A'][0].first);
  net.pump();
}

TEST(Cancel, CancelledQueuedWriterUnblocksNobodyButGetsAbsorbed) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId ra = net.request('A', Mode::kR);
  const RequestId wb = net.request('B', Mode::kW);  // queued at A
  net.pump();
  (void)net.request('C', Mode::kR);  // frozen behind the W
  net.pump();
  EXPECT_TRUE(net.acquired['C'].empty());
  EXPECT_TRUE(net['B'].cancel(wb));
  // Release A's R: the cancelled W is served first (token moves to B,
  // where the grant is absorbed and instantly released), then C's R.
  net['A'].unlock(ra);
  net.pump();
  EXPECT_TRUE(net.acquired['B'].empty());
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
}

TEST(Cancel, GrantedRequestReturnsFalse) {
  Net net;
  net.add('A', 'A');
  const RequestId rid = net.request('A', Mode::kR);
  EXPECT_FALSE(net['A'].cancel(rid));  // already granted: caller unlocks
  net['A'].unlock(rid);
}

TEST(Cancel, UnknownOrReleasedThrows) {
  Net net;
  net.add('A', 'A');
  const RequestId rid = net.request('A', Mode::kR);
  net['A'].unlock(rid);
  EXPECT_THROW((void)net['A'].cancel(rid), std::logic_error);
}

TEST(Cancel, UpgradeCannotBeCancelled) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ua = net.request('A', Mode::kU);
  (void)net.request('B', Mode::kR);  // keeps the upgrade blocked
  net.pump();
  net.upgrade('A', ua);
  EXPECT_THROW((void)net['A'].cancel(ua), std::logic_error);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  // The upgrade completed through its own continuation; the U request's
  // continuation fired once, at the original grant.
  EXPECT_EQ(net.upgraded['A'], std::vector<RequestId>{ua});
  ASSERT_EQ(net.acquired['A'].size(), 1u);
  EXPECT_EQ(net.acquired['A'][0], std::make_pair(ua, Mode::kU));
  net['A'].unlock(ua);
  net.pump();
}

TEST(Cancel, SelfQueuedAtTokenNodeIsAbsorbed) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId rb = net.request('B', Mode::kIW);
  net.pump();  // B took the token with IW
  // A requests R -> incompatible with B's IW... A is non-token now; make
  // the TOKEN node self-queue: B requests R while holding IW (own modes
  // incompatible) -> self-queued.
  const RequestId rb2 = net.request('B', Mode::kR);
  EXPECT_TRUE(net['B'].has_pending());
  EXPECT_TRUE(net['B'].cancel(rb2));
  net['B'].unlock(rb);  // queue served: cancelled entry absorbed
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);  // only the IW was reported
  EXPECT_TRUE(net['B'].holds().empty());
  EXPECT_FALSE(net['B'].has_pending());
}

TEST(Cancel, CancelDropsTheContinuationUnfired) {
  // The continuation owns a token; its expiry proves cancel() destroyed
  // the continuation, and `fired` that it never ran — for a request in
  // the backlog and for one whose grant is still in flight.
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  int fired = 0;
  const auto request = [&](Mode mode, std::weak_ptr<int>& watch) {
    auto token = std::make_shared<int>(0);
    watch = token;
    return net['B'].request_lock(
        mode, [&fired, token](RequestId, Mode) { ++fired; });
  };
  std::weak_ptr<int> in_flight;
  std::weak_ptr<int> backlogged;
  const RequestId w = request(Mode::kW, in_flight);    // pending
  const RequestId r = request(Mode::kR, backlogged);   // backlog
  EXPECT_FALSE(in_flight.expired());
  EXPECT_FALSE(backlogged.expired());
  EXPECT_TRUE(net['B'].cancel(r));
  EXPECT_TRUE(backlogged.expired());
  EXPECT_TRUE(net['B'].cancel(w));
  EXPECT_TRUE(in_flight.expired());
  net.pump();  // the W grant arrives and is absorbed
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(net['B'].holds().empty());
  EXPECT_FALSE(net['B'].has_pending());
}

}  // namespace
}  // namespace hlock::core
