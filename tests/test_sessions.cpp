// Client state-machine tests over the simulator: SessionMux (the HLS
// client, one session or many per node, two-level ops or plans of any
// depth) and NaimiSession (the baselines). Each op kind drives the right
// lock sequence with the right modes, the stats are accurate, and the
// mux's routing and upgrade gate hold under deterministic schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/invariants.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/session_mux.hpp"
#include "workload/generator.hpp"

namespace hlock::harness {
namespace {

using lockmgr::Op;
using lockmgr::OpKind;
using lockmgr::OpStats;
using lockmgr::SessionMux;

/// Run one specific op on node `who` of a small HLS cluster and return its
/// stats; the cluster's generators are bypassed.
OpStats run_single_op(Op op, std::size_t nodes = 3, std::size_t who = 1) {
  ClusterConfig config;
  config.nodes = nodes;
  config.spec.ops_per_node = 0;  // no generated traffic
  HlsCluster cluster(config);
  install_safety_probe(cluster);

  OpStats result;
  bool done = false;
  SimExecutor exec(cluster.simulator());
  SessionMux mux(cluster.node(who), cluster.layout(), exec, 1);
  cluster.simulator().schedule_at(0, [&] {
    mux.start(0, op, [&](const OpStats& stats) {
      result = stats;
      done = true;
    });
  });
  cluster.simulator().run_all();
  EXPECT_TRUE(done);
  EXPECT_EQ(check_quiescent(cluster), "");
  return result;
}

TEST(SessionMux, TableReadIsOneLockRequest) {
  Op op;
  op.kind = OpKind::kTableRead;
  op.cs = msec(5);
  const auto stats = run_single_op(op);
  EXPECT_EQ(stats.lock_requests, 1u);
  EXPECT_GT(stats.acquire_latency, 0);
}

TEST(SessionMux, EntryOpsTakeIntentPlusLeaf) {
  for (const auto kind : {OpKind::kEntryRead, OpKind::kEntryWrite}) {
    Op op;
    op.kind = kind;
    op.entry = 2;
    op.cs = msec(5);
    const auto stats = run_single_op(op);
    EXPECT_EQ(stats.lock_requests, 2u) << to_string(kind);
  }
}

TEST(SessionMux, UpgradeOpCompletesBothPhases) {
  Op op;
  op.kind = OpKind::kTableUpgrade;
  op.cs = msec(10);
  const auto stats = run_single_op(op);
  EXPECT_EQ(stats.lock_requests, 1u);
}

TEST(SessionMux, RejectsConcurrentOps) {
  ClusterConfig config;
  config.nodes = 1;
  config.spec.ops_per_node = 0;
  HlsCluster cluster(config);
  SimExecutor exec(cluster.simulator());
  SessionMux mux(cluster.node(0), cluster.layout(), exec, 1);
  Op op;
  op.kind = OpKind::kTableRead;
  op.cs = msec(5);
  cluster.simulator().schedule_at(0, [&] {
    mux.start(0, op, [](const OpStats&) {});
    EXPECT_THROW(mux.start(0, op, [](const OpStats&) {}), std::logic_error);
  });
  cluster.simulator().run_all();
}

// --- many sessions on one node -------------------------------------------

/// An HLS cluster without generated traffic, probed for safety after every
/// event, with an N-session mux on one node.
struct MuxFixture {
  MuxFixture(std::size_t nodes, std::size_t who, std::uint32_t sessions)
      : cluster(config_for(nodes)),
        exec(cluster.simulator()),
        mux(cluster.node(who), cluster.layout(), exec, sessions) {
    install_safety_probe(cluster);
  }
  static ClusterConfig config_for(std::size_t nodes) {
    ClusterConfig config;
    config.nodes = nodes;
    config.spec.ops_per_node = 0;
    config.spec.entries_per_node = 2;  // node n owns rows 2n and 2n + 1
    return config;
  }
  HlsCluster cluster;
  SimExecutor exec;
  SessionMux mux;
};

TEST(SessionMux, TwoSessionsOnTheTokenNodeAreGrantedSynchronously) {
  // Node 0 holds the table token and the tokens of its own rows, so both
  // sessions' grants fire inside request_lock(), before the request id
  // reaches the mux: each request's own continuation must carry its
  // grant to the session that issued it.
  MuxFixture f(3, 0, 2);
  Op read;
  read.kind = OpKind::kEntryRead;
  read.entry = 0;
  read.cs = msec(5);
  Op write = read;
  write.kind = OpKind::kEntryWrite;
  write.entry = 1;
  std::vector<OpStats> done(2);
  int finished = 0;
  f.cluster.simulator().schedule_at(0, [&] {
    for (std::uint32_t sid = 0; sid < 2; ++sid) {
      f.mux.start(sid, sid == 0 ? read : write, [&, sid](const OpStats& s) {
        done[sid] = s;
        ++finished;
      });
    }
    EXPECT_EQ(f.mux.active(), 2u);
  });
  f.cluster.simulator().run_all();
  ASSERT_EQ(finished, 2);
  EXPECT_EQ(done[0].op.kind, OpKind::kEntryRead);
  EXPECT_EQ(done[1].op.kind, OpKind::kEntryWrite);
  for (const OpStats& s : done) {
    EXPECT_EQ(s.acquire_latency, 0);
    EXPECT_EQ(s.lock_requests, 2u);
  }
  EXPECT_EQ(f.cluster.network().messages_sent(), 0u);
  EXPECT_EQ(f.mux.completed(), 2u);
  EXPECT_EQ(f.mux.active(), 0u);
  EXPECT_EQ(check_quiescent(f.cluster), "");
}

TEST(SessionMux, UpgradeGateSerializesAroundTheUpgradeOp) {
  // Session 0's table read is admitted first; session 1's upgrade op must
  // stay gated until it finishes, and session 2's short entry read,
  // started behind the upgrade, must wait for the upgrade in turn.
  MuxFixture f(3, 1, 3);
  Op ops[3];
  ops[0].kind = OpKind::kTableRead;
  ops[0].cs = msec(100);
  ops[1].kind = OpKind::kTableUpgrade;
  ops[1].cs = msec(100);
  ops[2].kind = OpKind::kEntryRead;
  ops[2].entry = 4;
  ops[2].cs = msec(1);
  std::vector<std::uint32_t> order;
  std::vector<TimePoint> done_at(3, 0);
  std::vector<OpStats> stats(3);
  f.cluster.simulator().schedule_at(0, [&] {
    for (std::uint32_t sid = 0; sid < 3; ++sid) {
      f.mux.start(sid, ops[sid], [&, sid](const OpStats& s) {
        order.push_back(sid);
        done_at[sid] = f.cluster.simulator().now();
        stats[sid] = s;
      });
    }
  });
  f.cluster.simulator().run_all();
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2}));
  // Gated ops count their wait in the gate as acquisition time.
  EXPECT_GE(stats[1].acquire_latency, done_at[0]);
  EXPECT_GE(stats[2].acquire_latency, done_at[1]);
  EXPECT_EQ(f.mux.completed(), 3u);
  EXPECT_EQ(check_quiescent(f.cluster), "");
}

TEST(SessionMux, ManySessionsCompleteThePaperMix) {
  // 3 nodes x 8 sessions, fixed ops per session drawn from the paper's
  // IR/R/U/IW/W = 80/10/4/5/1 % mix (seeded), safety probed after every
  // event: every op completes and the cluster drains quiescent.
  constexpr std::size_t kNodes = 3;
  constexpr std::uint32_t kSessions = 8;
  constexpr std::uint32_t kOpsPerSession = 12;
  ClusterConfig config;
  config.nodes = kNodes;
  config.spec.ops_per_node = 0;
  config.spec.seed = 2024;
  HlsCluster cluster(config);
  install_safety_probe(cluster);
  SimExecutor exec(cluster.simulator());

  struct Client {
    std::unique_ptr<workload::OpGenerator> gen;
    std::uint32_t left{kOpsPerSession};
  };
  std::vector<std::unique_ptr<SessionMux>> muxes;
  std::vector<std::vector<Client>> clients(kNodes);
  Rng master(config.spec.seed);
  for (std::size_t i = 0; i < kNodes; ++i) {
    muxes.push_back(std::make_unique<SessionMux>(
        cluster.node(i), cluster.layout(), exec, kSessions));
    for (std::uint32_t s = 0; s < kSessions; ++s) {
      clients[i].push_back({std::make_unique<workload::OpGenerator>(
          config.spec, static_cast<std::uint32_t>(i), kNodes,
          master.split())});
    }
  }
  std::function<void(std::size_t, std::uint32_t)> next =
      [&](std::size_t i, std::uint32_t s) {
        Client& c = clients[i][s];
        if (c.left == 0) return;
        cluster.simulator().schedule_after(c.gen->next_idle(), [&, i, s] {
          Client& c2 = clients[i][s];
          --c2.left;
          muxes[i]->start(s, c2.gen->next(),
                          [&, i, s](const OpStats&) { next(i, s); });
        });
      };
  for (std::size_t i = 0; i < kNodes; ++i)
    for (std::uint32_t s = 0; s < kSessions; ++s) next(i, s);
  cluster.simulator().run_all();

  for (std::size_t i = 0; i < kNodes; ++i) {
    EXPECT_EQ(muxes[i]->completed(), kSessions * kOpsPerSession) << i;
    EXPECT_EQ(muxes[i]->active(), 0u) << i;
  }
  EXPECT_EQ(check_quiescent(cluster), "");
}

// --- plans of any depth ----------------------------------------------------

lockmgr::Hierarchy three_level() {
  lockmgr::Hierarchy h("db");
  const ResourceId t0 = h.add_child(h.root(), "table0");
  const ResourceId t1 = h.add_child(h.root(), "table1");
  h.add_child(t0, "row0");
  h.add_child(t0, "row1");
  h.add_child(t1, "row2");
  return h;
}

/// Three nodes over a simulated network, every lock of a 3-level
/// hierarchy rooted at node 0, a plan-only mux of `sessions` on each node.
struct PlanFixture {
  explicit PlanFixture(std::uint32_t per_node = 1)
      : net(sim, std::make_unique<sim::UniformLatency>(msec(10)), Rng(4)),
        exec(sim),
        hierarchy(three_level()) {
    for (std::uint32_t i = 0; i < 3; ++i) {
      const NodeId id{i};
      transports.push_back(std::make_unique<sim::SimTransport>(net, id));
      nodes.push_back(
          std::make_unique<core::HlsNode>(id, *transports.back()));
      for (std::uint32_t l = 0; l < hierarchy.resource_count(); ++l) {
        nodes.back()->add_lock(LockId{l}, NodeId{0});
      }
      net.register_node(id, [n = nodes.back().get()](const Message& m) {
        n->handle(m);
      });
    }
    for (auto& n : nodes) {
      sessions.push_back(std::make_unique<SessionMux>(*n, exec, per_node));
    }
  }
  std::vector<lockmgr::PlanStep> plan(std::uint32_t resource, Mode mode) {
    return lock_plan(hierarchy, ResourceId{resource}, mode);
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  SimExecutor exec;
  lockmgr::Hierarchy hierarchy;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  std::vector<std::unique_ptr<core::HlsNode>> nodes;
  std::vector<std::unique_ptr<SessionMux>> sessions;
};

TEST(SessionMux, ExecutesThreeLevelPlan) {
  PlanFixture f;
  bool done = false;
  f.sim.schedule_at(0, [&] {
    f.sessions[1]->run(0, f.plan(3, Mode::kW), msec(5),
                       [&](const OpStats& r) {
                         EXPECT_EQ(r.lock_requests, 3u);
                         EXPECT_GT(r.acquire_latency, 0);
                         done = true;
                       });
  });
  f.sim.run_all();
  EXPECT_TRUE(done);
  // All released.
  for (auto& n : f.nodes) {
    for (std::uint32_t l = 0; l < f.hierarchy.resource_count(); ++l) {
      EXPECT_TRUE(n->engine(LockId{l}).holds().empty());
    }
  }
}

TEST(SessionMux, DisjointRowWritersOverlap) {
  PlanFixture f;
  TimePoint done1 = 0, done2 = 0;
  f.sim.schedule_at(0, [&] {
    f.sessions[1]->run(0, f.plan(3, Mode::kW), msec(200),
                       [&](const OpStats&) { done1 = f.sim.now(); });
  });
  f.sim.schedule_at(0, [&] {
    f.sessions[2]->run(0, f.plan(5, Mode::kW), msec(200),
                       [&](const OpStats&) { done2 = f.sim.now(); });
  });
  f.sim.run_all();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  // Concurrent: the 200 ms critical sections overlapped (IW is
  // compatible with IW at db level; rows are disjoint) — end times
  // within one CS of each other rather than serialized.
  EXPECT_LT(std::max(done1, done2), msec(200) * 2);
}

TEST(SessionMux, SameRowWritersSerialize) {
  PlanFixture f;
  TimePoint done1 = 0, done2 = 0;
  for (const std::size_t who : {std::size_t{1}, std::size_t{2}}) {
    f.sim.schedule_at(0, [&, who] {
      f.sessions[who]->run(0, f.plan(3, Mode::kW), msec(200),
                           [&, who](const OpStats&) {
                             (who == 1 ? done1 : done2) = f.sim.now();
                           });
    });
  }
  f.sim.run_all();
  ASSERT_GT(done1, 0);
  ASSERT_GT(done2, 0);
  EXPECT_GE(std::max(done1, done2), msec(400));  // serialized
}

TEST(SessionMux, RejectsBadUse) {
  PlanFixture f;
  f.sim.schedule_at(0, [&] {
    EXPECT_THROW(f.sessions[0]->run(0, {}, msec(1), nullptr),
                 std::invalid_argument);
    f.sessions[0]->run(0, f.plan(1, Mode::kR), msec(5), nullptr);
    EXPECT_THROW(f.sessions[0]->run(0, f.plan(1, Mode::kR), msec(5), nullptr),
                 std::logic_error);
  });
  f.sim.run_all();
}

TEST(SessionMux, PlanOnlyMuxRejectsOpsAndStrayReleases) {
  PlanFixture f;
  f.sim.schedule_at(0, [&] {
    EXPECT_THROW(f.sessions[1]->start(0, Op{}, nullptr), std::logic_error);
    EXPECT_THROW(f.sessions[1]->release(0), std::logic_error);
    // Not yet fully acquired (the root token is at node 0).
    f.sessions[1]->acquire(0, f.plan(3, Mode::kW), nullptr);
    EXPECT_THROW(f.sessions[1]->release(0), std::logic_error);
  });
  f.sim.run_all();
  EXPECT_TRUE(f.sessions[1]->busy(0));  // acquired and still held
  f.sessions[1]->release(0);
  EXPECT_FALSE(f.sessions[1]->busy(0));
  for (auto& n : f.nodes) EXPECT_TRUE(n->engine(LockId{3}).holds().empty());
}

TEST(SessionMux, TwoSessionsOnOneNodeOverlapOnDisjointRows) {
  // Both writers run on node 1: their plans share the db and table0
  // intents (IW is compatible with IW) and differ only in the row.
  PlanFixture f(2);
  TimePoint done[2] = {0, 0};
  f.sim.schedule_at(0, [&] {
    for (std::uint32_t sid = 0; sid < 2; ++sid) {
      f.sessions[1]->run(sid, f.plan(3 + sid, Mode::kW), msec(200),
                         [&, sid](const OpStats&) { done[sid] = f.sim.now(); });
    }
  });
  f.sim.run_all();
  ASSERT_GT(done[0], 0);
  ASSERT_GT(done[1], 0);
  EXPECT_LT(std::max(done[0], done[1]), msec(200) * 2);
  EXPECT_EQ(f.sessions[1]->completed(), 2u);
}

// ---------------------------------------------------------------------------

TEST(NaimiSessions, OrderedTableOpTakesEveryEntryLock) {
  ClusterConfig config;
  config.nodes = 4;
  config.spec.ops_per_node = 0;
  config.spec.entries_per_node = 2;  // 8 entries
  NaimiCluster cluster(config, /*pure=*/false);
  SimExecutor exec(cluster.simulator());
  lockmgr::ResourceLayout layout(8);
  lockmgr::NaimiSession session(cluster.node(1), layout, exec, false);
  Op op;
  op.kind = OpKind::kTableWrite;
  op.cs = msec(5);
  OpStats result;
  cluster.simulator().schedule_at(0, [&] {
    session.start(op, [&](const OpStats& s) { result = s; });
  });
  cluster.simulator().run_all();
  EXPECT_EQ(result.lock_requests, 8u);
}

TEST(NaimiSessions, OrderedEntryOpTakesOneLock) {
  ClusterConfig config;
  config.nodes = 4;
  config.spec.ops_per_node = 0;
  NaimiCluster cluster(config, /*pure=*/false);
  SimExecutor exec(cluster.simulator());
  lockmgr::ResourceLayout layout(4);
  lockmgr::NaimiSession session(cluster.node(2), layout, exec, false);
  Op op;
  op.kind = OpKind::kEntryRead;
  op.entry = 3;
  op.cs = msec(5);
  OpStats result;
  cluster.simulator().schedule_at(0, [&] {
    session.start(op, [&](const OpStats& s) { result = s; });
  });
  cluster.simulator().run_all();
  EXPECT_EQ(result.lock_requests, 1u);
}

TEST(NaimiSessions, PureAlwaysOneLock) {
  ClusterConfig config;
  config.nodes = 3;
  config.spec.ops_per_node = 0;
  NaimiCluster cluster(config, /*pure=*/true);
  SimExecutor exec(cluster.simulator());
  lockmgr::ResourceLayout layout(3);
  lockmgr::NaimiSession session(cluster.node(1), layout, exec, true);
  for (const auto kind : {OpKind::kTableWrite, OpKind::kEntryRead}) {
    Op op;
    op.kind = kind;
    op.cs = msec(2);
    OpStats result;
    bool done = false;
    cluster.simulator().schedule_after(0, [&] {
      session.start(op, [&](const OpStats& s) {
        result = s;
        done = true;
      });
    });
    cluster.simulator().run_all();
    EXPECT_TRUE(done);
    EXPECT_EQ(result.lock_requests, 1u);
  }
}

}  // namespace
}  // namespace hlock::harness
