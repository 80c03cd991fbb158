// ShardedSimulator and the many-lock forest harness: the load-bearing
// property is that results are bitwise-invariant to the shard count and
// the thread count (the CI oracle cmp depends on it), plus the lazy
// engine materialization that keeps 10^5-lock forests cheap.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "harness/many_locks_cluster.hpp"
#include "sim/sharded.hpp"

using namespace hlock;
using namespace hlock::harness;

namespace {

ManyLocksConfig small_config() {
  ManyLocksConfig cfg;
  cfg.nodes = 3;
  cfg.trees = 6;
  cfg.levels = 4;
  cfg.spec.lock_count = 6 * 200;
  cfg.spec.zipf_theta = 0.9;
  cfg.spec.ops_per_node = 8;
  cfg.spec.seed = 0xf00d;
  return cfg;
}

ManyLocksResult run_with(ManyLocksConfig cfg, std::size_t shards,
                         std::size_t threads = 0) {
  cfg.shards = shards;
  cfg.run_threads = threads;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  return cluster.result();
}

}  // namespace

TEST(ShardedSimulator, SingleShardMatchesPlainRunAll) {
  // The same event program, run windowed (lookahead rounds) and plain.
  std::vector<int> windowed;
  std::vector<int> plain;
  auto program = [](sim::Simulator& s, std::vector<int>& out) {
    for (int i = 0; i < 5; ++i) {
      s.schedule_at(i * 100, [&out, &s, i] {
        out.push_back(i);
        s.schedule_after(50, [&out, i] { out.push_back(100 + i); });
      });
    }
  };
  sim::ShardedSimulator sharded(1);
  program(sharded.shard(0), windowed);
  sharded.run_all(/*lookahead=*/30, /*threads=*/1);
  sim::Simulator reference;
  program(reference, plain);
  reference.run_all();
  EXPECT_EQ(windowed, plain);
  EXPECT_EQ(sharded.events_processed(), reference.events_processed());
}

TEST(ShardedSimulator, ShardsAdvanceIndependently) {
  sim::ShardedSimulator sharded(3);
  std::vector<int> order;
  sharded.shard(0).schedule_at(10, [&] { order.push_back(0); });
  sharded.shard(1).schedule_at(20, [&] { order.push_back(1); });
  sharded.shard(2).schedule_at(5, [&] { order.push_back(2); });
  sharded.run_all(/*lookahead=*/1, /*threads=*/1);
  // Serial path visits shards in index order within a round; with a tight
  // lookahead the global windows order cross-shard work by virtual time.
  EXPECT_EQ(order, (std::vector<int>{2, 0, 1}));
  EXPECT_EQ(sharded.events_processed(), 3u);
  EXPECT_GE(sharded.rounds(), 3u);
}

TEST(ShardedSimulator, ParallelRunExecutesEverything) {
  sim::ShardedSimulator sharded(4);
  std::atomic<int> ran{0};
  for (std::size_t s = 0; s < 4; ++s) {
    for (int i = 0; i < 50; ++i) {
      sharded.shard(s).schedule_at(i * 10, [&sharded, &ran, s] {
        ran.fetch_add(1, std::memory_order_relaxed);
        sharded.shard(s).schedule_after(5, [&ran] {
          ran.fetch_add(1, std::memory_order_relaxed);
        });
      });
    }
  }
  sharded.run_all(/*lookahead=*/25, /*threads=*/4);
  EXPECT_EQ(ran.load(), 400);
  EXPECT_EQ(sharded.events_processed(), 400u);
}

TEST(ShardedSimulator, EventCapThrows) {
  sim::ShardedSimulator sharded(2);
  // Self-rescheduling event: only the cap stops it.
  std::function<void()> again = [&] {
    sharded.shard(0).schedule_after(1, again);
  };
  sharded.shard(0).schedule_at(0, again);
  EXPECT_THROW(sharded.run_all(10, 1, /*max_events=*/1000),
               std::runtime_error);
}

TEST(ShardedSimulator, CrossPostOrdersByKeyNotInsertionTime) {
  // The same three events — two posted cross-shard (keys 2 and 1) and one
  // scheduled locally — all landing at t=100 on shard 1. Locals (key 0)
  // run first, then keyed events by key, regardless of the fact that the
  // cross events ride a mailbox and are inserted at a later barrier.
  sim::ShardedSimulator sharded(2);
  std::vector<int> order;
  sharded.shard(1).schedule_at(100, [&] { order.push_back(0); });
  sharded.shard(0).schedule_at(10, [&] {
    sharded.post(0, 1, 100, /*key=*/2, [&] { order.push_back(2); });
    sharded.post(0, 1, 100, /*key=*/1, [&] { order.push_back(1); });
  });
  sharded.run_all(/*lookahead=*/5, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sharded.mailbox_events(), 2u);
  EXPECT_EQ(sharded.cross_posts(), 2u);
}

TEST(ShardedSimulator, SameShardPostMatchesMailboxPost) {
  // A post whose source and destination share a shard inserts directly;
  // the execution order must be identical to the cross-shard run above.
  sim::ShardedSimulator sharded(1);
  std::vector<int> order;
  sharded.shard(0).schedule_at(100, [&] { order.push_back(0); });
  sharded.shard(0).schedule_at(10, [&] {
    sharded.post(0, 0, 100, /*key=*/2, [&] { order.push_back(2); });
    sharded.post(0, 0, 100, /*key=*/1, [&] { order.push_back(1); });
  });
  sharded.run_all(/*lookahead=*/5, /*threads=*/1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sharded.mailbox_events(), 0u);  // direct insertion
  EXPECT_EQ(sharded.cross_posts(), 2u);
}

TEST(ShardedSimulator, CrossPostInsideTheHorizonThrows) {
  // A deliberately oversized lookahead (100) against a 10-tick hop: the
  // post at t=50 lands at t=60, inside the running window (0, 100]. The
  // post itself must throw — serially, from a worker thread, and for a
  // same-shard post that would never touch a mailbox.
  const auto run = [](std::size_t shards, std::size_t threads) {
    sim::ShardedSimulator sharded(shards);
    sharded.shard(shards - 1).schedule_at(0, [] {});
    sharded.shard(0).schedule_at(50, [&sharded, shards] {
      sharded.post(0, shards - 1, 60, /*key=*/1, [] {});
    });
    sharded.run_all(/*lookahead=*/100, threads);
  };
  EXPECT_THROW(run(2, 1), std::runtime_error);
  EXPECT_THROW(run(2, 2), std::runtime_error);
  EXPECT_THROW(run(1, 1), std::runtime_error);
}

TEST(ShardedSimulator, CrossPostInsideTheHorizonThrowsOnEveryThread) {
  // The same unsafe post with three shards on three threads. Every shard
  // has an event at t=50 that waits until all three have started, so
  // each thread (the caller and two helpers) runs exactly one shard.
  // The post comes from shard 1, from shard 2, from whichever shard the
  // caller runs, or from one helper's shard; run_all() must rethrow it
  // every time and join its helpers instead of hanging.
  enum class Thrower { kShard1, kShard2, kCaller, kHelper };
  const auto run = [](Thrower who) {
    sim::ShardedSimulator sharded(3);
    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> started{0};
    std::atomic<bool> helper_threw{false};
    std::atomic<int> threw_on_caller{-1};
    for (std::size_t s = 0; s < 3; ++s) {
      sharded.shard(s).schedule_at(50, [&, s] {
        started.fetch_add(1);
        for (int i = 0; started.load() < 3 && i < 1'000'000; ++i)
          std::this_thread::yield();
        const bool on_caller = std::this_thread::get_id() == caller;
        bool throws = false;
        switch (who) {
          case Thrower::kShard1: throws = s == 1; break;
          case Thrower::kShard2: throws = s == 2; break;
          case Thrower::kCaller: throws = on_caller; break;
          case Thrower::kHelper:
            throws = !on_caller && !helper_threw.exchange(true);
            break;
        }
        if (!throws) return;
        threw_on_caller = on_caller ? 1 : 0;
        sharded.post(s, (s + 1) % 3, 60, /*key=*/1, [] {});
      });
    }
    EXPECT_THROW(sharded.run_all(/*lookahead=*/100, /*threads=*/3),
                 std::runtime_error);
    EXPECT_EQ(started.load(), 3);
    return threw_on_caller.load();
  };
  EXPECT_NE(run(Thrower::kShard1), -1);
  EXPECT_NE(run(Thrower::kShard2), -1);
  EXPECT_EQ(run(Thrower::kCaller), 1);
  EXPECT_EQ(run(Thrower::kHelper), 0);
}

namespace {

/// Per shard, the (time, tag) of every event it ran, in order. Tags:
/// a ball hop logs hop >= 0, a wave -1 - hop, an echo kEcho - hop.
using ShardLogs = std::vector<std::vector<std::pair<TimePoint, int>>>;
constexpr int kHops = 6000;
constexpr int kEcho = -100'000;

/// One ball bounces between 5 shards with a 10-tick hop against a
/// lookahead of 9, so most rounds run a single active shard. Every 16th
/// hop also posts a wave to all 5 shards, which lands with the next hop
/// (a round with every shard active) and echoes to a neighbour. Each
/// shard logs what it ran.
ShardLogs ping_pong(std::size_t threads, std::uint64_t* rounds) {
  constexpr std::size_t kShards = 5;
  constexpr Duration kHop = 10;
  sim::ShardedSimulator sharded(kShards);
  ShardLogs logs(kShards);
  std::vector<std::uint64_t> seq(kShards, 0);
  const auto send = [&](std::size_t src, std::size_t dst, TimePoint t,
                        sim::Simulator::EventFn fn) {
    const std::uint64_t key = (std::uint64_t{src} + 1) << 32 | ++seq[src];
    sharded.post(src, dst, t, key, std::move(fn));
  };
  std::function<void(std::size_t, int)> ball = [&](std::size_t s, int hop) {
    const TimePoint now = sharded.shard(s).now();
    logs[s].emplace_back(now, hop);
    if (hop == kHops) return;
    const std::size_t next = (s + 1 + hop % 4) % kShards;
    send(s, next, now + kHop, [&ball, next, hop] { ball(next, hop + 1); });
    if (hop % 16 != 0) return;
    for (std::size_t d = 0; d < kShards; ++d) {
      send(s, d, now + kHop, [&, d, hop] {
        const TimePoint t = sharded.shard(d).now();
        logs[d].emplace_back(t, -hop - 1);
        const std::size_t to = (d + 1) % kShards;
        send(d, to, t + kHop + 1 + static_cast<Duration>(d),
             [&, to, hop] {
               logs[to].emplace_back(sharded.shard(to).now(), kEcho - hop);
             });
      });
    }
  };
  sharded.shard(0).schedule_at(0, [&] { ball(0, 0); });
  sharded.run_all(/*lookahead=*/kHop - 1, threads);
  *rounds = sharded.rounds();
  return logs;
}

}  // namespace

TEST(ShardedSimulator, ShortRoundsMatchSerialAtEveryThreadCount) {
  // Thousands of rounds of a few events each, with 1 or all 5 shards
  // active, at thread counts where one thread claims several shards of
  // a round: each shard must run exactly what the serial path ran.
  std::uint64_t serial_rounds = 0;
  const ShardLogs serial = ping_pong(1, &serial_rounds);
  ASSERT_GE(serial_rounds, 5000u);
  std::size_t waves = 0;
  for (const auto& log : serial)
    for (const auto& [t, tag] : log) waves += tag < 0 && tag > kEcho;
  EXPECT_EQ(waves, 5u * ((kHops - 1) / 16 + 1));
  for (const std::size_t threads : {2, 3, 5}) {
    std::uint64_t rounds = 0;
    EXPECT_EQ(ping_pong(threads, &rounds), serial) << threads << " threads";
    EXPECT_EQ(rounds, serial_rounds) << threads << " threads";
  }
}

TEST(ShardedSimulator, UnboundedLookaheadDoesNotOverflow) {
  // T + kUnbounded must saturate, not wrap (UBSan traps signed
  // overflow). One window then covers every event, however late, while
  // an idle shard is never run and its clock stays put.
  for (const std::size_t threads : {1, 2}) {
    sim::ShardedSimulator sharded(3);
    std::atomic<int> ran{0};
    sharded.shard(0).schedule_at(5, [&] { ++ran; });
    sharded.shard(1).schedule_at(sim::Simulator::kNoEvent - 10,
                                 [&] { ++ran; });
    sharded.run_all(sim::ShardedSimulator::kUnbounded, threads);
    EXPECT_EQ(ran.load(), 2);
    EXPECT_EQ(sharded.rounds(), 1u);
    EXPECT_EQ(sharded.shard(2).now(), 0);
  }
  // Nothing may be posted into an unbounded window.
  sim::ShardedSimulator sharded(2);
  sharded.shard(0).schedule_at(0, [&] {
    sharded.post(0, 1, sim::Simulator::kNoEvent - 1, /*key=*/1, [] {});
  });
  EXPECT_THROW(sharded.run_all(sim::ShardedSimulator::kUnbounded, 1),
               std::runtime_error);
}

TEST(ShardedSimulator, ArrivalInsideExecutedHorizonThrows) {
  // post() refuses arrivals inside a running window; a post made between
  // runs is checked by the drain instead. Shard 1 has executed t=100, so
  // an arrival at t=60 contradicts its history and must abort the run —
  // on the parallel path too, after joining its helpers.
  for (const std::size_t threads : {1, 2}) {
    sim::ShardedSimulator sharded(2);
    sharded.shard(1).schedule_at(0, [] {});
    sharded.shard(1).schedule_at(100, [] {});
    sharded.run_all(/*lookahead=*/100, threads);
    sharded.post(0, 1, 60, /*key=*/1, [] {});
    EXPECT_THROW(sharded.run_all(/*lookahead=*/100, threads),
                 std::runtime_error);
  }
}

TEST(ShardedSimulator, IdleOvershootRevalidatesTheWindow) {
  // Shard 1's clock coasts to the horizon (t=100) with nothing executed
  // past t=0; an arrival at t=60, posted between runs, is then sound —
  // the drain rolls the idle clock back, counts a revalidation, and the
  // event runs.
  sim::ShardedSimulator sharded(2);
  bool ran = false;
  sharded.shard(1).schedule_at(0, [] {});
  sharded.run_all(/*lookahead=*/100, /*threads=*/1);
  sharded.post(0, 1, 60, /*key=*/1, [&] { ran = true; });
  sharded.run_all(/*lookahead=*/100, /*threads=*/1);
  EXPECT_TRUE(ran);
  EXPECT_EQ(sharded.window_revalidations(), 1u);
}

TEST(ShardedSimulator, ZeroLookaheadLivelockStopsAtTheEventBudget) {
  // A same-time rescheduling loop never leaves its window, so only the
  // per-round budget (plumbed into run_until) can stop it. Without that
  // plumbing this test hangs instead of throwing.
  sim::ShardedSimulator sharded(2);
  std::function<void()> again = [&] {
    sharded.shard(0).schedule_after(0, again);
  };
  sharded.shard(0).schedule_at(5, again);
  EXPECT_THROW(sharded.run_all(/*lookahead=*/0, /*threads=*/1,
                               /*max_events=*/1000),
               std::runtime_error);
}

TEST(ManyLocks, CompletesEveryOp) {
  const ManyLocksResult r = run_with(small_config(), 1);
  EXPECT_EQ(r.ops, 6u * 3 * 8);
  EXPECT_GT(r.lock_requests, r.ops);  // >= 3 locks per op
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.virtual_end, 0);
  EXPECT_EQ(r.latency_factor.count(), r.ops);
}

TEST(ManyLocks, ResultInvariantToShardCount) {
  const ManyLocksConfig cfg = small_config();
  const ManyLocksResult serial = run_with(cfg, 1);
  // 2 and 3 shards exercise uneven tree -> shard partitions.
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6));
}

TEST(ManyLocks, ResultInvariantToThreadCount) {
  const ManyLocksConfig cfg = small_config();
  const ManyLocksResult serial = run_with(cfg, 4, 1);
  EXPECT_EQ(serial, run_with(cfg, 4, 2));
  EXPECT_EQ(serial, run_with(cfg, 4, 4));
  EXPECT_EQ(serial, run_with(cfg, 4, 8));  // more threads than shards
}

TEST(ManyLocks, LazyEnginesMaterializeOnlyTouchedLocks) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 6 * 5000;  // big id space, few ops
  cfg.spec.ops_per_node = 4;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  const ManyLocksResult r = cluster.result();
  EXPECT_EQ(r.locks_total, 6u * 5000);
  // Zipf-hot pages plus ancestors: a tiny touched set. Full eager
  // instantiation would be locks_total * nodes engines.
  EXPECT_LT(r.engines_materialized, r.locks_total);
  EXPECT_GT(r.engines_materialized, 0u);
}

TEST(ManyLocks, ZipfSkewShrinksTouchedSet) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 6 * 2000;
  ManyLocksConfig uniform = cfg;
  uniform.spec.zipf_theta = 0.0;
  ManyLocksConfig hot = cfg;
  hot.spec.zipf_theta = 1.2;
  EXPECT_LT(run_with(hot, 1).engines_materialized,
            run_with(uniform, 1).engines_materialized);
}

TEST(ManyLocks, RejectsBadConfig) {
  ManyLocksConfig cfg = small_config();
  cfg.spec.lock_count = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.trees = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.levels = 5;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.nodes = 0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
}

TEST(ManyLocks, ThreeLevelForestRuns) {
  ManyLocksConfig cfg = small_config();
  cfg.levels = 3;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  EXPECT_EQ(serial, run_with(cfg, 3));
}

// --- multi-tree transactions (coupled shards) -------------------------

TEST(ManyLocks, CoupledResultInvariantToShardAndThreadCount) {
  // With cross-tree ops the trees are no longer disjoint: invariance now
  // rests on the keyed (t, key) event order and the conservative window,
  // not on per-tree isolation. This is the serial oracle property the CI
  // coupled cmp step checks at the binary level.
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 25.0;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_GT(serial.cross_tree_ops, 0u);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);  // cross ops count once, at home
  EXPECT_EQ(serial.deadlock_cycles, 0u);
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6));
  EXPECT_EQ(serial, run_with(cfg, 6, 4));  // parallel workers
}

TEST(ManyLocks, CoupledRunsProduceCrossShardTraffic) {
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 25.0;
  cfg.shards = 3;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  // Legs, replies and releases between trees on different shards must
  // ride the mailboxes — the lookahead barrier is load-bearing here.
  EXPECT_GT(cluster.sharded().cross_posts(), 0u);
  EXPECT_GT(cluster.sharded().mailbox_events(), 0u);
}

TEST(ManyLocks, UncoupledConfigPostsNoCrossEvents) {
  ManyLocksConfig cfg = small_config();
  cfg.shards = 3;
  ManyLocksCluster cluster(cfg);
  cluster.run();
  EXPECT_EQ(cluster.sharded().cross_posts(), 0u);
  EXPECT_EQ(cluster.sharded().mailbox_events(), 0u);
}

namespace {

/// High-contention two-tree config: tiny page space, heavy skew, every
/// op spanning both trees — the regime where acquisition order decides
/// between completion and deadlock.
ManyLocksConfig contended_cross_config() {
  ManyLocksConfig cfg;
  cfg.nodes = 4;
  cfg.trees = 2;
  cfg.levels = 4;
  cfg.spec.lock_count = 64;
  cfg.spec.zipf_theta = 1.2;
  cfg.spec.ops_per_node = 20;
  cfg.spec.seed = 1;
  cfg.cross_tree_pct = 100.0;
  return cfg;
}

}  // namespace

TEST(ManyLocks, OrderedCrossTreeOpsNeverDeadlock) {
  // Ordered mode acquires trees in tree-id order — a total order over
  // resources, so even 100% cross traffic on two tiny trees completes.
  const ManyLocksResult r = run_with(contended_cross_config(), 2);
  EXPECT_EQ(r.ops, 2u * 4 * 20);
  EXPECT_EQ(r.cross_tree_ops, r.ops);
  EXPECT_EQ(r.deadlock_cycles, 0u);
}

TEST(ManyLocks, UnorderedCrossTreeDeadlockIsDetectedNotHung) {
  // Home-tree-first acquisition is a textbook ordering bug: opposite
  // transactions hold-and-wait across the trees. The run must DRAIN
  // (conservative windows keep advancing), diagnose the cycle in the
  // forest-wide wait-for graph, and report it instead of throwing.
  ManyLocksConfig cfg = contended_cross_config();
  cfg.cross_tree_unordered = true;
  ManyLocksCluster cluster(cfg);
  cluster.run();  // must not throw and must not hang
  const ManyLocksResult r = cluster.result();
  EXPECT_GE(r.deadlock_cycles, 1u);
  EXPECT_LT(r.ops, 2u * 4 * 20);  // the deadlocked ops never finished
  const auto cycle = cluster.wait_graph().find_cycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_GE(cycle->size(), 3u);
}

TEST(ManyLocks, UnorderedDeadlockRunIsStillShardInvariant) {
  ManyLocksConfig cfg = contended_cross_config();
  cfg.cross_tree_unordered = true;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial, run_with(cfg, 2));
  EXPECT_EQ(serial, run_with(cfg, 2, 2));
}

TEST(ManyLocks, RequestQueuedBehindConflictingWaiterStillHasAnEdge) {
  // `many_locks --shards 2 --lock-count 256 --trees 4 --nodes 4 --ops 20
  // --zipf 1.2 --seed 13 --cross-tree-pct 30 --cross-tree-unordered`: a
  // gateway's IW request sits at the token behind a queued R while every
  // holder is compatible with IW (IW is frozen for the R). Only the
  // queue-order edge gateway -> R-waiter closes the cycle; without it
  // the graph showed none and run() threw "lost request" at 125/320.
  ManyLocksConfig cfg = contended_cross_config();
  cfg.trees = 4;
  cfg.spec.lock_count = 256;
  cfg.spec.seed = 13;
  cfg.cross_tree_pct = 30.0;
  cfg.cross_tree_unordered = true;
  cfg.shards = 2;
  ManyLocksCluster cluster(cfg);
  ASSERT_NO_THROW(cluster.run());
  const ManyLocksResult r = cluster.result();
  EXPECT_EQ(r.ops, 125u);
  EXPECT_GE(r.deadlock_cycles, 1u);
}

TEST(ManyLocks, LookaheadIsTheCrossHopFloorOnly) {
  // Only cross-tree hops are posted between shards, so only their floor
  // (uniform's mean/2, minus one for the inclusive horizon) bounds the
  // window — clustered or not: the 1000 us intra-cluster model stays on
  // its tree's shard. Without coupling nothing crosses at all, so the
  // window is unbounded and the whole forest runs in one round.
  ManyLocksConfig flat = small_config();
  ManyLocksConfig clustered = small_config();
  clustered.clusters = 2;
  clustered.intra_latency_mean = usec(1000);
  for (ManyLocksConfig cfg : {flat, clustered}) {
    cfg.shards = 3;
    {
      ManyLocksCluster uncoupled(cfg);
      EXPECT_EQ(uncoupled.lookahead(), sim::ShardedSimulator::kUnbounded);
      uncoupled.run();
      EXPECT_EQ(uncoupled.rounds(), 1u);
    }
    cfg.cross_tree_pct = 20.0;
    ManyLocksCluster coupled(cfg);
    EXPECT_EQ(coupled.lookahead(), cfg.spec.net_latency_mean / 2 - 1);
    coupled.run();
    EXPECT_GT(coupled.rounds(), 1u);
  }
}

TEST(ManyLocks, ClusteredUncoupledForestRunsInOneRound) {
  // The unbounded window must not change a single result: serial oracle
  // vs 2 and 4 shards, serial and pooled, all in exactly one round.
  ManyLocksConfig cfg = small_config();
  cfg.clusters = 2;
  cfg.intra_latency_mean = usec(50);
  cfg.shards = 1;
  cfg.run_threads = 1;
  ManyLocksCluster oracle(cfg);
  oracle.run();
  const ManyLocksResult serial = oracle.result();
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  for (const std::size_t shards : {2, 4}) {
    for (const std::size_t threads : {1, 2}) {
      cfg.shards = shards;
      cfg.run_threads = threads;
      ManyLocksCluster cluster(cfg);
      cluster.run();
      EXPECT_EQ(cluster.result(), serial);
      EXPECT_EQ(cluster.rounds(), 1u);
    }
  }
}

TEST(ManyLocks, ClusteredCoupledForestStaysDeterministic) {
  // Clustered topology (intra floor far below the flat mean) plus
  // cross-shard coupling: the window follows the cross-hop floor and
  // passes right over many intra-cluster deliveries per round.
  ManyLocksConfig cfg = small_config();
  cfg.clusters = 2;
  cfg.intra_latency_mean = usec(1000);
  cfg.cross_tree_pct = 20.0;
  const ManyLocksResult serial = run_with(cfg, 1);
  EXPECT_EQ(serial.ops, 6u * 3 * 8);
  EXPECT_GT(serial.cross_tree_ops, 0u);
  EXPECT_EQ(serial, run_with(cfg, 3));
  EXPECT_EQ(serial, run_with(cfg, 6, 4));
}

TEST(ManyLocks, RejectsBadCrossTreeConfig) {
  ManyLocksConfig cfg = small_config();
  cfg.cross_tree_pct = 101.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.cross_tree_pct = -1.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
  cfg = small_config();
  cfg.trees = 1;
  cfg.spec.lock_count = 200;
  cfg.cross_tree_pct = 10.0;
  EXPECT_THROW(ManyLocksCluster{cfg}, std::invalid_argument);
}
