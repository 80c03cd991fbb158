// Shard-parallel discrete-event simulation with cross-shard channels.
//
// One Simulator per shard, each with its own event slab, heap and queue
// pool (the PR 3 cache-lean core, unchanged). The harness assigns every
// lock tree — a whole hierarchy plus its SimNetwork and nodes — to one
// shard. Shards advance concurrently in conservative windows (classic
// synchronous PDES):
//
//   round: drain cross-shard mailboxes into destination shards
//          T    = min over shards of next_event_time()
//          H    = T + lookahead        (saturating; lookahead < min
//                                       latency of every post())
//          each shard with work <= H runs run_until(H), in parallel
//          barrier; repeat until every queue AND every mailbox drains
//
// Only post() crosses shards, so only the latency of posted events bounds
// the window. A shard's own events (a tree's SimNetwork deliveries,
// timers) never leave it and may be arbitrarily close together; they
// cost nothing in rounds. A run with no cross traffic at all passes
// kUnbounded and finishes in one round.
//
// Cross-shard traffic (multi-tree transactions) goes through post(): the
// source shard appends to its private mailbox row during the round, and
// the coordinator drains every row at the next round barrier — batched
// null messages, amortized to one drain per round. Each cross event
// carries a deterministic order key (source tree, per-source counter);
// Simulator orders keyed events by (t, key) independent of insertion
// time, so a run where source and destination share a shard (direct
// insertion at send time) is bit-identical to one where the event rides
// a mailbox (insertion at the barrier). That, plus the strict lookahead
// bound, keeps sharded runs byte-identical to the serial oracle — which
// is exactly what the CI determinism step compares, now with coupled
// traffic.
//
// The bound is checked where it can break: post() throws when an event
// lands at or before the running round's horizon H, the moment an unsafe
// lookahead first shows. Every arrival therefore lands beyond the window
// it was sent in, and horizons only grow.
//
// Window revalidation: posts made between run_all() calls bypass that
// check, so the drain re-checks every arrival against the destination's
// clock. An arrival at t <= last_executed() contradicts history — the
// run aborts (throws). An arrival inside (last_executed(), now()] only
// means an earlier window coasted the idle clock past it: the clock
// rolls back and a revalidation counter records it.
//
// The calling thread coordinates and works: it publishes each round in
// one atomic claim word (generation, active count, next index), then
// claims shards by CAS on that word alongside threads-1 helpers. Within
// a round each shard is claimed by exactly one thread, so every
// Simulator stays single-threaded. The round ends when the count of
// finished shards reaches the active count; those release increments
// and the coordinator's release publish are the happens-before edges
// when a shard migrates between threads (mailbox rows are written only
// by their source shard's thread and read only by the coordinator
// between rounds). Waiting threads yield a bounded number of times,
// then park with std::atomic::wait — no mutex or condvar on the round
// path. An exception thrown on any thread is carried to the coordinator
// and rethrown from run_all() once the helpers have joined.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "sim/simulator.hpp"

namespace hlock::sim {

class ShardedSimulator {
 public:
  /// Lookahead for a run with no cross-shard traffic: one window covers
  /// everything, and any post() during the run throws.
  static constexpr Duration kUnbounded = std::numeric_limits<Duration>::max();
  /// Shard indices share 16-bit fields of run_parallel's claim word.
  static constexpr std::size_t kMaxShards = 0xffff;

  /// Create `shards` independent simulators (1..kMaxShards).
  explicit ShardedSimulator(std::size_t shards);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] Simulator& shard(std::size_t i) { return *shards_[i]; }
  [[nodiscard]] const Simulator& shard(std::size_t i) const {
    return *shards_[i];
  }

  /// Events executed across all shards.
  [[nodiscard]] std::uint64_t events_processed() const;
  /// Conservative-window rounds executed by the last run_all() call.
  /// Depends on the shard count and lookahead — diagnostic only, never
  /// part of deterministic output.
  [[nodiscard]] std::uint64_t rounds() const { return rounds_; }

  /// Post a cross-shard event: run `fn` on shard `dst` at time `t` with
  /// deterministic order `key` (> 0, globally unique — see
  /// Simulator::schedule_cross_at). Must be called from the thread
  /// currently advancing shard `src` (or outside run_all): same-shard
  /// posts insert directly, cross-shard posts ride `src`'s private
  /// mailbox row until the next round barrier. `t` must be strictly
  /// beyond the current window's horizon, which the caller guarantees by
  /// sampling the event latency >= lookahead + 1; throws
  /// std::runtime_error otherwise (same-shard posts included).
  void post(std::size_t src, std::size_t dst, TimePoint t,
            std::uint64_t key, Simulator::EventFn fn);

  /// Cross-shard posts that went through a mailbox (src != dst). Depends
  /// on the shard count — diagnostic only, stderr reporting.
  [[nodiscard]] std::uint64_t mailbox_events() const {
    return mailbox_events_;
  }
  /// All post() calls, including same-shard direct insertions.
  [[nodiscard]] std::uint64_t cross_posts() const;
  /// Arrivals that landed inside an already-run (but idle) window
  /// stretch and rolled the destination's clock back. Only posts made
  /// between run_all() calls can do that (see file header).
  [[nodiscard]] std::uint64_t window_revalidations() const {
    return window_revalidations_;
  }

  /// Advance every shard until all queues and mailboxes drain.
  /// `lookahead` is the conservative window beyond the global minimum
  /// next-event time; it must be *strictly below* the minimum latency of
  /// every post() (the cross channel's min_latency() - 1; >= 0), or
  /// kUnbounded when nothing is posted. Local events do not bound it.
  /// `threads` caps the threads that run shards, the caller included
  /// (threads-1 helpers are started); <= 1 or a single shard runs the
  /// serial path — identical window/drain arithmetic, each shard
  /// advanced in shard-index order on the calling thread, the
  /// bit-identical oracle for any parallel configuration. Throws if more
  /// than `max_events` run in total; the remaining budget is plumbed
  /// into every per-shard run_until, so even a zero-lookahead livelock
  /// inside one window stops promptly instead of running away.
  void run_all(Duration lookahead, std::size_t threads,
               std::uint64_t max_events = 2'000'000'000);

 private:
  struct CrossEvent {
    std::size_t dst;
    TimePoint t;
    std::uint64_t key;
    Simulator::EventFn fn;
  };

  void run_serial(Duration lookahead, std::uint64_t max_events);
  void run_parallel(Duration lookahead, std::size_t workers,
                    std::uint64_t max_events);
  /// Move every mailbox row into its destination shards, revalidating
  /// each arrival's timestamp. Returns true if any event was delivered.
  bool drain_mailboxes();

  /// unique_ptr for stable addresses: engines and networks capture
  /// Simulator& at construction.
  std::vector<std::unique_ptr<Simulator>> shards_;
  /// mail_[src]: events posted by shard src this round, drained by the
  /// coordinator at the next barrier. Single-writer per row, like the
  /// post counters (summed on demand, so post() needs no atomics).
  std::vector<std::vector<CrossEvent>> mail_;
  std::vector<std::uint64_t> posts_per_src_;
  /// The running round's H; kNever outside run_all(). Written by the
  /// coordinator before it releases the round, read by post().
  TimePoint horizon_{Simulator::kNever};
  std::uint64_t rounds_{0};
  std::uint64_t mailbox_events_{0};
  std::uint64_t window_revalidations_{0};
};

}  // namespace hlock::sim
