#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

namespace hlock::sim {

namespace {

/// t + lookahead, saturating one below kNoEvent: an unbounded window
/// covers every pending event without overflowing, and an idle shard
/// (next_event_time() == kNoEvent) never falls inside it.
TimePoint window_end(TimePoint t, Duration lookahead) {
  constexpr TimePoint kEnd = Simulator::kNoEvent - 1;
  return t > kEnd - lookahead ? kEnd : t + lookahead;
}

/// Cache-line size for padding run_parallel's hot atomics. A local
/// constant, as in hierarchical queue locks: gcc warns on any use of
/// std::hardware_destructive_interference_size (-Winterference-size).
constexpr std::size_t kLine = 64;

/// Yields a waiting thread makes before it parks on a futex. Yielding
/// rather than busy-spinning keeps threads that share one CPU cheap:
/// the one with work gets the CPU back at once.
constexpr int kSpins = 64;

/// Waits until `a` holds a value for which `ready` is true and returns
/// it: yields up to kSpins times, then parks with std::atomic::wait.
template <typename T, typename Ready>
T await(const std::atomic<T>& a, Ready ready) {
  T v = a.load(std::memory_order_acquire);
  for (int spins = 0; !ready(v); v = a.load(std::memory_order_acquire)) {
    if (spins < kSpins) {
      ++spins;
      std::this_thread::yield();
    } else {
      a.wait(v, std::memory_order_acquire);
    }
  }
  return v;
}

// run_parallel's claim word: stop flag | generation | count | next.
// `count` shards are active this round and `next` is the first
// unclaimed index into them; a claim increments `next` by CAS.
constexpr std::uint64_t kStop = std::uint64_t{1} << 63;
constexpr std::uint64_t kGenerationMask = (std::uint64_t{1} << 31) - 1;

std::uint64_t generation_of(std::uint64_t w) { return w >> 32; }
std::size_t count_of(std::uint64_t w) { return (w >> 16) & 0xffff; }
std::size_t next_of(std::uint64_t w) { return w & 0xffff; }

}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("need >= 1 shard");
  if (shards > kMaxShards)
    throw std::invalid_argument("need <= " + std::to_string(kMaxShards) +
                                " shards");
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i)
    shards_.push_back(std::make_unique<Simulator>());
  mail_.resize(shards);
  posts_per_src_.assign(shards, 0);
}

std::uint64_t ShardedSimulator::events_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : shards_) total += s->events_processed();
  return total;
}

std::uint64_t ShardedSimulator::cross_posts() const {
  std::uint64_t total = 0;
  for (const std::uint64_t n : posts_per_src_) total += n;
  return total;
}

void ShardedSimulator::post(std::size_t src, std::size_t dst, TimePoint t,
                            std::uint64_t key, Simulator::EventFn fn) {
  if (src >= shards_.size() || dst >= shards_.size())
    throw std::invalid_argument("post: shard index out of range");
  // Same-shard posts are checked too, so an unsafe lookahead fails at
  // every shard count, not only where the event happens to cross.
  if (t <= horizon_)
    throw std::runtime_error(
        "posted event at t=" + std::to_string(t) +
        " inside the current window (horizon " + std::to_string(horizon_) +
        ") — lookahead exceeds the minimum cross-event latency");
  ++posts_per_src_[src];
  if (src == dst) {
    // Same shard: insert directly. The (t, key) heap ordering makes this
    // execute identically to the mailbox path.
    shards_[dst]->schedule_cross_at(t, key, std::move(fn));
    return;
  }
  mail_[src].push_back(CrossEvent{dst, t, key, std::move(fn)});
}

bool ShardedSimulator::drain_mailboxes() {
  bool any = false;
  for (auto& row : mail_) {
    for (CrossEvent& ev : row) {
      Simulator& dst = *shards_[ev.dst];
      // post() already refuses arrivals inside the running window; this
      // catches one posted between run_all() calls into executed history.
      if (ev.t <= dst.last_executed())
        throw std::runtime_error(
            "cross-shard event inside the executed history");
      // Landing at or before the destination's (idle) clock means the
      // previous window overshot: accept the event, let the clock roll
      // back, and re-derive T/H this round with it in the queue.
      if (ev.t <= dst.now()) ++window_revalidations_;
      dst.schedule_cross_at(ev.t, ev.key, std::move(ev.fn));
      ++mailbox_events_;
      any = true;
    }
    row.clear();
  }
  return any;
}

void ShardedSimulator::run_all(Duration lookahead, std::size_t threads,
                               std::uint64_t max_events) {
  if (lookahead < 0) throw std::invalid_argument("lookahead must be >= 0");
  rounds_ = 0;
  if (threads > 1 && shards_.size() > 1)
    run_parallel(lookahead, std::min(threads, shards_.size()), max_events);
  else
    run_serial(lookahead, max_events);
  horizon_ = Simulator::kNever;
}

void ShardedSimulator::run_serial(Duration lookahead,
                                  std::uint64_t max_events) {
  // Serial oracle: identical drain/window arithmetic, shards advanced in
  // index order on this thread. The windows partition each shard's pop
  // sequence without reordering it, and cross events order by (t, key)
  // regardless of when they are inserted, so this is the byte-identical
  // oracle for every parallel configuration.
  const std::uint64_t start = events_processed();
  for (;;) {
    drain_mailboxes();
    TimePoint t_min = Simulator::kNoEvent;
    for (const auto& s : shards_)
      t_min = std::min(t_min, s->next_event_time());
    if (t_min == Simulator::kNoEvent) return;  // mailboxes drained above
    horizon_ = window_end(t_min, lookahead);
    ++rounds_;
    const std::uint64_t done = events_processed() - start;
    const std::uint64_t budget = done > max_events ? 1 : max_events - done + 1;
    for (const auto& s : shards_) {
      if (s->next_event_time() <= horizon_) s->run_until(horizon_, budget);
    }
    if (events_processed() - start > max_events)
      throw std::runtime_error("sharded simulator event cap (livelock?)");
  }
}

void ShardedSimulator::run_parallel(Duration lookahead, std::size_t workers,
                                    std::uint64_t max_events) {
  // The calling thread coordinates and works: it publishes a round in
  // the claim word, then claims shards through it like the workers-1
  // helpers do, so a shard runs on exactly one thread per round — which
  // also makes each mailbox row single-writer within the round. The
  // coordinator waits until as many shards have finished as the round
  // published (the release increments order the rows before its drain),
  // never for helpers to check in: a helper that wakes late finds
  // nothing left to claim. Claims are CASes on a word that carries the
  // generation, so a helper holding round g's word can never claim in,
  // or read the state of, round g+1 — only the word it claimed through
  // tells it which round's `active`, horizon and budget it may read. A
  // shard that throws (say, an unsafe post()) parks the exception; the
  // coordinator stops after that round and rethrows it once the pool
  // has joined.
  std::vector<Simulator*> active;
  std::uint64_t budget = 0;
  std::mutex failure_mutex;  // guards `failure` only
  std::exception_ptr failure;
  struct alignas(kLine) {
    std::atomic<std::uint64_t> word{0};
  } claim;
  struct alignas(kLine) {
    std::atomic<std::uint32_t> shards{0};
  } finished;

  const auto run_claimed = [&](std::uint64_t w) {
    try {
      active[next_of(w)]->run_until(horizon_, budget);
    } catch (...) {
      const std::lock_guard lk(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
    if (finished.shards.fetch_add(1, std::memory_order_release) + 1 ==
        count_of(w))
      finished.shards.notify_one();
  };
  // Claims and runs shards until the published round has none left;
  // returns the last word seen.
  const auto claim_all = [&](std::uint64_t w) {
    while (next_of(w) < count_of(w)) {
      if (claim.word.compare_exchange_weak(w, w + 1,
                                           std::memory_order_acquire)) {
        run_claimed(w);
        w = claim.word.load(std::memory_order_acquire);
      }
    }
    return w;
  };

  std::vector<std::thread> helpers;
  const std::uint64_t start = events_processed();
  try {
    helpers.reserve(workers - 1);
    for (std::size_t h = 1; h < workers; ++h) {
      helpers.emplace_back([&] {
        std::uint64_t seen = 0;
        for (;;) {
          const std::uint64_t w = await(claim.word, [seen](std::uint64_t v) {
            return (v & kStop) || generation_of(v) != seen;
          });
          if (w & kStop) return;
          seen = generation_of(claim_all(w));
        }
      });
    }

    std::uint64_t generation = 0;
    for (;;) {
      drain_mailboxes();
      TimePoint t_min = Simulator::kNoEvent;
      for (const auto& s : shards_)
        t_min = std::min(t_min, s->next_event_time());
      if (t_min == Simulator::kNoEvent) break;
      horizon_ = window_end(t_min, lookahead);
      active.clear();
      for (const auto& s : shards_)
        if (s->next_event_time() <= horizon_) active.push_back(s.get());
      {
        const std::uint64_t done = events_processed() - start;
        budget = done > max_events ? 1 : max_events - done + 1;
      }
      ++rounds_;
      finished.shards.store(0, std::memory_order_relaxed);
      generation = (generation + 1) & kGenerationMask;
      const std::uint64_t w = (generation << 32) | (active.size() << 16);
      claim.word.store(w, std::memory_order_release);
      // A lone shard is the coordinator's own; parked helpers sleep on.
      if (active.size() > 1) claim.word.notify_all();
      claim_all(w);
      await(finished.shards,
            [n = active.size()](std::uint32_t v) { return v == n; });
      // Every shard's writes, `failure` included, happen before the
      // acquire load that saw the last increment.
      if (failure || events_processed() - start > max_events) break;
    }
  } catch (...) {
    // A drain that finds an arrival inside executed history, or a pool
    // that cannot start: still join whatever helpers exist.
    const std::lock_guard lk(failure_mutex);
    if (!failure) failure = std::current_exception();
  }
  claim.word.store(kStop, std::memory_order_release);
  claim.word.notify_all();
  for (std::thread& t : helpers) t.join();
  if (failure) std::rethrow_exception(failure);
  if (events_processed() - start > max_events)
    throw std::runtime_error("sharded simulator event cap (livelock?)");
}

}  // namespace hlock::sim
