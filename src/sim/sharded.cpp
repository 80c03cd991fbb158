#include "sim/sharded.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
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

}  // namespace

ShardedSimulator::ShardedSimulator(std::size_t shards) {
  if (shards == 0) throw std::invalid_argument("need >= 1 shard");
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
  // Persistent pool; one generation per round. Workers claim active
  // shards through an atomic cursor, so a shard runs on exactly one
  // thread per round — which also makes each mailbox row single-writer
  // within the round, and the barrier orders the rows before the
  // coordinator's drain. Every worker checks in once per generation, and
  // the coordinator writes the next round's state only after all have
  // (a count of *idle* workers would let a worker that never woke for a
  // round wake late and read that state mid-write). A worker that throws
  // (say, an unsafe post()) parks the exception; the coordinator stops
  // after that round and rethrows it once the pool has joined.
  std::mutex mutex;
  std::condition_variable work_cv;
  std::condition_variable done_cv;
  std::uint64_t generation = 0;
  bool stop = false;
  std::size_t finished = 0;
  std::vector<Simulator*> active;
  std::uint64_t budget = 0;
  std::exception_ptr failure;
  std::atomic<std::size_t> cursor{0};

  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      std::uint64_t seen = 0;
      for (;;) {
        {
          std::unique_lock lk(mutex);
          work_cv.wait(lk, [&] { return stop || generation != seen; });
          if (stop) return;
          seen = generation;
        }
        for (std::size_t i; (i = cursor.fetch_add(1)) < active.size();) {
          try {
            active[i]->run_until(horizon_, budget);
          } catch (...) {
            const std::lock_guard lk(mutex);
            if (!failure) failure = std::current_exception();
          }
        }
        const std::lock_guard lk(mutex);
        if (++finished == workers) done_cv.notify_one();
      }
    });
  }

  const std::uint64_t start = events_processed();
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
    cursor.store(0);
    {
      const std::uint64_t done = events_processed() - start;
      budget = done > max_events ? 1 : max_events - done + 1;
    }
    ++rounds_;
    {
      std::unique_lock lk(mutex);
      finished = 0;
      ++generation;
      work_cv.notify_all();
      done_cv.wait(lk, [&] { return finished == workers; });
    }
    if (failure || events_processed() - start > max_events)
      break;  // joined below
  }
  {
    std::unique_lock lk(mutex);
    stop = true;
    work_cv.notify_all();
  }
  for (std::thread& t : pool) t.join();
  if (failure) std::rethrow_exception(failure);
  if (events_processed() - start > max_events)
    throw std::runtime_error("sharded simulator event cap (livelock?)");
}

}  // namespace hlock::sim
