#include "harness/sweep_runner.hpp"

#include <atomic>
#include <exception>
#include <thread>

namespace hlock::harness {

namespace {

void hash_mix(std::size_t& h, std::size_t v) {
  // boost::hash_combine's mixer — good enough for bucket spreading; the
  // map compares full SweepPoints, so collisions only cost a probe.
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

}  // namespace

std::size_t SweepRunner::PointHash::operator()(const SweepPoint& p) const {
  const workload::WorkloadSpec& s = p.config.spec;
  const core::EngineOptions& e = p.config.engine_opts;
  std::size_t h = static_cast<std::size_t>(p.protocol);
  hash_mix(h, p.config.nodes);
  hash_mix(h, static_cast<std::size_t>(p.config.latency));
  hash_mix(h, std::hash<double>{}(p.config.loss_rate));
  hash_mix(h, static_cast<std::size_t>(s.cs_mean));
  hash_mix(h, static_cast<std::size_t>(s.idle_mean));
  hash_mix(h, static_cast<std::size_t>(s.net_latency_mean));
  hash_mix(h, std::hash<double>{}(s.p_entry_read));
  hash_mix(h, std::hash<double>{}(s.p_table_read));
  hash_mix(h, std::hash<double>{}(s.p_upgrade));
  hash_mix(h, std::hash<double>{}(s.p_entry_write));
  hash_mix(h, std::hash<double>{}(s.p_table_write));
  hash_mix(h, s.entries_per_node);
  hash_mix(h, std::hash<double>{}(s.home_bias));
  hash_mix(h, s.ops_per_node);
  hash_mix(h, static_cast<std::size_t>(s.seed));
  hash_mix(h, (static_cast<std::size_t>(e.allow_child_grants) << 0) |
                  (static_cast<std::size_t>(e.allow_local_queues) << 1) |
                  (static_cast<std::size_t>(e.enable_freezing) << 2) |
                  (static_cast<std::size_t>(e.lazy_release) << 3) |
                  (static_cast<std::size_t>(e.enable_priorities) << 4) |
                  (static_cast<std::size_t>(e.locality_bias) << 5) |
                  (static_cast<std::size_t>(e.locality_fairness_cap) << 6));
  hash_mix(h, p.config.clusters);
  hash_mix(h, static_cast<std::size_t>(p.config.placement));
  hash_mix(h, static_cast<std::size_t>(p.config.intra_latency_mean));
  hash_mix(h, static_cast<std::size_t>(p.config.inter_latency_mean));
  return h;
}

SweepPoint make_point(Protocol protocol, std::size_t nodes,
                      const workload::WorkloadSpec& spec,
                      const core::EngineOptions& opts) {
  SweepPoint p;
  p.protocol = protocol;
  p.config.nodes = nodes;
  p.config.spec = spec;
  p.config.engine_opts = opts;
  return p;
}

SweepRunner::SweepRunner(SweepOptions options) : options_(options) {
  threads_ = options.threads != 0 ? options.threads
                                  : std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
  if (options_.repeat < 1) options_.repeat = 1;
}

ExperimentResult SweepRunner::evaluate(const SweepPoint& point) const {
  ExperimentResult result;
  for (int i = 0; i < options_.repeat; ++i)
    result = run_experiment(point.protocol, point.config);
  return result;
}

ExperimentResult SweepRunner::memoized(const SweepPoint& point) {
  std::promise<ExperimentResult> promise;
  {
    std::unique_lock<std::mutex> lock(memo_mutex_);
    const auto it = memo_.find(point);
    if (it != memo_.end()) {
      ++memo_hits_;
      const std::shared_future<ExperimentResult> future = it->second;
      // Wait outside the lock: the producing task is already running on
      // some worker, never stuck behind us in the queue.
      lock.unlock();
      return future.get();
    }
    ++memo_misses_;
    memo_.emplace(point, promise.get_future().share());
  }
  try {
    ExperimentResult result = evaluate(point);
    promise.set_value(result);
    return result;
  } catch (...) {
    promise.set_exception(std::current_exception());
    throw;
  }
}

void SweepRunner::for_each_index(std::size_t count,
                                 const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  const std::size_t workers = std::min(threads_, count);
  if (workers <= 1) {
    // Serial fast path: --threads 1 must cost exactly what a plain loop
    // costs (no thread spawn, no atomics on the critical path).
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> guard(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (std::size_t t = 1; t < workers; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::vector<ExperimentResult> SweepRunner::run(
    const std::vector<SweepPoint>& points) {
  // repeat > 1 exists to measure wall clock; serving a repeat from the
  // cache would report a no-op's timing.
  const bool use_memo = options_.memoize && options_.repeat == 1;
  std::vector<ExperimentResult> results(points.size());
  for_each_index(points.size(), [&](std::size_t i) {
    results[i] = use_memo ? memoized(points[i]) : evaluate(points[i]);
  });
  return results;
}

}  // namespace hlock::harness
