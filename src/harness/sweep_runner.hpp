// Parallel sweep execution.
//
// Every figure in the paper is a sweep of independent deterministic
// simulations; each point owns its whole world (Simulator, SimNetwork,
// RNG streams), so points can run on any thread in any order. SweepRunner
// is the shared execution layer for the bench binaries and tools: a
// work-queue thread pool that evaluates points concurrently and hands the
// results back in submission order, so tables and JSON output are
// byte-identical at any `--threads` value.
//
// On top of the pool sits an in-process memo cache keyed by the full
// point identity (protocol + every ClusterConfig field, compared
// field-wise — no hash-collision risk). Binaries that evaluate
// overlapping point sets (summary_claims' headline table vs its
// asymptote check, fig5 vs bandwidth-style re-runs) pay for each
// distinct run once; concurrent requests for the same point block on a
// shared future instead of computing twice.
#pragma once

#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/experiment.hpp"
#include "harness/metrics.hpp"

namespace hlock::harness {

/// One independent simulation run: a protocol plus the full cluster
/// configuration (nodes, workload spec, engine options, latency model,
/// loss rate).
struct SweepPoint {
  Protocol protocol{Protocol::kHls};
  ClusterConfig config{};

  bool operator==(const SweepPoint&) const = default;
};

/// Convenience maker mirroring run_experiment()'s signature.
SweepPoint make_point(Protocol protocol, std::size_t nodes,
                      const workload::WorkloadSpec& spec,
                      const core::EngineOptions& opts = {});

struct SweepOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency().
  std::size_t threads = 0;
  /// Reuse results for points already evaluated by this runner.
  bool memoize = true;
  /// Evaluate each point this many times (fresh cluster each time; the
  /// runs are bit-identical, so this only matters for wall-clock
  /// timing). repeat > 1 disables the memo cache — a cache hit would
  /// defeat the purpose of re-running.
  int repeat = 1;
};

class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {});

  /// Evaluate all points and return their results in submission order,
  /// regardless of the order the pool finishes them in.
  std::vector<ExperimentResult> run(const std::vector<SweepPoint>& points);

  /// Generic parallel map for benches with custom rigs (path_length,
  /// churn, recovery...): calls fn(i) for every i in [0, count) on the
  /// pool. fn must be self-contained per index — it builds its own
  /// simulator/rig and writes only to index-i slots of caller-owned
  /// storage. Never memoized.
  void for_each_index(std::size_t count,
                      const std::function<void(std::size_t)>& fn);

  [[nodiscard]] std::size_t threads() const { return threads_; }
  [[nodiscard]] std::size_t memo_hits() const { return memo_hits_; }
  [[nodiscard]] std::size_t memo_misses() const { return memo_misses_; }

 private:
  [[nodiscard]] ExperimentResult evaluate(const SweepPoint& point) const;
  [[nodiscard]] ExperimentResult memoized(const SweepPoint& point);

  SweepOptions options_;
  std::size_t threads_;

  std::mutex memo_mutex_;
  struct PointHash {
    std::size_t operator()(const SweepPoint& p) const;
  };
  /// First requester installs a promise-backed future and computes;
  /// later requesters (same or other threads) wait on the future. The
  /// computing task is always already running when a waiter blocks, so
  /// a fixed-size pool cannot deadlock on it.
  std::unordered_map<SweepPoint, std::shared_future<ExperimentResult>,
                     PointHash>
      memo_;
  std::size_t memo_hits_{0};
  std::size_t memo_misses_{0};
};

}  // namespace hlock::harness
