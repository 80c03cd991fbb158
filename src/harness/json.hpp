// Minimal JSON emission for experiment results (no external deps) — the
// machine-readable counterpart of the ASCII tables, for plotting
// pipelines.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "harness/metrics.hpp"

namespace hlock::harness {

/// Render a double as a JSON token: shortest round-trip-exact decimal
/// (std::to_chars — parsing it back yields the identical bits), and
/// `null` for NaN/inf, which bare stream output would print as invalid
/// JSON (`nan`/`inf`).
std::string json_double(double v);

/// Serialize one result as a JSON object (single line).
std::string to_json(const ExperimentResult& result);

/// Write an array of results (e.g. one per node-count of a sweep).
void write_json_array(std::ostream& os,
                      const std::vector<ExperimentResult>& results);

/// One wall-clock timing sample: how fast the simulator executed a
/// point, plus the (seed-invariant) virtual-behavior counts that let a
/// reader verify two runs simulated the same thing. Produced by
/// bench/throughput; any future bench needing per-repetition timing
/// output shares this writer instead of hand-rolling an emitter.
struct TimingSample {
  std::string protocol;
  std::size_t nodes{0};
  double wall_ms{0};       ///< best wall time across repetitions
  std::uint64_t events{0};  ///< simulator events in one run
  ExperimentResult result;

  [[nodiscard]] double events_per_sec() const {
    return static_cast<double>(events) / (wall_ms / 1000.0);
  }
  [[nodiscard]] double acquires_per_sec() const {
    return static_cast<double>(result.lock_requests) / (wall_ms / 1000.0);
  }
};

/// Serialize one timing sample as a JSON object (single line); the format
/// of the `samples` entries in BENCH_throughput.json.
std::string to_json(const TimingSample& sample);

/// Write an array of timing samples (one per swept point).
void write_json_array(std::ostream& os,
                      const std::vector<TimingSample>& samples);

}  // namespace hlock::harness
