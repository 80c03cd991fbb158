// What one benchmark invocation reports: named metrics with units, the
// correctness checks it ran, op counts, and the machine and build it ran
// on. main() prints it as human-readable lines followed by one
// `RESULT {...}` JSON line that perfbench/run.py turns into the final
// result object.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10};
  bool trace{false};
  std::string spans_path;  ///< where a traced run writes its spans
};

class Report {
 public:
  struct Metric {
    double value{0};
    std::string unit;
  };

  void set(const std::string& name, double value, const std::string& unit);
  /// Record a correctness check; a false `ok` fails the whole run.
  void check(bool ok, const std::string& what);
  /// A free-form line for the human-readable part of the output.
  void note(const std::string& line) { notes_.push_back(line); }

  /// Ops the run attempted and ops that failed, timed out or never
  /// completed. A failed check counts every attempted op as failed.
  void count_ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  [[nodiscard]] bool correct() const { return failures_.empty(); }
  [[nodiscard]] const std::map<std::string, Metric>& metrics() const {
    return metrics_;
  }

  void print(std::ostream& os, const RunArgs& args) const;

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
  std::uint64_t checks_{0};
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A 64-bit seed mixed from the command-line seed and a per-use salt
/// (splitmix64), so nearby seeds give unrelated workload streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

}  // namespace perfbench
