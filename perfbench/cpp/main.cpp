// hlock_perfbench — runs one benchmark workload and reports it.
//
//   hlock_perfbench --workload fig5_sim|forest|live_mesh|sweep
//                   --seed N --seconds S --trace 0|1 [--spans FILE]
//
// Prints human-readable lines, then one `RESULT {...}` JSON line with the
// metrics, the correctness verdict, op counts and the machine and build.
// Exits 0 when every correctness check passed, 1 when one failed, 2 on a
// usage error, 3 when built without NDEBUG (timings from such a build are
// refused). perfbench/run.py builds this binary and turns its RESULT line
// into the benchmark's result object.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/parse.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

constexpr const char* kUsage =
    "usage: hlock_perfbench --workload fig5_sim|forest|live_mesh|sweep\n"
    "                       --seed N --seconds S --trace 0|1 [--spans FILE]\n";

[[noreturn]] void usage_error(const std::string& what) {
  std::cerr << "hlock_perfbench: " << what << "\n" << kUsage;
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::cerr << "hlock_perfbench: built without NDEBUG; refusing to report "
               "timings from an unoptimised build\n";
  return 3;
#endif
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      args.workload = value;
    } else if (arg == "--seed") {
      const auto v = hlock::try_parse_u64(value);
      if (!v) usage_error("--seed expects an unsigned integer");
      args.seed = *v;
    } else if (arg == "--seconds") {
      const auto v = hlock::try_parse_double(value);
      if (!v || *v <= 0 || *v > 600) usage_error("--seconds expects (0, 600]");
      args.seconds = *v;
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace expects 0 or 1");
      args.trace = value == "1";
    } else if (arg == "--spans") {
      args.spans_path = value;
    } else {
      usage_error("unknown argument " + arg);
    }
  }

  void (*run)(const perfbench::RunArgs&, perfbench::Report&) = nullptr;
  if (args.workload == "fig5_sim") run = perfbench::run_fig5_sim;
  if (args.workload == "forest") run = perfbench::run_forest;
  if (args.workload == "live_mesh") run = perfbench::run_live_mesh;
  if (args.workload == "sweep") run = perfbench::run_sweep;
  if (run == nullptr) usage_error("unknown workload '" + args.workload + "'");

  perfbench::Report report;
  try {
    run(args, report);
  } catch (const std::exception& e) {
    report.check(false, std::string("workload threw: ") + e.what());
  }
  report.print(std::cout, args);
  std::cout.flush();
  return report.correct() ? 0 : 1;
}
