#include "report.hpp"

#include <sys/resource.h>

#include <cmath>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string v = line.substr(colon + 1);
        v.erase(0, v.find_first_not_of(' '));
        return v;
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return __VERSION__;
#endif
}

}  // namespace

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  check(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = Metric{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::print(std::ostream& os, const RunArgs& args) const {
  const std::uint64_t failed = correct() ? failed_ : attempted_;
  const double ratio = attempted_ == 0
                           ? 1.0
                           : static_cast<double>(failed) /
                                 static_cast<double>(attempted_);
  const std::string env =
      "{\"workload\":" + json_string(args.workload) +
      ",\"seed\":" + std::to_string(args.seed) +
      ",\"seconds\":" + json_number(args.seconds) +
      ",\"trace\":" + (args.trace ? "1" : "0") +
      ",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
      ",\"cpu\":" + json_string(cpu_model()) +
      ",\"compiler\":" + json_string(compiler()) +
      ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE) + "}";

  os << "perfbench " << args.workload << " seed=" << args.seed
     << " seconds=" << args.seconds << " trace=" << args.trace << "\n";
  os << "machine nproc=" << std::thread::hardware_concurrency() << " cpu=\""
     << cpu_model() << "\" compiler=\"" << compiler()
     << "\" build=" << PERFBENCH_BUILD_TYPE << "\n";
  for (const std::string& n : notes_) os << "  " << n << "\n";
  for (const auto& [name, m] : metrics_)
    os << "  " << std::left << std::setw(40) << name << " "
       << std::setprecision(6) << m.value << " " << m.unit << "\n";
  os << "  failed_op_ratio " << ratio << " (" << failed << "/" << attempted_
     << ")\n";
  os << "  checks " << checks_ - failures_.size() << "/" << checks_
     << " passed\n";
  for (const std::string& f : failures_) os << "  CHECK FAILED: " << f << "\n";

  os << "RESULT {\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted_ << ",\"failed\":" << failed
     << ",\"env\":" << env << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    os << (first ? "" : ",") << json_string(name) << ":{\"value\":"
       << json_number(m.value) << ",\"unit\":" << json_string(m.unit) << "}";
    first = false;
  }
  os << "}}\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
