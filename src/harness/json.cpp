#include "harness/json.hpp"

#include <charconv>
#include <cmath>
#include <ostream>
#include <sstream>
#include <vector>

namespace hlock::harness {

std::string json_double(double v) {
  if (!std::isfinite(v)) return "null";
  // Shortest representation that parses back to the identical double —
  // "0.1" stays "0.1", but nothing is rounded away (the old default
  // 6-significant-digit stream output silently truncated every metric).
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  (void)ec;  // 32 bytes always fit the shortest double form
  return std::string(buf, ptr);
}

namespace {
void append_summary(std::ostringstream& os, const Summary& s) {
  os << "{\"count\":" << s.count() << ",\"mean\":" << json_double(s.mean())
     << ",\"min\":" << json_double(s.min())
     << ",\"max\":" << json_double(s.max())
     << ",\"p50\":" << json_double(s.percentile(0.5))
     << ",\"p95\":" << json_double(s.percentile(0.95))
     << ",\"stddev\":" << json_double(s.stddev()) << "}";
}

void append_counters(std::ostringstream& os, const CounterMap& counters) {
  os << "{";
  bool first = true;
  for (const auto& [kind, count] : counters.all()) {
    if (!first) os << ",";
    os << "\"" << kind << "\":" << count;
    first = false;
  }
  os << "}";
}
}  // namespace

std::string to_json(const ExperimentResult& r) {
  std::ostringstream os;
  os << "{\"nodes\":" << r.nodes << ",\"app_ops\":" << r.app_ops
     << ",\"lock_requests\":" << r.lock_requests
     << ",\"messages\":" << r.messages
     << ",\"wire_bytes\":" << r.wire_bytes
     << ",\"messages_dropped\":" << r.messages_dropped;
  // Topology split: present only for clustered runs (flat runs never
  // accumulate these, and omitting them keeps flat output byte-identical
  // to the pre-topology emitter).
  if (r.intra_cluster_messages != 0 || r.cross_cluster_messages != 0) {
    os << ",\"intra_cluster_messages\":" << r.intra_cluster_messages
       << ",\"cross_cluster_messages\":" << r.cross_cluster_messages
       << ",\"intra_cluster_bytes\":" << r.intra_cluster_bytes
       << ",\"cross_cluster_bytes\":" << r.cross_cluster_bytes
       << ",\"cross_cluster_fraction\":"
       << json_double(r.cross_cluster_fraction());
  }
  os << ",\"msgs_per_lock_request\":" << json_double(r.msgs_per_lock_request())
     << ",\"msgs_per_op\":" << json_double(r.msgs_per_op())
     << ",\"virtual_end_us\":" << r.virtual_end;
  os << ",\"messages_by_kind\":";
  append_counters(os, r.messages_by_kind);
  os << ",\"latency_factor\":";
  append_summary(os, r.latency_factor);
  os << ",\"latency_by_kind\":{";
  bool first = true;
  for (const auto& [kind, summary] : r.latency_by_kind) {
    if (!first) os << ",";
    os << "\"" << kind << "\":";
    append_summary(os, summary);
    first = false;
  }
  os << "}}";
  return os.str();
}

void write_json_array(std::ostream& os,
                      const std::vector<ExperimentResult>& results) {
  os << "[\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    os << "  " << to_json(results[i]);
    if (i + 1 < results.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

std::string to_json(const TimingSample& s) {
  std::ostringstream os;
  os << "{\"protocol\":\"" << s.protocol << "\",\"nodes\":" << s.nodes
     << ",\"wall_ms\":" << json_double(s.wall_ms) << ",\"events\":" << s.events
     << ",\"events_per_sec\":" << static_cast<std::uint64_t>(s.events_per_sec())
     << ",\"acquires_per_sec\":"
     << static_cast<std::uint64_t>(s.acquires_per_sec())
     << ",\"lock_requests\":" << s.result.lock_requests
     << ",\"messages\":" << s.result.messages
     << ",\"wire_bytes\":" << s.result.wire_bytes
     << ",\"virtual_end_us\":" << s.result.virtual_end
     << ",\"messages_by_kind\":";
  append_counters(os, s.result.messages_by_kind);
  os << "}";
  return os.str();
}

void write_json_array(std::ostream& os,
                      const std::vector<TimingSample>& samples) {
  os << "[\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    os << "  " << to_json(samples[i]);
    if (i + 1 < samples.size()) os << ",";
    os << "\n";
  }
  os << "]\n";
}

}  // namespace hlock::harness
