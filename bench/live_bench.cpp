// live_bench — the live lock service end to end over real sockets: a
// small in-process mesh of TcpNodes on loopback, each fronting many
// logical client sessions (lockmgr::SessionMux over one HlsNode), under
// sustained closed-loop lock/unlock traffic on the paper's op mix.
//
// Each repetition builds a fresh mesh with the default transport config,
// waits for it to connect, and lets every session run closed-loop for
// --seconds of wall time. Then the sessions stop issuing, in-flight ops
// complete and every accepted send must be acked. A repetition reports
// ops/s (ops completed inside the window, over the window) and the
// acquire-latency p50/p99 of those ops; the summary gives the median,
// min and max of each over --repeat repetitions, with nproc and the CPU
// model.
//
// --json emits the BENCH_live.json document; the CI smoke job asserts
// completed ops > 0 and zero lost sends (unacked == 0 after drain).
//
// Latency and throughput are wall-clock and machine-dependent: compare
// runs on one machine only.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/cli.hpp"
#include "common/parse.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hls_node.hpp"
#include "harness/json.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "net/cluster.hpp"

using namespace hlock;

namespace {

struct BenchConfig {
  std::size_t nodes = 3;
  std::uint32_t sessions = 8;  ///< logical clients per node
  std::uint32_t entries = 16;
  Duration cs = 0;             ///< critical-section dwell
  double seconds = 2.0;        ///< measured window per repetition
  int repeat = 3;
  std::uint64_t seed = 42;
  bool json = false;
};

/// Spin until `done` holds or `limit_s` elapses; true on success.
template <typename Pred>
bool wait_for(Pred done, double limit_s) {
  const auto t0 = std::chrono::steady_clock::now();
  while (!done()) {
    if (std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count() > limit_s)
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return true;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) break;
    std::string v;
    for (const char c : line.substr(line.find_first_not_of(' ', colon + 1)))
      if (c != '"' && c != '\\') v += c;  // keep the JSON string valid
    return v;
  }
  return "unknown";
}

/// The paper's op mix (§4): IR/R/U/IW/W = 80/10/4/5/1.
lockmgr::Op draw_op(Rng& rng, const BenchConfig& cfg) {
  lockmgr::Op op;
  const std::uint64_t r = rng.next_below(100);
  if (r < 80) op.kind = lockmgr::OpKind::kEntryRead;
  else if (r < 90) op.kind = lockmgr::OpKind::kTableRead;
  else if (r < 94) op.kind = lockmgr::OpKind::kTableUpgrade;
  else if (r < 99) op.kind = lockmgr::OpKind::kEntryWrite;
  else op.kind = lockmgr::OpKind::kTableWrite;
  op.entry = static_cast<std::uint32_t>(rng.next_below(cfg.entries));
  op.cs = cfg.cs;
  return op;
}

struct ServiceNode {
  std::unique_ptr<core::HlsNode> hls;
  std::unique_ptr<lockmgr::SessionMux> mux;
  std::vector<double> latencies_us;  ///< loop thread writes
  Rng rng{0};
};

struct Mesh {
  const BenchConfig& cfg;
  std::vector<ServiceNode> svc;
  std::atomic<bool> stopping{false};
  std::atomic<std::uint64_t> started{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> in_window{0};  ///< completed before stopping

  explicit Mesh(const BenchConfig& c) : cfg(c), svc(c.nodes) {}

  /// Closed loop, one logical session: finish an op, start the next until
  /// the window closes. Runs on the owning node's loop thread throughout.
  /// `started` is bumped before `stopping` is read (both seq_cst), so once
  /// the main thread has set `stopping`, started == completed means no op
  /// is in flight and none will start.
  void pump(std::size_t node, std::uint32_t sid) {
    started.fetch_add(1);
    if (stopping.load()) {
      started.fetch_sub(1);
      return;
    }
    ServiceNode& sn = svc[node];
    sn.mux->start(sid, draw_op(sn.rng, cfg),
                  [this, node, sid](const lockmgr::OpStats& st) {
                    if (!stopping.load(std::memory_order_relaxed)) {
                      svc[node].latencies_us.push_back(
                          static_cast<double>(st.acquire_latency));
                      in_window.fetch_add(1, std::memory_order_relaxed);
                    }
                    completed.fetch_add(1);
                    pump(node, sid);
                  });
  }
};

struct RepResult {
  net::TcpStats stats;
  std::uint64_t window_ops{0};  ///< completed inside the window
  std::uint64_t ops{0};         ///< completed in all, drain included
  std::uint64_t unacked{0};
  double window_s{0};
  Summary latency;  ///< acquire latency of the window's ops, us
  [[nodiscard]] double ops_per_sec() const {
    return window_s > 0 ? static_cast<double>(window_ops) / window_s : 0;
  }
};

RepResult run_repetition(const BenchConfig& cfg, int rep) {
  net::InProcessCluster cluster(cfg.nodes);
  lockmgr::ResourceLayout layout(cfg.entries);
  Mesh mesh(cfg);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    ServiceNode& sn = mesh.svc[i];
    net::TcpNode& tcp = cluster.node(i);
    sn.hls = std::make_unique<core::HlsNode>(
        NodeId{static_cast<std::uint32_t>(i)}, tcp.transport());
    // Deterministic layout, identical on every node: lock l starts
    // rooted at node l % N.
    for (std::uint32_t l = 0; l < layout.lock_count(); ++l) {
      sn.hls->add_lock(LockId{l},
                       NodeId{l % static_cast<std::uint32_t>(cfg.nodes)});
    }
    sn.mux = std::make_unique<lockmgr::SessionMux>(*sn.hls, layout,
                                                   tcp.loop(), cfg.sessions);
    sn.rng = Rng((cfg.seed + static_cast<std::uint64_t>(rep)) ^
                 (0x9e3779b97f4a7c15ULL * (i + 1)));
    // All protocol traffic flows through the node's loop thread, which
    // keeps the engines' single-threaded contract.
    ServiceNode* raw = &sn;
    tcp.set_handler([raw](const Message& m) { raw->hls->handle(m); });
  }
  const bool connected = wait_for(
      [&] {
        for (std::size_t i = 0; i < cfg.nodes; ++i)
          if (cluster.node(i).connected_peers() + 1 < cfg.nodes) return false;
        return true;
      },
      10.0);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    for (std::uint32_t sid = 0; sid < cfg.sessions; ++sid) {
      cluster.node(i).loop().post([&mesh, i, sid] { mesh.pump(i, sid); });
    }
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg.seconds));
  mesh.stopping.store(true);
  const double window_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  // Drain: in-flight ops complete, then every accepted send is provably
  // delivered before the counters are read ("zero lost sends").
  const bool ops_done = wait_for(
      [&] { return mesh.completed.load() == mesh.started.load(); }, 30.0);
  const bool acked = wait_for(
      [&] {
        for (std::size_t i = 0; i < cfg.nodes; ++i)
          if (cluster.node(i).unacked() != 0) return false;
        return true;
      },
      30.0);

  RepResult r;
  r.window_s = window_s;
  r.stats = cluster.total_stats();
  for (std::size_t i = 0; i < cfg.nodes; ++i)
    r.unacked += cluster.node(i).unacked();
  cluster.stop();
  r.window_ops = mesh.in_window.load();
  r.ops = mesh.completed.load();
  for (const ServiceNode& sn : mesh.svc)
    for (const double v : sn.latencies_us) r.latency.add(v);
  r.latency.seal();
  if (!connected || !ops_done || !acked || r.window_ops == 0) {
    std::cerr << "live_bench: repetition " << rep
              << " stalled (connected=" << connected
              << " window_ops=" << r.window_ops << " completed=" << r.ops
              << "/" << mesh.started.load() << " unacked=" << r.unacked
              << ")\n";
    std::exit(1);
  }
  return r;
}

/// Median, min and max of one figure over the repetitions.
std::string spread_json(const std::vector<RepResult>& reps,
                        double (*figure)(const RepResult&)) {
  Summary s;
  for (const RepResult& r : reps) s.add(figure(r));
  s.seal();
  using harness::json_double;
  return "{\"median\": " + json_double(s.percentile(0.5)) +
         ", \"min\": " + json_double(s.min()) +
         ", \"max\": " + json_double(s.max()) + "}";
}

double ops_per_sec(const RepResult& r) { return r.ops_per_sec(); }
double p50(const RepResult& r) { return r.latency.percentile(0.50); }
double p99(const RepResult& r) { return r.latency.percentile(0.99); }

std::string rep_json(const RepResult& r) {
  using harness::json_double;
  std::ostringstream os;
  os << "{\"ops_per_sec\": " << json_double(r.ops_per_sec())
     << ", \"acquire_p50_us\": " << json_double(p50(r))
     << ", \"acquire_p99_us\": " << json_double(p99(r))
     << ", \"window_ops\": " << r.window_ops
     << ", \"window_s\": " << json_double(r.window_s)
     << ", \"frames_out\": " << r.stats.frames_out
     << ", \"batches_written\": " << r.stats.batches_written
     << ", \"acks_standalone\": " << r.stats.acks_standalone
     << ", \"acks_piggybacked\": " << r.stats.acks_piggybacked
     << ", \"unacked\": " << r.unacked << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  const char* usage =
      "usage: live_bench [--nodes N] [--seconds S] [--repeat R] [--seed S]\n"
      "                  [--sessions S] [--entries E] [--cs-us U] [--json]\n"
      "  --nodes N      mesh size (default 3)\n"
      "  --seconds S    measured window per repetition (default 2)\n"
      "  --repeat R     repetitions, each on a fresh mesh (default 3)\n"
      "  --sessions S   logical client sessions per node (default 8)\n"
      "  --entries E    entry locks under the table lock (default 16)\n"
      "  --cs-us U      critical-section dwell per op (default 0)\n";
  bench::CliOptions defaults;
  defaults.nodes = cfg.nodes;
  defaults.seed = cfg.seed;
  defaults.repeat = cfg.repeat;
  std::uint32_t cs_us = 0;
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, usage, defaults,
      [&](const std::string& arg, const std::function<std::string()>& value) {
        const auto u32 = [&](const char* flag) {
          const auto v = try_parse_u32(value());
          if (!v) {
            std::cerr << flag << " expects an unsigned integer\n" << usage;
            std::exit(2);
          }
          return *v;
        };
        if (arg == "--sessions") { cfg.sessions = u32("--sessions"); return true; }
        if (arg == "--entries") { cfg.entries = u32("--entries"); return true; }
        if (arg == "--cs-us") { cs_us = u32("--cs-us"); return true; }
        if (arg == "--seconds") {
          const auto v = try_parse_double(value());
          if (!v || *v <= 0) {
            std::cerr << "--seconds expects a positive number\n" << usage;
            std::exit(2);
          }
          cfg.seconds = *v;
          return true;
        }
        return false;
      });
  cfg.nodes = cli.nodes;
  cfg.repeat = cli.repeat;
  cfg.seed = cli.seed;
  cfg.json = cli.json;
  cfg.cs = usec(cs_us);
  if (cfg.nodes < 2 || cfg.sessions == 0 || cfg.entries == 0) {
    std::cerr << "live_bench: need >= 2 nodes and nonzero sessions/entries\n";
    return 2;
  }

  std::vector<RepResult> reps;
  for (int rep = 0; rep < cfg.repeat; ++rep)
    reps.push_back(run_repetition(cfg, rep));
  std::uint64_t completed_ops = 0;
  std::uint64_t lost_sends = 0;
  for (const RepResult& r : reps) {
    completed_ops += r.ops;
    lost_sends += r.unacked;
  }
  const unsigned nproc = std::thread::hardware_concurrency();

  if (cfg.json) {
    std::ostringstream os;
    os << "{\n  \"bench\": \"live_bench\",\n  \"machine\": {\"nproc\": "
       << nproc << ", \"cpu_model\": \"" << cpu_model() << "\"},\n"
       << "  \"config\": {\"nodes\": " << cfg.nodes
       << ", \"sessions\": " << cfg.sessions
       << ", \"entries\": " << cfg.entries << ", \"cs_us\": " << cs_us
       << ", \"seconds\": " << harness::json_double(cfg.seconds)
       << ", \"repeat\": " << cfg.repeat << ", \"seed\": " << cfg.seed
       << "},\n  \"runs\": [";
    for (std::size_t i = 0; i < reps.size(); ++i)
      os << (i == 0 ? "\n    " : ",\n    ") << rep_json(reps[i]);
    os << "\n  ],\n  \"ops_per_sec\": " << spread_json(reps, ops_per_sec)
       << ",\n  \"acquire_p50_us\": " << spread_json(reps, p50)
       << ",\n  \"acquire_p99_us\": " << spread_json(reps, p99)
       << ",\n  \"completed_ops\": " << completed_ops
       << ",\n  \"lost_sends\": " << lost_sends << "\n}\n";
    std::cout << os.str();
  } else {
    std::cout << "machine: nproc=" << nproc << " cpu=\"" << cpu_model()
              << "\"\n";
    for (std::size_t i = 0; i < reps.size(); ++i)
      std::cout << "rep " << i << ": " << rep_json(reps[i]) << "\n";
    std::cout << "ops/s " << spread_json(reps, ops_per_sec)
              << "\nacquire p50 us " << spread_json(reps, p50)
              << "\nacquire p99 us " << spread_json(reps, p99)
              << "\ncompleted_ops=" << completed_ops
              << " lost_sends=" << lost_sends << "\n";
  }
  return 0;
}
