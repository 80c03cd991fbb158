// load_gen — a closed-loop lock-traffic client for a live hlock mesh.
//
// Where hlock_node is an interactive REPL for poking at one node,
// load_gen joins a mesh and hammers it: it runs a full protocol node
// (so the mesh's lock forest must be laid out identically on every
// participant) fronting S logical client sessions via SessionMux, each
// executing K ops of the paper's workload mix closed-loop, then prints
// an acquire-latency summary and the transport's [tcp-stats] line.
//
// A 3-node live measurement, one process per terminal:
//
//   ./load_gen --id 0 --port 7000 --peer 1=127.0.0.1:7001
//       --peer 2=127.0.0.1:7002 --entries 16 --sessions 8 --ops 200
//   ./load_gen --id 1 --port 7001 --peer 0=127.0.0.1:7000
//       --peer 2=127.0.0.1:7002 --entries 16 --sessions 8 --ops 200
//   ./load_gen --id 2 ... (and so on)
//
// Every process must agree on --entries and the mesh membership: lock l
// (table = 0, entries 1..E) starts rooted at node l % cluster_size.
// The mesh and transport timing flags (--id, --port, --peer,
// --reconnect-{min,max}-ms, --heartbeat-ms, --idle-timeout-ms) are the
// ones hlock_node takes (tools/node_flags.hpp).
//
// bench/live_bench runs this same workload in-process for a fixed wall
// time per repetition; load_gen is the multi-process, real-network
// variant.
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/hls_node.hpp"
#include "lockmgr/resource.hpp"
#include "lockmgr/session_mux.hpp"
#include "net/tcp_node.hpp"
#include "node_flags.hpp"

using namespace hlock;

namespace {

struct Options : tools::NodeFlags {
  std::uint32_t entries{16};
  std::uint32_t sessions{8};
  std::uint32_t ops{100};  ///< per logical session
  std::uint32_t cs_us{0};
  std::uint64_t seed{42};
  std::uint32_t settle_ms{500};  ///< wait for mesh connectivity
};

Options parse_args(int argc, char** argv) {
  Options opt;
  tools::parse_node_flags(
      argc, argv, opt,
      [&opt](const std::string& arg,
             const std::function<std::string()>& value) {
        if (arg == "--entries") {
          opt.entries = tools::flag_u32(arg, value());
        } else if (arg == "--sessions") {
          opt.sessions = tools::flag_u32(arg, value());
        } else if (arg == "--ops") {
          opt.ops = tools::flag_u32(arg, value());
        } else if (arg == "--cs-us") {
          opt.cs_us = tools::flag_u32(arg, value());
        } else if (arg == "--seed") {
          opt.seed = tools::flag_u32(arg, value());
        } else if (arg == "--settle-ms") {
          opt.settle_ms = tools::flag_u32(arg, value());
        } else {
          return false;
        }
        return true;
      });
  if (opt.sessions == 0 || opt.ops == 0 || opt.entries == 0)
    throw std::invalid_argument("--sessions/--ops/--entries must be nonzero");
  return opt;
}

/// The paper's op mix: IR/R/U/IW/W = 80/10/4/5/1.
lockmgr::Op draw_op(Rng& rng, const Options& opt) {
  lockmgr::Op op;
  const std::uint64_t r = rng.next_below(100);
  if (r < 80) op.kind = lockmgr::OpKind::kEntryRead;
  else if (r < 90) op.kind = lockmgr::OpKind::kTableRead;
  else if (r < 94) op.kind = lockmgr::OpKind::kTableUpgrade;
  else if (r < 99) op.kind = lockmgr::OpKind::kEntryWrite;
  else op.kind = lockmgr::OpKind::kTableWrite;
  op.entry = static_cast<std::uint32_t>(rng.next_below(opt.entries));
  op.cs = usec(opt.cs_us);
  return op;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    opt = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  net::TcpNode node(NodeId{opt.id}, opt.port, opt.tcp);
  std::cout << "load_gen node " << opt.id << " listening on 127.0.0.1:"
            << node.listen_port() << "\n";
  node.set_peers(opt.peers);

  const std::uint32_t cluster_size =
      static_cast<std::uint32_t>(opt.peers.size()) + 1;
  lockmgr::ResourceLayout layout(opt.entries);
  core::HlsNode hls(NodeId{opt.id}, node.transport());
  for (std::uint32_t l = 0; l < layout.lock_count(); ++l) {
    hls.add_lock(LockId{l}, NodeId{l % cluster_size});
  }
  lockmgr::SessionMux mux(hls, layout, node.loop(), opt.sessions);
  node.set_handler([&hls](const Message& m) { hls.handle(m); });

  std::thread loop([&] { node.loop().run(); });

  // Let the mesh converge before issuing ops: requests for locks rooted
  // elsewhere would otherwise queue into not-yet-connected peer windows
  // (correct, but it distorts the early latency samples).
  const auto settle_deadline = std::chrono::steady_clock::now() +
                               std::chrono::milliseconds(opt.settle_ms);
  while (node.connected_peers() < opt.peers.size() &&
         std::chrono::steady_clock::now() < settle_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (node.connected_peers() < opt.peers.size()) {
    std::cerr << "warning: only " << node.connected_peers() << "/"
              << opt.peers.size() << " peers connected after settle window\n";
  }

  struct Shared {
    Options* opt;
    lockmgr::SessionMux* mux;
    Rng rng;
    std::vector<std::uint32_t> ops_left;
    std::vector<double> latencies_us;  ///< loop thread only
    std::atomic<std::uint64_t> completed{0};
  } sh{&opt, &mux, Rng(opt.seed ^ (0x9e3779b97f4a7c15ULL * (opt.id + 1))),
       std::vector<std::uint32_t>(opt.sessions, opt.ops),
       {}, {}};
  sh.latencies_us.reserve(static_cast<std::size_t>(opt.sessions) * opt.ops);

  // Closed loop per session, running entirely on the event-loop thread.
  std::function<void(std::uint32_t)> pump = [&](std::uint32_t sid) {
    if (sh.ops_left[sid] == 0) return;
    --sh.ops_left[sid];
    const lockmgr::Op op = draw_op(sh.rng, opt);
    sh.mux->start(sid, op, [&, sid](const lockmgr::OpStats& st) {
      sh.latencies_us.push_back(static_cast<double>(st.acquire_latency));
      sh.completed.fetch_add(1, std::memory_order_relaxed);
      pump(sid);
    });
  };

  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint32_t sid = 0; sid < opt.sessions; ++sid) {
    node.loop().post([&pump, sid] { pump(sid); });
  }

  const std::uint64_t total =
      static_cast<std::uint64_t>(opt.sessions) * opt.ops;
  std::uint64_t last_report = 0;
  while (sh.completed.load(std::memory_order_relaxed) < total) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    const std::uint64_t done = sh.completed.load(std::memory_order_relaxed);
    if (done - last_report >= total / 10 + 1) {
      std::cout << "  " << done << "/" << total << " ops\n";
      last_report = done;
    }
  }
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Drain: every accepted send delivered and acked before the stats line.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (node.unacked() != 0 &&
         std::chrono::steady_clock::now() < drain_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  node.loop().stop();
  loop.join();

  Summary lat;
  for (const double v : sh.latencies_us) lat.add(v);
  lat.seal();
  std::cout << "completed " << sh.completed.load() << " ops in " << wall_s
            << " s (" << (wall_s > 0 ? sh.completed.load() / wall_s : 0)
            << " ops/s)\n"
            << "acquire latency us: p50=" << lat.percentile(0.50)
            << " p95=" << lat.percentile(0.95)
            << " p99=" << lat.percentile(0.99) << " mean=" << lat.mean()
            << " max=" << lat.max() << "\n";
  std::cerr << "[tcp-stats] node=" << opt.id << " delivered="
            << node.delivered() << " " << to_string(node.stats()) << "\n";
  return node.unacked() == 0 ? 0 : 1;
}
