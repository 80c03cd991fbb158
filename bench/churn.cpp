// Membership churn bench: a write-contended lock while nodes keep
// departing. A departure is a view change: the leaver holds nothing and
// waits for nothing, stops driving the lock, and every survivor recovers
// without it. Measures how a departure wave affects acquisition latency
// and what the view changes cost in messages, and exits 1 unless every
// node but one left and every acquisition was served.
#include <iostream>
#include <iterator>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench/cli.hpp"
#include "common/stats.hpp"
#include "harness/sweep_runner.hpp"
#include "core/hls_engine.hpp"
#include "harness/experiment.hpp"
#include "sim/simnet.hpp"
#include "sim/simulator.hpp"

using namespace hlock;

namespace {

struct ChurnRig {
  explicit ChurnRig(std::size_t n)
      : net(sim, std::make_unique<sim::UniformLatency>(msec(15)), Rng(23)) {
    gone.assign(n, false);
    rounds.assign(n, 0);
    issued_at.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      transports.push_back(std::make_unique<sim::SimTransport>(net, id));
      engines.push_back(std::make_unique<core::HlsEngine>(
          LockId{0}, id, NodeId{0}, *transports.back()));
      core::HlsEngine* raw = engines.back().get();
      // A node that left no longer drives the lock: stray traffic to it
      // is dropped unread.
      net.register_node(id, [this, i, raw](const Message& m) {
        if (!gone[i]) raw->handle(m);
      });
    }
  }

  void on_acquired(std::size_t i, RequestId rid) {
    latency.add(to_ms(sim.now() - issued_at[i]));
    sim.schedule_after(msec(3), [this, i, rid] {
      engines[i]->unlock(rid);
      next(i);
    });
  }

  void next(std::size_t i) {
    if (gone[i]) return;
    if (rounds[i]-- <= 0) {
      if (live() > 1) depart(i);
      return;  // left, or the last node stops requesting
    }
    sim.schedule_after(msec(10), [this, i] {
      if (gone[i]) return;
      issued_at[i] = sim.now();
      (void)engines[i]->request_lock(
          Mode::kW, [this, i](RequestId rid, Mode) { on_acquired(i, rid); });
    });
  }

  /// Node i leaves: every survivor begins the next view without it, the
  /// new root (the lowest survivor) first.
  void depart(std::size_t i) {
    const core::HlsEngine& leaver = *engines[i];
    if (!leaver.holds().empty() || leaver.has_pending() ||
        leaver.backlog_size() != 0)
      throw std::logic_error("a departing node must be drained");
    gone[i] = true;
    ++departures;
    ++view;
    std::set<NodeId> survivors;
    for (std::size_t k = 0; k < engines.size(); ++k) {
      if (!gone[k]) survivors.insert(NodeId{static_cast<std::uint32_t>(k)});
    }
    const NodeId root = *survivors.begin();
    for (const NodeId s : survivors) {
      engines[s.value]->begin_recovery(view, root, survivors);
    }
  }

  [[nodiscard]] std::size_t live() const {
    std::size_t n = 0;
    for (const bool d : gone) n += d ? 0 : 1;
    return n;
  }

  void run(int rounds_per_node) {
    for (std::size_t i = 0; i < engines.size(); ++i) {
      // Stagger departures: node i leaves after (i+1)*rounds ops.
      rounds[i] = static_cast<int>(i + 1) * rounds_per_node;
      next(i);
    }
    sim.run_all();
  }

  sim::Simulator sim;
  sim::SimNetwork net;
  std::vector<std::unique_ptr<sim::SimTransport>> transports;
  std::vector<std::unique_ptr<core::HlsEngine>> engines;
  std::vector<bool> gone;
  std::vector<int> rounds;
  std::vector<TimePoint> issued_at;
  Summary latency;
  std::size_t departures{0};
  std::uint32_t view{0};
};

}  // namespace

int main(int argc, char** argv) {
  const bench::CliOptions cli = bench::parse_cli(
      argc, argv, "usage: churn [--threads N]\n");
  const std::size_t node_counts[] = {4, 8, 16, 32};
  const std::size_t count = std::size(node_counts);

  std::vector<std::vector<std::string>> rows(count);
  std::vector<std::string> failures(count);
  harness::SweepRunner runner(bench::sweep_options(cli));
  runner.for_each_index(count, [&](std::size_t i) {
    const std::size_t n = node_counts[i];
    ChurnRig rig(n);
    rig.run(4);
    rows[i] = {std::to_string(n), std::to_string(rig.departures),
               std::to_string(rig.latency.count()),
               harness::TablePrinter::num(rig.latency.mean(), 1),
               harness::TablePrinter::num(rig.latency.percentile(0.95), 1),
               std::to_string(rig.net.messages_sent())};
    // Node k acquires (k + 1) * 4 times before it departs.
    const std::size_t want_acquisitions = 2 * n * (n + 1);
    if (rig.departures != n - 1 || rig.latency.count() != want_acquisitions) {
      failures[i] = "n=" + std::to_string(n) + ": " +
                    std::to_string(rig.departures) + " departures (want " +
                    std::to_string(n - 1) + "), " +
                    std::to_string(rig.latency.count()) +
                    " acquisitions (want " +
                    std::to_string(want_acquisitions) + ")";
    }
  });

  std::cout << "Membership churn: W-contended lock, staggered departures "
               "(each a view change) until one node remains\n\n";
  harness::TablePrinter table({"nodes", "departures", "acquisitions",
                               "mean wait ms", "p95 ms", "total msgs"});
  for (const auto& row : rows) table.row(row);
  table.print(std::cout);
  std::cout << "\nexpected: every node but one departs; acquisitions keep "
               "flowing throughout (no token loss, no stalls)\n";
  bool ok = true;
  for (const std::string& f : failures) {
    if (f.empty()) continue;
    std::cerr << "churn: FAILED " << f << "\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
