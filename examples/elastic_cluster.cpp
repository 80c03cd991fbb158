// Elastic cluster: nodes depart while lock traffic keeps flowing — a
// departure is a view change over real TCP sockets.
//
//   $ ./elastic_cluster [nodes] [rounds]
//
// All nodes hammer a shared lock; once done, the highest-numbered active
// node leaves: it holds nothing and waits for nothing, and every survivor
// recovers into the next view without it, the new root (node 0, the
// lowest survivor) first. The run ends with a single node still able to
// take the lock.
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "corba/concurrency.hpp"
#include "net/cluster.hpp"

using namespace hlock;

int main(int argc, char** argv) {
  // Strict parses (PR 4 convention): "5x" or "abc" is a usage error, not
  // a silently misparsed 5 or 0.
  std::size_t nodes = 5;
  int rounds = 6;
  if (argc > 1) {
    const auto v = try_parse_size(argv[1]);
    if (!v) {
      std::cerr << "usage: elastic_cluster [nodes] [rounds] — nodes must be "
                   "an unsigned integer, got '"
                << argv[1] << "'\n";
      return 2;
    }
    nodes = *v;
  }
  if (argc > 2) {
    const auto v = try_parse_int(argv[2]);
    if (!v || *v < 0) {
      std::cerr << "usage: elastic_cluster [nodes] [rounds] — rounds must be "
                   "a non-negative integer, got '"
                << argv[2] << "'\n";
      return 2;
    }
    rounds = *v;
  }
  if (nodes < 2) {
    std::cerr << "need at least 2 nodes\n";
    return 2;
  }

  const LockId kLock{0};
  net::InProcessCluster cluster(nodes);
  std::vector<std::unique_ptr<corba::ConcurrencyService>> services;
  for (std::size_t i = 0; i < nodes; ++i) {
    services.push_back(
        std::make_unique<corba::ConcurrencyService>(cluster.node(i)));
    services.back()->create_lock_set(kLock, NodeId{0});
  }

  std::atomic<std::size_t> active{nodes};
  std::atomic<std::uint64_t> acquisitions{0};
  std::atomic<int> in_cs{0};
  std::atomic<bool> overlap{false};

  std::vector<std::thread> workers;
  for (std::size_t i = 0; i < nodes; ++i) {
    workers.emplace_back([&, i] {
      corba::LockSet set = services[i]->lock_set(kLock);
      for (int r = 0; r < rounds; ++r) {
        const corba::LockHandle h = set.lock(corba::LockMode::kWrite);
        if (in_cs.fetch_add(1) != 0) overlap.store(true);
        acquisitions.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        in_cs.fetch_sub(1);
        set.unlock(h);
      }
      // Nodes 1..n-1 depart in reverse order once done; node 0 stays.
      if (i != 0) {
        // Wait until every higher-numbered node has left, so view
        // changes run one at a time with increasing view numbers.
        while (active.load() != i + 1) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        std::set<NodeId> survivors;
        for (std::size_t k = 0; k < i; ++k)
          survivors.insert(NodeId{static_cast<std::uint32_t>(k)});
        const auto view = static_cast<std::uint32_t>(nodes - i);
        for (const NodeId s : survivors)  // node 0, the new root, first
          services[s.value]->recover(kLock, view, NodeId{0}, survivors);
        std::cout << "node " << i << " left\n";
        active.fetch_sub(1);
      }
    });
  }
  for (auto& t : workers) t.join();

  // Only node 0 remains: the token must be reachable for it.
  corba::LockSet last = services[0]->lock_set(kLock);
  const corba::LockHandle h = last.lock(corba::LockMode::kWrite);
  last.unlock(h);

  std::cout << "acquisitions " << acquisitions.load() << " (expected "
            << nodes * static_cast<std::uint64_t>(rounds) << ")\n"
            << "mutual-exclusion overlap: "
            << (overlap.load() ? "YES (BUG)" : "none") << "\n";
  cluster.stop();
  const bool ok = !overlap.load() &&
                  acquisitions.load() ==
                      nodes * static_cast<std::uint64_t>(rounds);
  std::cout << (ok ? "OK\n" : "FAILED\n");
  return ok ? 0 : 1;
}
