#include "harness/deadlock.hpp"

#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace hlock::harness {

void add_wait_edges(lockmgr::WaitForGraph& graph,
                    const std::vector<const core::HlsNode*>& nodes,
                    const std::function<NodeId(NodeId)>& rename) {
  // Union of materialized lock ids across the nodes: under lazy
  // materialization each node instantiates only the engines it touched,
  // and a lock is interesting exactly when someone touched it.
  std::set<LockId> locks;
  for (const core::HlsNode* node : nodes) {
    node->for_each_engine(
        [&locks](LockId lock, const core::HlsEngine&) { locks.insert(lock); });
  }

  for (const LockId lock : locks) {
    // Current holders of this lock (node -> strongest held mode).
    std::map<NodeId, Mode> holders;
    for (const core::HlsNode* node : nodes) {
      const core::HlsEngine* engine = node->find(lock);
      if (engine == nullptr) continue;
      const Mode held = engine->held_mode();
      if (held != Mode::kNone) holders[engine->self()] = held;
    }

    // Waiters: pending local requests plus everything queued anywhere.
    std::vector<std::pair<NodeId, Mode>> waiters;
    for (const core::HlsNode* node : nodes) {
      const core::HlsEngine* engine = node->find(lock);
      if (engine == nullptr) continue;
      if (engine->has_pending()) {
        waiters.emplace_back(engine->self(), engine->pending_request_mode());
      }
      const auto& queue = engine->queue();
      for (std::size_t j = 0; j < queue.size(); ++j) {
        if (queue[j].requester != engine->self()) {
          waiters.emplace_back(queue[j].requester, queue[j].mode);
        }
        // A queue is served in order, and Rule 6 freezes every mode that
        // conflicts with a queued request, so a request also waits for
        // each conflicting request ahead of it in the same queue — even
        // when every current holder is compatible with it.
        for (std::size_t i = 0; i < j; ++i) {
          if (queue[i].requester != queue[j].requester &&
              !compatible(queue[i].mode, queue[j].mode))
            graph.add_edge(rename(queue[j].requester),
                           rename(queue[i].requester));
        }
      }
    }

    for (const auto& [waiter, mode] : waiters) {
      for (const auto& [holder, held] : holders) {
        if (holder == waiter) continue;
        if (!compatible(held, mode))
          graph.add_edge(rename(waiter), rename(holder));
      }
    }
  }
}

lockmgr::WaitForGraph build_wait_graph(HlsCluster& cluster) {
  lockmgr::WaitForGraph graph;
  std::vector<const core::HlsNode*> nodes;
  nodes.reserve(cluster.node_count());
  for (std::size_t i = 0; i < cluster.node_count(); ++i)
    nodes.push_back(&cluster.node(i));
  add_wait_edges(graph, nodes, [](NodeId n) { return n; });
  return graph;
}

std::string describe_deadlock(HlsCluster& cluster) {
  const auto cycle = build_wait_graph(cluster).find_cycle();
  if (!cycle) return {};
  std::ostringstream os;
  os << "deadlock cycle:";
  for (const NodeId node : *cycle) os << " " << node;
  return os.str();
}

}  // namespace hlock::harness
