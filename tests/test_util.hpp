// Shared test scaffolding: an in-memory message bus with manual,
// inspectable delivery for deterministic protocol unit tests.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/types.hpp"
#include "msg/message.hpp"

namespace hlock::testing {

/// Synchronous test bus: send() enqueues, the test decides when (and in
/// which order) messages are delivered. Lets unit tests reproduce exact
/// message interleavings, including the paper's worked examples.
class TestBus {
 public:
  class Port final : public Transport {
   public:
    Port(TestBus& bus, NodeId self) : bus_(bus), self_(self) {}
    void send(NodeId to, Message m) override {
      m.from = self_;
      bus_.by_kind_[m.kind]++;
      bus_.queue_.push_back({self_, to, std::move(m)});
      ++bus_.total_sent_;
    }

   private:
    TestBus& bus_;
    NodeId self_;
  };

  struct InFlight {
    NodeId from;
    NodeId to;
    Message msg;
  };

  Port& port(NodeId id) {
    auto it = ports_.find(id);
    if (it == ports_.end()) {
      it = ports_.emplace(id, std::make_unique<Port>(*this, id)).first;
    }
    return *it->second;
  }

  void register_handler(NodeId id, std::function<void(const Message&)> fn) {
    handlers_[id] = std::move(fn);
  }

  [[nodiscard]] std::size_t pending() const { return queue_.size(); }
  [[nodiscard]] const std::deque<InFlight>& in_flight() const {
    return queue_;
  }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] std::uint64_t sent(MsgKind kind) const {
    const auto it = by_kind_.find(kind);
    return it == by_kind_.end() ? 0 : it->second;
  }

  /// Deliver the oldest in-flight message. Returns false when none remain.
  bool deliver_one() {
    if (queue_.empty()) return false;
    InFlight f = std::move(queue_.front());
    queue_.pop_front();
    const auto it = handlers_.find(f.to);
    if (it == handlers_.end())
      throw std::logic_error("message to node without handler");
    it->second(f.msg);
    return true;
  }

  /// Deliver message at `index` out of order (reordering tests).
  void deliver_at(std::size_t index) {
    if (index >= queue_.size()) throw std::out_of_range("no such message");
    InFlight f = std::move(queue_[index]);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(index));
    handlers_.at(f.to)(f.msg);
  }

  /// Deliver until the bus is empty (with a runaway guard).
  void deliver_all(std::size_t cap = 100000) {
    std::size_t n = 0;
    while (deliver_one()) {
      if (++n > cap) throw std::runtime_error("test bus livelock");
    }
  }

  /// Deliver the oldest message of a RANDOMLY chosen channel. Randomizes
  /// cross-channel interleavings while preserving the per-channel FIFO
  /// the protocol assumes. Returns false when nothing is in flight.
  template <typename RngT>
  bool deliver_random(RngT& rng) {
    if (queue_.empty()) return false;
    // Collect the first (oldest) index of every live channel.
    std::vector<std::size_t> heads;
    std::vector<std::pair<NodeId, NodeId>> seen;
    for (std::size_t i = 0; i < queue_.size(); ++i) {
      const auto channel = std::make_pair(queue_[i].from, queue_[i].to);
      bool first = true;
      for (const auto& s : seen) {
        if (s == channel) {
          first = false;
          break;
        }
      }
      if (first) {
        seen.push_back(channel);
        heads.push_back(i);
      }
    }
    deliver_at(heads[rng.next_below(heads.size())]);
    return true;
  }

 private:
  friend class Port;
  std::deque<InFlight> queue_;
  std::map<NodeId, std::unique_ptr<Port>> ports_;
  std::map<NodeId, std::function<void(const Message&)>> handlers_;
  std::map<MsgKind, std::uint64_t> by_kind_;
  std::uint64_t total_sent_{0};
};

/// View change over test engines: node k's engine is `engines[k]` (a
/// pointer, null for no node), and every engine whose `gone[k]` is clear
/// survives. Each survivor calls begin_recovery(view, root, survivors),
/// `root` first: an engine drops messages from a newer view, so an attach
/// from a survivor that recovered before the root would be lost and the
/// root's barrier would never complete. `root` defaults to the lowest
/// survivor, as ViewService picks it. Returns the survivors.
template <typename Engines>
std::set<NodeId> view_change(const Engines& engines,
                             const std::vector<bool>& gone,
                             std::uint32_t view,
                             NodeId root = NodeId::invalid()) {
  std::set<NodeId> survivors;
  for (std::size_t k = 0; k < engines.size(); ++k) {
    if (engines[k] && !gone[k])
      survivors.insert(NodeId{static_cast<std::uint32_t>(k)});
  }
  if (survivors.empty()) throw std::logic_error("view change without nodes");
  if (!root.valid()) root = *survivors.begin();
  engines[root.value]->begin_recovery(view, root, survivors);
  for (const NodeId s : survivors) {
    if (s != root) engines[s.value]->begin_recovery(view, root, survivors);
  }
  return survivors;
}

}  // namespace hlock::testing
