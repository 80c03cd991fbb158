// HlsNode — one per participant: owns an HlsEngine per lock object and
// demultiplexes incoming messages by lock id. Grants need no routing
// here: each request carries its own continuation into its lock's engine
// (HlsEngine::request_lock).
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "core/hls_engine.hpp"
#include "msg/message.hpp"

namespace hlock::core {

class HlsNode {
 public:
  HlsNode(NodeId self, Transport& transport, EngineOptions opts = {});

  /// Instantiate the engine for `lock`; `initial_holder` seeds the token
  /// tree and must be identical on every node. `initial_parent` optionally
  /// places this node in a non-star initial topology.
  HlsEngine& add_lock(LockId lock, NodeId initial_holder,
                      NodeId initial_parent = NodeId::invalid());

  /// Engine for a lock added earlier; throws if unknown — unless a lazy
  /// holder is installed, in which case the engine materializes on first
  /// touch (see set_lazy_holder).
  [[nodiscard]] HlsEngine& engine(LockId lock);
  [[nodiscard]] const HlsEngine* find(LockId lock) const;

  /// Many-lock mode: instead of add_lock()-ing every id up front (which
  /// costs a full engine per idle lock), install a function mapping a lock
  /// id to its initial token holder. engine() then materializes unknown
  /// locks on demand; an untouched lock costs one dense pointer slot.
  /// The mapping must be identical on every node of the cluster.
  void set_lazy_holder(std::function<NodeId(LockId)> holder_of) {
    lazy_holder_ = std::move(holder_of);
  }

  /// Pre-size the dense dispatch table (avoids growth reallocations when
  /// the id universe is known, e.g. the forest workload's per-tree space).
  void reserve_dense(std::uint32_t ids) {
    if (ids > kDenseLockLimit) ids = kDenseLockLimit;
    if (ids > dense_.size()) dense_.resize(ids, nullptr);
  }

  /// Install the cluster topology for locality-biased token service
  /// (borrowed; must outlive the node). Applies to every existing engine
  /// and to engines added or lazily materialized later. Without a map the
  /// locality_bias option is inert.
  void set_cluster_map(const ClusterMap* map);

  /// Membership change (a crash or a departure): apply the membership
  /// service's decision to every materialized engine, on `new_root` first
  /// (see HlsEngine::begin_recovery). The view is remembered, so an engine
  /// materialized lazily afterwards adopts it instead of starting at view 0
  /// and fencing off all live traffic. A late-materialized engine joins
  /// with an empty attach barrier — sound for locks untouched before the
  /// crash (the lazy case's workload); locks with pre-crash remote state
  /// must be registered eagerly on every node.
  void begin_recovery(std::uint32_t view, NodeId new_root,
                      const std::set<NodeId>& survivors);

  /// Route one incoming message to its lock's engine.
  void handle(const Message& m);

  [[nodiscard]] NodeId self() const { return self_; }
  [[nodiscard]] std::size_t lock_count() const { return engines_.size(); }

  /// Visit every *materialized* engine in lock-id order (lazily-managed
  /// forests never instantiate the full id space, so observers — the
  /// deadlock monitor — must walk what exists rather than enumerate the
  /// universe).
  template <typename Fn>
  void for_each_engine(Fn&& fn) const {
    for (const auto& [lock, engine] : engines_) fn(lock, *engine);
  }

 private:
  NodeId self_;
  Transport& transport_;
  EngineOptions opts_;
  std::function<NodeId(LockId)> lazy_holder_;
  const ClusterMap* cluster_map_{nullptr};
  /// Last committed recovery view (0 = none); adopted by engines that
  /// materialize after the recovery ran.
  std::uint32_t recovery_view_{0};
  NodeId recovery_root_{NodeId::invalid()};
  std::set<NodeId> recovery_survivors_;
  FlatMap<LockId, std::unique_ptr<HlsEngine>> engines_;
  /// O(1) lookup cache for small lock ids (the common, dense case): the
  /// engine() lookup is on the per-message hot path. Ids past the cap
  /// fall back to a binary search of the flat table.
  static constexpr std::uint32_t kDenseLockLimit = 1u << 20;
  std::vector<HlsEngine*> dense_;
};

}  // namespace hlock::core
