#include "core/hls_node.hpp"

#include <stdexcept>

namespace hlock::core {

HlsNode::HlsNode(NodeId self, Transport& transport, EngineOptions opts)
    : self_(self), transport_(transport), opts_(opts) {}

HlsEngine& HlsNode::add_lock(LockId lock, NodeId initial_holder,
                             NodeId initial_parent) {
  auto engine = std::make_unique<HlsEngine>(
      lock, self_, initial_holder, transport_, opts_, initial_parent);
  engine->set_cluster_map(cluster_map_);
  if (recovery_view_ != 0) {
    // Materialized after a recovery: adopt the committed view or every
    // live message (stamped with it) would be fenced off. The root joins
    // with an empty barrier — survivors with pre-crash state for this
    // lock would have materialized it already (see begin_recovery).
    const std::set<NodeId> scope = self_ == recovery_root_
                                       ? std::set<NodeId>{self_}
                                       : recovery_survivors_;
    engine->begin_recovery(recovery_view_, recovery_root_, scope);
  }
  auto [it, inserted] = engines_.emplace(lock, std::move(engine));
  if (!inserted) throw std::logic_error("lock added twice");
  if (lock.value < kDenseLockLimit) {
    if (lock.value >= dense_.size()) dense_.resize(lock.value + 1, nullptr);
    dense_[lock.value] = it->second.get();
  }
  return *it->second;
}

HlsEngine& HlsNode::engine(LockId lock) {
  if (lock.value < dense_.size() && dense_[lock.value] != nullptr)
    return *dense_[lock.value];
  const auto it = engines_.find(lock);
  if (it != engines_.end()) return *it->second;
  if (lazy_holder_) return add_lock(lock, lazy_holder_(lock));
  throw std::logic_error("unknown lock");
}

const HlsEngine* HlsNode::find(LockId lock) const {
  if (lock.value < dense_.size() && dense_[lock.value] != nullptr)
    return dense_[lock.value];
  const auto it = engines_.find(lock);
  return it == engines_.end() ? nullptr : it->second.get();
}

void HlsNode::set_cluster_map(const ClusterMap* map) {
  cluster_map_ = map;
  for (auto& [lock, eng] : engines_) eng->set_cluster_map(map);
}

void HlsNode::begin_recovery(std::uint32_t view, NodeId new_root,
                             const std::set<NodeId>& survivors) {
  recovery_view_ = view;
  recovery_root_ = new_root;
  recovery_survivors_ = survivors;
  for (auto& [lock, eng] : engines_)
    eng->begin_recovery(view, new_root, survivors);
}

void HlsNode::handle(const Message& m) { engine(m.lock).handle(m); }

}  // namespace hlock::core
