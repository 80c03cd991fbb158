#include "naimi/naimi_node.hpp"

#include <stdexcept>

namespace hlock::naimi {

NaimiNode::NaimiNode(NodeId self, Transport& transport)
    : self_(self), transport_(transport) {}

NaimiEngine& NaimiNode::add_lock(LockId lock, NodeId initial_holder) {
  auto engine =
      std::make_unique<NaimiEngine>(lock, self_, initial_holder, transport_);
  auto [it, inserted] = engines_.emplace(lock, std::move(engine));
  if (!inserted) throw std::logic_error("lock added twice");
  if (lock.value < kDenseLockLimit) {
    if (lock.value >= dense_.size()) dense_.resize(lock.value + 1, nullptr);
    dense_[lock.value] = it->second.get();
  }
  return *it->second;
}

NaimiEngine& NaimiNode::engine(LockId lock) {
  if (lock.value < dense_.size() && dense_[lock.value] != nullptr)
    return *dense_[lock.value];
  const auto it = engines_.find(lock);
  if (it != engines_.end()) return *it->second;
  if (lazy_holder_) return add_lock(lock, lazy_holder_(lock));
  throw std::logic_error("unknown lock");
}

void NaimiNode::handle(const Message& m) { engine(m.lock).handle(m); }

}  // namespace hlock::naimi
