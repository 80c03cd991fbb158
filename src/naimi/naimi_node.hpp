// NaimiNode — per-participant multiplexer over one NaimiEngine per lock,
// mirroring core::HlsNode for the baseline protocol (grants go straight to
// each request's continuation).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/flat_map.hpp"
#include "common/types.hpp"
#include "msg/message.hpp"
#include "naimi/naimi_engine.hpp"

namespace hlock::naimi {

class NaimiNode {
 public:
  NaimiNode(NodeId self, Transport& transport);

  NaimiEngine& add_lock(LockId lock, NodeId initial_holder);
  [[nodiscard]] NaimiEngine& engine(LockId lock);
  void handle(const Message& m);

  /// Many-lock mode (mirrors HlsNode): materialize engines on first touch
  /// from a deterministic lock -> initial-holder mapping.
  void set_lazy_holder(std::function<NodeId(LockId)> holder_of) {
    lazy_holder_ = std::move(holder_of);
  }
  /// Pre-size the dense dispatch table.
  void reserve_dense(std::uint32_t ids) {
    if (ids > kDenseLockLimit) ids = kDenseLockLimit;
    if (ids > dense_.size()) dense_.resize(ids, nullptr);
  }

  [[nodiscard]] NodeId self() const { return self_; }

 private:
  NodeId self_;
  Transport& transport_;
  std::function<NodeId(LockId)> lazy_holder_;
  FlatMap<LockId, std::unique_ptr<NaimiEngine>> engines_;
  /// O(1) dispatch cache for small (dense) lock ids, mirroring HlsNode:
  /// the per-message engine lookup must not chase a tree or even binary
  /// search in the common case.
  static constexpr std::uint32_t kDenseLockLimit = 1u << 20;
  std::vector<NaimiEngine*> dense_;
};

}  // namespace hlock::naimi
