#include "lockmgr/session.hpp"

#include <stdexcept>

namespace hlock::lockmgr {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kEntryRead: return "entry_read";
    case OpKind::kTableRead: return "table_read";
    case OpKind::kTableUpgrade: return "table_upgrade";
    case OpKind::kEntryWrite: return "entry_write";
    case OpKind::kTableWrite: return "table_write";
  }
  return "?";
}

NaimiSession::NaimiSession(naimi::NaimiNode& node,
                           const ResourceLayout& layout, Executor& executor,
                           bool pure)
    : node_(node), layout_(layout), exec_(executor), pure_(pure) {}

void NaimiSession::start(const Op& op, DoneFn done) {
  if (busy()) throw std::logic_error("session already executing an op");
  active_ = true;
  op_ = op;
  done_ = std::move(done);
  started_ = exec_.now();
  held_.clear();

  if (pure_) {
    plan_ = {layout_.table_lock()};
  } else if (op.kind == OpKind::kEntryRead ||
             op.kind == OpKind::kEntryWrite) {
    plan_ = {layout_.entry_lock(op.entry)};
  } else {
    // No shared or hierarchical modes: lock the whole table by taking
    // every entry lock, in ascending order to avoid deadlock (§4).
    plan_ = layout_.entry_locks_in_order();
  }
  acquire_next();
}

void NaimiSession::acquire_next() {
  const LockId lock = plan_[held_.size()];
  (void)node_.engine(lock).request(
      [this, lock](RequestId id) { on_acquired(lock, id); });
}

void NaimiSession::on_acquired(LockId lock, RequestId id) {
  if (!active_ || held_.size() >= plan_.size() ||
      lock != plan_[held_.size()])
    throw std::logic_error("unexpected acquisition callback");
  held_.push_back(id);
  if (held_.size() < plan_.size()) {
    exec_.schedule(0, [this] { acquire_next(); });
    return;
  }
  enter_cs();
}

void NaimiSession::enter_cs() {
  const Duration latency = exec_.now() - started_;
  exec_.schedule(op_.cs, [this, latency] {
    // Release in reverse acquisition order.
    for (std::size_t i = plan_.size(); i-- > 0;) {
      node_.engine(plan_[i]).release(held_[i]);
    }
    active_ = false;
    if (done_) {
      DoneFn done = std::move(done_);
      done_ = nullptr;
      done(OpStats{op_, latency, static_cast<std::uint32_t>(plan_.size())});
    }
  });
}

}  // namespace hlock::lockmgr
