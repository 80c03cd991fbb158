#include "lockmgr/session_mux.hpp"

#include <stdexcept>

#include "core/mode.hpp"

namespace hlock::lockmgr {

namespace {

/// The mode an op requests on the table lock.
Mode table_mode(const Op& op) {
  switch (op.kind) {
    case OpKind::kEntryRead: return Mode::kIR;
    case OpKind::kTableRead: return Mode::kR;
    case OpKind::kTableUpgrade: return Mode::kU;
    case OpKind::kEntryWrite: return Mode::kIW;
    case OpKind::kTableWrite: return Mode::kW;
  }
  return Mode::kNone;
}

}  // namespace

SessionMux::SessionMux(core::HlsNode& node, const ResourceLayout& layout,
                       Executor& executor, std::uint32_t sessions)
    : SessionMux(node, executor, sessions) {
  layout_ = &layout;
}

SessionMux::SessionMux(core::HlsNode& node, Executor& executor,
                       std::uint32_t sessions)
    : node_(node), layout_(nullptr), exec_(executor), clients_(sessions) {
  if (sessions == 0) throw std::invalid_argument("need >= 1 session");
}

SessionMux::Client& SessionMux::idle_client(std::uint32_t sid) {
  Client& c = clients_.at(sid);
  if (c.phase != Phase::kIdle)
    throw std::logic_error("session already executing an op");
  return c;
}

void SessionMux::start(std::uint32_t session, const Op& op, DoneFn done) {
  if (layout_ == nullptr)
    throw std::logic_error("start() needs a mux built with a ResourceLayout");
  Client& c = idle_client(session);
  c.plan.clear();
  c.plan.push_back({layout_->table_lock(), table_mode(op)});
  if (op.kind == OpKind::kEntryRead || op.kind == OpKind::kEntryWrite) {
    const Mode leaf = op.kind == OpKind::kEntryRead ? Mode::kR : Mode::kW;
    c.plan.push_back({layout_->entry_lock(op.entry), leaf});
  }
  begin(session, op, op.kind == OpKind::kTableUpgrade, /*keep=*/false,
        std::move(done));
}

void SessionMux::run(std::uint32_t session, std::vector<PlanStep> plan,
                     Duration cs, DoneFn done) {
  idle_client(session).plan = std::move(plan);
  Op op;
  op.cs = cs;
  begin(session, op, /*upgrade=*/false, /*keep=*/false, std::move(done));
}

void SessionMux::acquire(std::uint32_t session, std::vector<PlanStep> plan,
                         DoneFn done) {
  idle_client(session).plan = std::move(plan);
  begin(session, Op{}, /*upgrade=*/false, /*keep=*/true, std::move(done));
}

void SessionMux::release(std::uint32_t session) {
  if (clients_.at(session).phase != Phase::kHeld)
    throw std::logic_error("release without a fully acquired plan");
  finish(session);
}

void SessionMux::begin(std::uint32_t sid, const Op& op, bool upgrade,
                       bool keep, DoneFn done) {
  Client& c = clients_[sid];
  if (c.plan.empty()) throw std::invalid_argument("empty lock plan");
  c.op = op;
  c.upgrade = upgrade;
  c.keep = keep;
  c.done = std::move(done);
  c.held.clear();
  c.started = exec_.now();
  c.acquire_latency = 0;
  c.lock_requests = 0;
  ++active_;
  c.phase = Phase::kGated;
  gate_queue_.push_back(sid);
  drain_gate();
}

void SessionMux::drain_gate() {
  // FIFO with head-of-line blocking: an upgrade op at the head waits for
  // every admitted op to finish (and blocks everything behind it, so it
  // cannot be starved); any other op at the head only waits out an
  // active upgrade op. The result is that engine.upgrade() always runs
  // with an empty local pending slot — see the class comment.
  while (!gate_queue_.empty()) {
    const std::uint32_t sid = gate_queue_.front();
    const bool upgrade = clients_[sid].upgrade;
    if (upgrade ? admitted_ != 0 : active_upgrades_ != 0) return;
    gate_queue_.pop_front();
    ++admitted_;
    if (upgrade) ++active_upgrades_;
    clients_[sid].phase = Phase::kAcquiring;
    issue(sid);
  }
}

void SessionMux::issue(std::uint32_t sid) {
  // The engines are not re-entrant: acquire()'s done, which may run
  // inside request_lock, must not start another plan on this mux there.
  if (issuing_)
    throw std::logic_error("plan step issued from inside request_lock");
  Client& c = clients_[sid];
  const PlanStep step = c.plan[c.held.size()];
  ++c.lock_requests;
  issuing_ = true;
  (void)node_.engine(step.lock).request_lock(
      step.mode, [this, sid, lock = step.lock](RequestId id, Mode /*mode*/) {
        grant(sid, lock, id);
      });
  issuing_ = false;
}

void SessionMux::grant(std::uint32_t sid, LockId lock, RequestId id) {
  Client& c = clients_[sid];
  if (c.phase != Phase::kAcquiring || c.plan[c.held.size()].lock != lock)
    throw std::logic_error("unexpected acquisition callback");
  c.held.push_back(id);
  if (c.held.size() < c.plan.size()) {
    // Next step scheduled, never issued here: we may be inside
    // request_lock, and the engines are not re-entrant.
    exec_.schedule(0, [this, sid] { issue(sid); });
    return;
  }
  c.acquire_latency = exec_.now() - c.started;
  if (c.keep) {
    c.phase = Phase::kHeld;
    // Moved out first: the callback may release() and start anew.
    DoneFn done = std::move(c.done);
    c.done = nullptr;
    if (done) done(OpStats{c.op, c.acquire_latency, c.lock_requests});
    return;
  }
  c.phase = Phase::kInCs;
  // Upgrade ops split the dwell: read under U, then write under W.
  const Duration dwell = c.upgrade ? c.op.cs / 2 : c.op.cs;
  exec_.schedule(dwell, [this, sid] { leave_cs(sid); });
}

void SessionMux::leave_cs(std::uint32_t sid) {
  Client& c = clients_[sid];
  if (c.upgrade && c.phase == Phase::kInCs) {
    c.phase = Phase::kWaitUpgrade;
    node_.engine(c.plan.back().lock)
        .upgrade(c.held.back(),
                 [this, sid](RequestId /*id*/, Mode /*mode*/) { upgraded(sid); });
    return;
  }
  finish(sid);
}

void SessionMux::upgraded(std::uint32_t sid) {
  Client& c = clients_[sid];
  if (c.phase != Phase::kWaitUpgrade)
    throw std::logic_error("upgrade completion for a session not upgrading");
  c.phase = Phase::kInCs2;
  exec_.schedule(c.op.cs - c.op.cs / 2, [this, sid] { leave_cs(sid); });
}

void SessionMux::finish(std::uint32_t sid) {
  Client& c = clients_[sid];
  // Release leaf before intent (standard hierarchical order).
  for (std::size_t i = c.plan.size(); i-- > 0;)
    node_.engine(c.plan[i].lock).unlock(c.held[i]);
  c.phase = Phase::kIdle;
  --active_;
  ++completed_;
  // Release the gate slot before the done callback: it may start a new
  // op on this session, which must see up-to-date admission counts.
  --admitted_;
  if (c.upgrade) --active_upgrades_;
  if (c.done) {
    DoneFn done = std::move(c.done);
    c.done = nullptr;
    done(OpStats{c.op, c.acquire_latency, c.lock_requests});
  }
  drain_gate();
}

}  // namespace hlock::lockmgr
