// SessionMux — the HLS client state machine: logical client sessions
// multiplexed over one node's engine stack.
//
// A production lock service does not run one client per process: one
// service node fronts many concurrent application sessions, all sharing
// that node's protocol engines (and therefore its single TCP connection
// per peer). SessionMux is that client session layer, and every HLS
// client in the repository runs on it: the live service with N sessions
// per node, and the simulated clusters, the many-lock forest and its
// cross-tree gateways with one session per node.
//
// Each session steps through a lock plan, a top-down list of
// (lock, mode) steps (lockmgr::PlanStep): it requests each step once the
// previous one is granted, dwells in the critical section, and releases
// in reverse. Two ways in:
//   - start(): one op of the paper's two-level workload. The plan is the
//     table step (intent or table mode) plus, for entry ops, the entry
//     leaf; a kTableUpgrade op upgrades its U hold to W (Rule 7) halfway
//     through the dwell.
//   - run() / acquire() + release(): any plan, of any depth (lock_plan()
//     over a Hierarchy, or hand-built). acquire() keeps the locks after
//     the plan is held until the caller calls release().
// Either way `done` receives the op's OpStats. A mux built without a
// ResourceLayout serves only the plan calls.
//
// Each request_lock() / upgrade() carries a continuation naming its
// session, so a grant lands on the session that asked, with no lookup —
// also when it fires synchronously inside request_lock().
//
// Local upgrade gate: the engine runs ONE outstanding local request at a
// time; anything else backlogs behind it in FIFO order. A U-holder's
// upgrade() therefore queues behind any pending local request — and that
// request can be waiting, directly or transitively, on OUR unreleased U
// hold. The direct case is a local U/IW/W request; the sneaky case is a
// local R that Rule 6 froze because a REMOTE writer is queued at the
// token, parking our R in FIFO order behind a remote IW that itself
// waits for our U. Either way it is a queueing deadlock no protocol
// rule can break (Rule 7 only prioritizes upgrades once they reach a
// queue). The mux prevents it by admission control: an upgrade op is
// admitted only when NO other op is in flight on this node, and no op
// is admitted while an upgrade op is active — so engine.upgrade() always
// finds the local pending slot empty and fires immediately, where Rule 7
// takes over. At most one node can hold U at a time (U is
// self-incompatible), so this serialization is brief and global
// progress is preserved. Parked sessions wait in FIFO order, so
// upgrades cannot be starved by a stream of other ops.
//
// Threading contract: everything here runs on the engine's executor
// thread (the simulator, or a TcpNode's event loop). start() must be
// called from that thread — from a handler, a scheduled continuation, or
// loop().post(). Like the engines themselves, continuations are
// scheduled, never run re-entrantly — except acquire()'s `done`, which
// fires as soon as the last step is granted, possibly inside
// request_lock(), and so may not start another plan on this mux.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/executor.hpp"
#include "common/types.hpp"
#include "core/hls_node.hpp"
#include "lockmgr/hierarchy.hpp"
#include "lockmgr/op.hpp"
#include "lockmgr/resource.hpp"

namespace hlock::lockmgr {

class SessionMux {
 public:
  /// `sessions` logical clients, addressed 0..sessions-1; start() maps
  /// its ops onto `layout`'s locks. One mux per node: the local upgrade
  /// gate only sees this mux's ops.
  SessionMux(core::HlsNode& node, const ResourceLayout& layout,
             Executor& executor, std::uint32_t sessions);
  /// A mux for plan callers only: run(), acquire() and release().
  SessionMux(core::HlsNode& node, Executor& executor,
             std::uint32_t sessions = 1);
  /// In-flight requests' continuations hold `this`.
  SessionMux(const SessionMux&) = delete;
  SessionMux& operator=(const SessionMux&) = delete;

  /// Begin executing `op` on logical session `session`; `done` fires
  /// (from executor context) after all its locks have been released.
  /// One op at a time per session; other sessions proceed concurrently.
  void start(std::uint32_t session, const Op& op, DoneFn done);

  /// Acquire every step of `plan` in order, hold for `cs`, release in
  /// reverse, then invoke `done` (its op is a default Op with that cs).
  void run(std::uint32_t session, std::vector<PlanStep> plan, Duration cs,
           DoneFn done);

  /// Acquire every step of `plan` in order, then invoke `done` and KEEP
  /// holding: the session stays busy until release(). For callers that
  /// hold across outside coordination (the forest's cross-tree legs).
  void acquire(std::uint32_t session, std::vector<PlanStep> plan,
               DoneFn done);

  /// Release everything acquire() obtained, in reverse order (synchronous
  /// engine unlocks), and free the session.
  void release(std::uint32_t session);

  [[nodiscard]] bool busy(std::uint32_t session) const {
    return clients_[session].phase != Phase::kIdle;
  }
  [[nodiscard]] std::uint32_t session_count() const {
    return static_cast<std::uint32_t>(clients_.size());
  }
  /// Sessions currently executing an op.
  [[nodiscard]] std::uint32_t active() const { return active_; }
  /// Ops completed across all sessions since construction.
  [[nodiscard]] std::uint64_t completed() const { return completed_; }

 private:
  enum class Phase {
    kIdle,
    kGated,        ///< parked in the local upgrade gate, not yet issued
    kAcquiring,    ///< plan step held.size() requested
    kHeld,         ///< acquire(): every step held until release()
    kInCs,         ///< dwelling in the (first) critical section
    kWaitUpgrade,  ///< U -> W upgrade in flight
    kInCs2,        ///< write phase of an upgrade op
  };

  /// One logical client.
  struct Client {
    Phase phase{Phase::kIdle};
    bool upgrade{false};  ///< upgrade the last step's U to W mid-dwell
    bool keep{false};     ///< acquire(): hold until release()
    Op op{};              ///< reported in OpStats; op.cs is the dwell
    std::vector<PlanStep> plan;
    std::vector<RequestId> held;  ///< granted ids, one per step so far
    DoneFn done;
    TimePoint started{0};
    Duration acquire_latency{0};
    std::uint32_t lock_requests{0};
  };

  Client& idle_client(std::uint32_t sid);
  void begin(std::uint32_t sid, const Op& op, bool upgrade, bool keep,
             DoneFn done);
  void drain_gate();
  void issue(std::uint32_t sid);
  void grant(std::uint32_t sid, LockId lock, RequestId id);
  void upgraded(std::uint32_t sid);
  void leave_cs(std::uint32_t sid);
  void finish(std::uint32_t sid);

  core::HlsNode& node_;
  const ResourceLayout* layout_;  ///< null for a plan-only mux
  Executor& exec_;
  std::vector<Client> clients_;
  /// True while issue() is inside request_lock().
  bool issuing_{false};
  /// Local upgrade gate (see file comment): sessions parked in start
  /// order, plus counts of admitted (issued, unfinished) and upgrade ops.
  std::deque<std::uint32_t> gate_queue_;
  std::uint32_t admitted_{0};
  std::uint32_t active_upgrades_{0};
  std::uint32_t active_{0};
  std::uint64_t completed_{0};
};

}  // namespace hlock::lockmgr
