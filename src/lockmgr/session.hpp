// NaimiSession — the Naimi baselines' client: an asynchronous state
// machine that executes one Op at a time by acquiring a plan of exclusive
// Naimi locks in order, dwelling, and releasing them in reverse.
//
//   same work — emulates table-level access by acquiring every entry lock
//               in ascending order (deadlock avoidance), entry access
//               directly
//   pure      — one global exclusive lock (the table lock's id), the
//               original workload of [14]
//
// (The paper's protocol runs on SessionMux.) The session obeys the
// engines' threading contract: grant continuations only record state and
// schedule follow-up work on the Executor.
#pragma once

#include <vector>

#include "common/executor.hpp"
#include "common/types.hpp"
#include "lockmgr/op.hpp"
#include "lockmgr/resource.hpp"
#include "naimi/naimi_node.hpp"

namespace hlock::lockmgr {

class NaimiSession {
 public:
  /// One session per node.
  NaimiSession(naimi::NaimiNode& node, const ResourceLayout& layout,
               Executor& executor, bool pure);
  /// In-flight requests' continuations hold `this`.
  NaimiSession(const NaimiSession&) = delete;
  NaimiSession& operator=(const NaimiSession&) = delete;

  /// Begin executing `op`; `done` fires (from executor context) after all
  /// locks have been released. One op at a time.
  void start(const Op& op, DoneFn done);
  [[nodiscard]] bool busy() const { return active_; }

 private:
  void on_acquired(LockId lock, RequestId id);
  void acquire_next();
  void enter_cs();

  naimi::NaimiNode& node_;
  const ResourceLayout& layout_;
  Executor& exec_;
  bool pure_;

  bool active_{false};
  Op op_{};
  DoneFn done_;
  TimePoint started_{0};
  std::vector<LockId> plan_;     ///< locks to take, in order
  std::vector<RequestId> held_;  ///< rids, parallel to plan_
};

}  // namespace hlock::lockmgr
