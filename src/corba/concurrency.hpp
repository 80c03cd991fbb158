// CosConcurrency-shaped blocking facade (OMG Concurrency Service, the
// paper's reference model [6]) over the hierarchical locking engine and a
// real TCP node.
//
// The OMG service exposes LockSet objects with lock / try_lock / unlock /
// change_mode operations over the five modes. This facade keeps that
// surface while adapting it to a fully decentralized backend:
//
//  * lock() blocks the calling thread until the distributed protocol
//    grants the mode (any number of application threads may call
//    concurrently; a node's requests are served in issue order).
//  * try_lock() succeeds only when Rule 2 admits the mode with zero
//    messages — a deliberate deviation from a centralized service, where
//    try semantics would otherwise require a blocking round trip.
//  * change_mode() supports the two directions the protocol defines:
//    U -> W (Rule 7 upgrade) and safe downgrades (e.g. W -> R, R -> IR).
//  * drop_locks() releases everything a set still holds, mirroring
//    LockCoordinator::drop_locks for transaction teardown.
//
// All engine interaction is marshalled onto the node's event-loop thread;
// the facade is safe to call from any thread. Each blocking call hands
// the engine a continuation that completes its own Waiter, so a grant
// always wakes the thread whose request it answers.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <cstdint>
#include <optional>
#include <set>

#include "core/hls_node.hpp"
#include "core/mode.hpp"
#include "net/tcp_node.hpp"

namespace hlock::corba {

/// OMG lock_mode names mapped onto core modes.
enum class LockMode {
  kRead,
  kWrite,
  kUpgrade,
  kIntentionRead,
  kIntentionWrite,
};

Mode to_core(LockMode m);
LockMode from_core(Mode m);

/// An acquired lock: returned by lock()/try_lock(), consumed by unlock()
/// and change_mode().
struct LockHandle {
  LockId lock{};
  RequestId request{};
  Mode mode{Mode::kNone};
  [[nodiscard]] bool valid() const { return request.valid(); }
};

class ConcurrencyService;

/// One lock object (e.g. a table or an entry). Value-semantic handle; the
/// service owns the state.
class LockSet {
 public:
  /// Block until the mode is granted. `priority` participates in queue
  /// arbitration when the service was built with
  /// EngineOptions::enable_priorities.
  LockHandle lock(LockMode mode, std::uint8_t priority = 0);
  /// Acquire only if possible without any message exchange.
  std::optional<LockHandle> try_lock(LockMode mode);
  /// Block up to `timeout`; on expiry the request is cancelled and
  /// nothing is held. If the grant races the deadline the handle is
  /// returned (never silently leaked).
  std::optional<LockHandle> try_lock_for(LockMode mode, Duration timeout);
  /// Release a handle obtained from this set.
  void unlock(const LockHandle& handle);
  /// U -> W upgrade (blocking) or safe downgrade (immediate). Returns the
  /// updated handle.
  LockHandle change_mode(const LockHandle& handle, LockMode new_mode);

  [[nodiscard]] LockId id() const { return id_; }

 private:
  friend class ConcurrencyService;
  LockSet(ConcurrencyService& service, LockId id)
      : service_(&service), id_(id) {}
  ConcurrencyService* service_;
  LockId id_;
};

class ConcurrencyService {
 public:
  /// Layers the service over a TcpNode. `opts` tunes the engine (defaults
  /// are the paper's protocol).
  ConcurrencyService(net::TcpNode& node, core::EngineOptions opts = {});

  /// Detaches from the node's event loop before the engines die, so a
  /// service may be destroyed while its TcpNode keeps running.
  ~ConcurrencyService();
  ConcurrencyService(const ConcurrencyService&) = delete;
  ConcurrencyService& operator=(const ConcurrencyService&) = delete;

  /// Register a lock set. Every node of the cluster must register the same
  /// (id, initial_holder) pairs before first use.
  LockSet create_lock_set(LockId id, NodeId initial_holder);
  [[nodiscard]] LockSet lock_set(LockId id);

  /// LockCoordinator::drop_locks: release every hold this service still
  /// has on the given set (transaction teardown).
  void drop_locks(LockId id);

  /// Membership change after a crash or a departure: adopt the view the
  /// membership service decided. Call on every survivor with identical
  /// arguments, on `new_root` first (see HlsEngine::begin_recovery). A
  /// departing node unlocks every handle on the set, waits for no request
  /// and stops using it. Call by hand only where no net::ViewService runs
  /// (examples/elastic_cluster): ViewService keeps its own view number, so
  /// its next commit after a hand-made recover() throws in begin_recovery.
  /// Under ViewService a departing node just stops, and the detector's view
  /// change removes it.
  void recover(LockId id, std::uint32_t view, NodeId new_root,
               const std::set<NodeId>& survivors);

  /// recover() across every registered lock set at once — the shape a
  /// live view change (net::ViewService) delivers; same rules, new root
  /// first. Safe from any thread, including the node's own loop thread
  /// (where the view-commit callback runs); threads blocked in lock() keep
  /// waiting and complete once the regenerated token serves their
  /// re-issued requests.
  void recover_all(std::uint32_t view, NodeId new_root,
                   const std::set<NodeId>& survivors);

  [[nodiscard]] NodeId self() const { return node_.self(); }

 private:
  friend class LockSet;

  /// One blocked call's rendezvous with the loop thread.
  struct Waiter {
    std::mutex mutex;
    std::condition_variable cv;
    bool done{false};
    /// The request's id, set on the loop thread once request_lock()
    /// returned it (or by the grant); the cancel path reads it there.
    RequestId request{};
    Mode mode{Mode::kNone};
    std::exception_ptr error;

    /// Loop thread: mark done with a grant or an error, wake the caller.
    void complete(RequestId id, Mode granted, std::exception_ptr err = {});
    /// Caller thread: block until done.
    void wait();
  };

  /// Post a request_lock to the loop thread; the returned waiter is done
  /// once it is granted (or failed).
  std::shared_ptr<Waiter> issue(LockId id, Mode mode, std::uint8_t priority);
  /// Handle of a done waiter, recorded as a live hold (error rethrown).
  /// The caller must not hold w.mutex.
  LockHandle take(LockId id, Waiter& w);

  LockHandle lock_blocking(LockId id, Mode mode, std::uint8_t priority = 0);
  std::optional<LockHandle> try_lock_now(LockId id, Mode mode);
  std::optional<LockHandle> lock_with_deadline(LockId id, Mode mode,
                                               Duration timeout);
  void unlock_blocking(const LockHandle& handle);
  LockHandle change_mode_blocking(const LockHandle& handle, Mode new_mode);

  /// Run `fn` on the loop thread and wait for it (exceptions rethrown).
  void run_on_loop(const std::function<void()>& fn);

  net::TcpNode& node_;
  core::HlsNode hls_;

  std::mutex mutex_;  ///< guards live_holds_
  std::multimap<LockId, LockHandle> live_holds_;
};

/// RAII guard: acquires in the constructor, releases in the destructor.
/// Move-only; upgrade() converts a held U to W in place.
class ScopedLock {
 public:
  ScopedLock(LockSet set, LockMode mode) : set_(set), handle_(set_.lock(mode)) {}
  ~ScopedLock();
  ScopedLock(const ScopedLock&) = delete;
  ScopedLock& operator=(const ScopedLock&) = delete;
  ScopedLock(ScopedLock&& other) noexcept
      : set_(other.set_), handle_(other.handle_) {
    other.handle_ = LockHandle{};
  }
  ScopedLock& operator=(ScopedLock&&) = delete;

  /// Rule 7: convert a held U to W (blocks until granted).
  void upgrade();
  /// Safe weakening (e.g. W -> R).
  void downgrade(LockMode mode);
  /// Release early (destructor becomes a no-op).
  void release();

  [[nodiscard]] const LockHandle& handle() const { return handle_; }
  [[nodiscard]] Mode mode() const { return handle_.mode; }

 private:
  LockSet set_;
  LockHandle handle_;
};

}  // namespace hlock::corba
