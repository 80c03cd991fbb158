#include "corba/concurrency.hpp"

#include <chrono>
#include <stdexcept>

namespace hlock::corba {

Mode to_core(LockMode m) {
  switch (m) {
    case LockMode::kRead: return Mode::kR;
    case LockMode::kWrite: return Mode::kW;
    case LockMode::kUpgrade: return Mode::kU;
    case LockMode::kIntentionRead: return Mode::kIR;
    case LockMode::kIntentionWrite: return Mode::kIW;
  }
  throw std::invalid_argument("bad LockMode");
}

LockMode from_core(Mode m) {
  switch (m) {
    case Mode::kR: return LockMode::kRead;
    case Mode::kW: return LockMode::kWrite;
    case Mode::kU: return LockMode::kUpgrade;
    case Mode::kIR: return LockMode::kIntentionRead;
    case Mode::kIW: return LockMode::kIntentionWrite;
    case Mode::kNone: break;
  }
  throw std::invalid_argument("mode has no LockMode equivalent");
}

// ---------------------------------------------------------------------------
// LockSet forwarding
// ---------------------------------------------------------------------------

LockHandle LockSet::lock(LockMode mode, std::uint8_t priority) {
  return service_->lock_blocking(id_, to_core(mode), priority);
}

std::optional<LockHandle> LockSet::try_lock(LockMode mode) {
  return service_->try_lock_now(id_, to_core(mode));
}

std::optional<LockHandle> LockSet::try_lock_for(LockMode mode,
                                                Duration timeout) {
  return service_->lock_with_deadline(id_, to_core(mode), timeout);
}

void LockSet::unlock(const LockHandle& handle) {
  service_->unlock_blocking(handle);
}

LockHandle LockSet::change_mode(const LockHandle& handle, LockMode new_mode) {
  return service_->change_mode_blocking(handle, to_core(new_mode));
}

// ---------------------------------------------------------------------------
// ConcurrencyService
// ---------------------------------------------------------------------------

void ConcurrencyService::Waiter::complete(RequestId id, Mode granted,
                                         std::exception_ptr err) {
  {
    const std::lock_guard<std::mutex> guard(mutex);
    done = true;
    request = id;
    mode = granted;
    error = std::move(err);
  }
  cv.notify_all();
}

void ConcurrencyService::Waiter::wait() {
  std::unique_lock<std::mutex> lk(mutex);
  cv.wait(lk, [this] { return done; });
}

ConcurrencyService::ConcurrencyService(net::TcpNode& node,
                                       core::EngineOptions opts)
    : node_(node), hls_(node.self(), node.transport(), opts) {
  node_.set_handler([this](const Message& m) { hls_.handle(m); });
}

ConcurrencyService::~ConcurrencyService() {
  // Clear the handler from the loop thread so no delivery can be running
  // inside our engines when they are destroyed.
  try {
    if (node_.loop().running()) {
      run_on_loop([this] { node_.set_handler(nullptr); });
    } else {
      node_.set_handler(nullptr);
    }
  } catch (...) {
    // Destructor: nothing sensible to do; the loop is likely gone.
  }
}

void ConcurrencyService::run_on_loop(const std::function<void()>& fn) {
  auto w = std::make_shared<Waiter>();
  node_.loop().post([w, &fn] {
    std::exception_ptr error;
    try {
      fn();
    } catch (...) {
      error = std::current_exception();
    }
    w->complete(RequestId{}, Mode::kNone, error);
  });
  w->wait();
  if (w->error) std::rethrow_exception(w->error);
}

LockSet ConcurrencyService::create_lock_set(LockId id, NodeId initial_holder) {
  run_on_loop([&] { hls_.add_lock(id, initial_holder); });
  return LockSet(*this, id);
}

LockSet ConcurrencyService::lock_set(LockId id) {
  run_on_loop([&] { (void)hls_.engine(id); });  // validates existence
  return LockSet(*this, id);
}

std::shared_ptr<ConcurrencyService::Waiter> ConcurrencyService::issue(
    LockId id, Mode mode, std::uint8_t priority) {
  auto w = std::make_shared<Waiter>();
  node_.loop().post([this, id, mode, priority, w] {
    try {
      const RequestId rid = hls_.engine(id).request_lock(
          mode, [w](RequestId r, Mode m) { w->complete(r, m); }, priority);
      const std::lock_guard<std::mutex> guard(w->mutex);
      w->request = rid;  // already set if the grant fired synchronously
    } catch (...) {
      w->complete(RequestId{}, Mode::kNone, std::current_exception());
    }
  });
  return w;
}

LockHandle ConcurrencyService::take(LockId id, Waiter& w) {
  std::unique_lock<std::mutex> lk(w.mutex);
  if (w.error) std::rethrow_exception(w.error);
  const LockHandle handle{id, w.request, w.mode};
  lk.unlock();
  const std::lock_guard<std::mutex> guard(mutex_);
  live_holds_.emplace(id, handle);
  return handle;
}

LockHandle ConcurrencyService::lock_blocking(LockId id, Mode mode,
                                             std::uint8_t priority) {
  const std::shared_ptr<Waiter> w = issue(id, mode, priority);
  w->wait();
  return take(id, *w);
}

std::optional<LockHandle> ConcurrencyService::try_lock_now(LockId id,
                                                           Mode mode) {
  std::optional<RequestId> rid;
  run_on_loop([&] { rid = hls_.engine(id).try_request_lock(mode); });
  if (!rid) return std::nullopt;
  const LockHandle handle{id, *rid, mode};
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    live_holds_.emplace(id, handle);
  }
  return handle;
}

std::optional<LockHandle> ConcurrencyService::lock_with_deadline(
    LockId id, Mode mode, Duration timeout) {
  const std::shared_ptr<Waiter> w = issue(id, mode, 0);
  bool granted;
  {
    std::unique_lock<std::mutex> lk(w->mutex);
    granted = w->cv.wait_for(lk, std::chrono::microseconds(timeout),
                             [&] { return w->done; });
  }
  if (granted) return take(id, *w);
  // Deadline expired. Settle the outcome on the loop thread, where no
  // grant can land while we look: the issuing task was posted first, so
  // it has run by now (however late), and either the grant already fired
  // and we own the hold after all, or the request is still pending and
  // cancel() drops its continuation so it is never granted to anyone.
  run_on_loop([&] {
    RequestId rid;
    {
      const std::lock_guard<std::mutex> wg(w->mutex);
      if (w->done) return;
      rid = w->request;
    }
    if (!hls_.engine(id).cancel(rid))
      throw std::logic_error("granted request did not complete its waiter");
  });
  {
    const std::lock_guard<std::mutex> wg(w->mutex);
    if (!w->done) return std::nullopt;  // cleanly cancelled
  }
  return take(id, *w);
}

void ConcurrencyService::unlock_blocking(const LockHandle& handle) {
  if (!handle.valid()) throw std::invalid_argument("invalid handle");
  run_on_loop([&] { hls_.engine(handle.lock).unlock(handle.request); });
  const std::lock_guard<std::mutex> guard(mutex_);
  const auto [begin, end] = live_holds_.equal_range(handle.lock);
  for (auto it = begin; it != end; ++it) {
    if (it->second.request == handle.request) {
      live_holds_.erase(it);
      break;
    }
  }
}

LockHandle ConcurrencyService::change_mode_blocking(const LockHandle& handle,
                                                    Mode new_mode) {
  if (!handle.valid()) throw std::invalid_argument("invalid handle");
  if (handle.mode == Mode::kU && new_mode == Mode::kW) {
    // Rule 7 upgrade: may block until every other holder drains.
    auto w = std::make_shared<Waiter>();
    node_.loop().post([this, handle, w] {
      try {
        hls_.engine(handle.lock).upgrade(
            handle.request, [w](RequestId r, Mode m) { w->complete(r, m); });
      } catch (...) {
        w->complete(handle.request, Mode::kNone, std::current_exception());
      }
    });
    w->wait();
    if (w->error) std::rethrow_exception(w->error);
    return LockHandle{handle.lock, handle.request, Mode::kW};
  }
  if (safe_downgrade(handle.mode, new_mode)) {
    run_on_loop(
        [&] { hls_.engine(handle.lock).downgrade(handle.request, new_mode); });
    return LockHandle{handle.lock, handle.request, new_mode};
  }
  throw std::logic_error(
      "change_mode supports U->W upgrades and safe downgrades only");
}

void ConcurrencyService::recover(LockId id, std::uint32_t view,
                                 NodeId new_root,
                                 const std::set<NodeId>& survivors) {
  run_on_loop(
      [&] { hls_.engine(id).begin_recovery(view, new_root, survivors); });
}

void ConcurrencyService::recover_all(std::uint32_t view, NodeId new_root,
                                     const std::set<NodeId>& survivors) {
  // The view service commits on the loop thread itself; run_on_loop
  // would deadlock there (post-and-wait against our own thread).
  if (node_.loop().on_loop_thread()) {
    hls_.begin_recovery(view, new_root, survivors);
    return;
  }
  run_on_loop([&] { hls_.begin_recovery(view, new_root, survivors); });
}

void ConcurrencyService::drop_locks(LockId id) {
  std::vector<LockHandle> holds;
  {
    const std::lock_guard<std::mutex> guard(mutex_);
    const auto [begin, end] = live_holds_.equal_range(id);
    for (auto it = begin; it != end; ++it) holds.push_back(it->second);
  }
  for (auto it = holds.rbegin(); it != holds.rend(); ++it)
    unlock_blocking(*it);
}

}  // namespace hlock::corba

namespace hlock::corba {

// ---------------------------------------------------------------------------
// ScopedLock
// ---------------------------------------------------------------------------

ScopedLock::~ScopedLock() {
  if (handle_.valid()) set_.unlock(handle_);
}

void ScopedLock::upgrade() {
  handle_ = set_.change_mode(handle_, LockMode::kWrite);
}

void ScopedLock::downgrade(LockMode mode) {
  handle_ = set_.change_mode(handle_, mode);
}

void ScopedLock::release() {
  if (handle_.valid()) {
    set_.unlock(handle_);
    handle_ = LockHandle{};
  }
}

}  // namespace hlock::corba
