#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "support/thread_annotations.hpp"

namespace amtfmm {

/// Synchronization-event kinds observed by the rtcheck harness (see
/// src/rtcheck/ and DESIGN.md §3d).  The runtime's lock-free and locked
/// structures funnel every synchronizing operation through the hooks below;
/// in normal builds the hooks are empty inline functions and vanish
/// entirely, so the production code paths are byte-identical to the
/// un-instrumented ones.  In AMTFMM_RTCHECK builds each hook is a single
/// thread-local load + branch, and under the rtcheck controlled scheduler
/// the hooks become the schedule points of the model checker.
enum class SyncKind : std::uint8_t {
  kAtomicLoad,
  kAtomicStore,
  kAtomicRmw,
  kPlainRead,   ///< non-atomic shared read (happens-before checked)
  kPlainWrite,  ///< non-atomic shared write (happens-before checked)
  kLcoInput,    ///< LcoArena::input applied one input to a node
  kLcoFire,     ///< LCO fired (must be at most once per object)
  kLcoRearm,    ///< LCO re-armed for a new epoch (resets trigger-once)
  kBatchEnqueue,     ///< parcel appended to a coalescing buffer
  kBatchFlush,       ///< parcels drained from a coalescing buffer
  kPendingRaise,     ///< coalescer emptiness-probe counter raised
  kPendingLower,     ///< coalescer emptiness-probe counter lowered
  kMutexLock,        ///< SyncMutex lock/try_lock (trace only)
  kMutexUnlock,      ///< SyncMutex unlock (trace only)
  kCvWait,           ///< SyncCondVar wait block (trace only)
  kCvNotify,         ///< SyncCondVar notify (trace only)
};

/// Named fault-injection points.  rtcheck validates itself by re-running
/// its scenario suites with one of these mutations enabled: each mutation
/// reintroduces a specific ordering/locking bug (a dropped fence, a removed
/// lock) that the checker must detect and report with a deterministic
/// replay schedule.  Outside AMTFMM_RTCHECK builds every query below folds
/// to the unmutated constant, so production code is unaffected.
enum class Mutation : std::uint8_t {
  kNone = 0,
  /// WsDeque::steal loads bottom_ relaxed instead of seq_cst: the thief no
  /// longer acquires the owner's slot publication, so item-payload accesses
  /// race.
  kStealBottomLoadRelaxed,
  /// ParcelCoalescer::enqueue raises pending_per_src_ after inserting into
  /// the buffer instead of before, so emptiness probes can under-report.
  kCoalescerCountAfterInsert,
  /// LcoArena::input skips the stripe lock: two inputs to one node reduce
  /// at once.
  kArenaInputNoLock,
  /// CounterRegistry::observe bumps the histogram count before the sum and
  /// buckets (the pre-fix order), so snapshots can see count > contents.
  kCountersCountEarly,
};

#if defined(AMTFMM_RTCHECK)

/// Interface the rtcheck harness implements; installed per model thread.
/// pre() is the schedule point (it may block the calling thread until the
/// controlled scheduler resumes it); the post_*() callbacks report the
/// memory-order effect that actually took place and never block.
class SyncObserver {
 public:
  virtual ~SyncObserver() = default;

  /// Schedule point immediately before the operation executes.
  virtual void pre(SyncKind k, const void* addr, std::memory_order mo,
                   std::uint64_t info) = 0;
  /// Happens-before effects after the operation executed (no yield).
  virtual void post_load(const void* addr, std::memory_order mo) = 0;
  virtual void post_store(const void* addr, std::memory_order mo) = 0;
  virtual void post_rmw(const void* addr, std::memory_order mo) = 0;

  /// Mutex modelling: lock() blocks until the model grants the mutex,
  /// acquired()/release() apply the happens-before transfer.
  virtual void mutex_lock(const void* m) = 0;
  virtual bool mutex_try_lock(const void* m) = 0;
  virtual void mutex_unlock(const void* m) = 0;

  /// Condition-variable modelling (registration before release is what
  /// makes lost wakeups detectable as model deadlocks).
  virtual void cv_register(const void* cv) = 0;
  virtual void cv_block(const void* cv) = 0;
  virtual void cv_notify_all(const void* cv) = 0;

  /// Fault injection: the memory order / mutation state for a named point.
  virtual std::memory_order order_at(Mutation point, std::memory_order d) = 0;
  virtual bool mutation_on(Mutation point) = 0;
};

/// The observer of the calling thread; null outside the rtcheck harness.
/// NOLINTNEXTLINE(readability-identifier-naming): TLS slot, not a constant.
inline thread_local SyncObserver* tls_sync_observer = nullptr;

inline void sync_pre(SyncKind k, const void* addr, std::memory_order mo,
                     std::uint64_t info = 0) {
  if (SyncObserver* o = tls_sync_observer) o->pre(k, addr, mo, info);
}
inline void sync_post_load(const void* addr, std::memory_order mo) {
  if (SyncObserver* o = tls_sync_observer) o->post_load(addr, mo);
}
inline void sync_post_store(const void* addr, std::memory_order mo) {
  if (SyncObserver* o = tls_sync_observer) o->post_store(addr, mo);
}
inline void sync_post_rmw(const void* addr, std::memory_order mo) {
  if (SyncObserver* o = tls_sync_observer) o->post_rmw(addr, mo);
}
inline void sync_plain_read(const void* addr) {
  if (SyncObserver* o = tls_sync_observer) {
    o->pre(SyncKind::kPlainRead, addr, std::memory_order_relaxed, 0);
  }
}
inline void sync_plain_write(const void* addr) {
  if (SyncObserver* o = tls_sync_observer) {
    o->pre(SyncKind::kPlainWrite, addr, std::memory_order_relaxed, 0);
  }
}
/// Protocol event (LCO fire, batch flush, ...); `info` carries a count or
/// delta where the event kind needs one.
inline void sync_event(SyncKind k, const void* addr, std::uint64_t info = 0) {
  if (SyncObserver* o = tls_sync_observer) {
    o->pre(k, addr, std::memory_order_relaxed, info);
  }
}

/// The memory order to use at a named mutation point: the annotated order
/// normally, the weakened order when the harness enabled the mutation.
inline std::memory_order rt_order(Mutation point, std::memory_order d) {
  if (SyncObserver* o = tls_sync_observer) return o->order_at(point, d);
  return d;
}
/// Whether the harness enabled a named mutation (always false outside it).
inline bool rt_mutation(Mutation point) {
  if (SyncObserver* o = tls_sync_observer) return o->mutation_on(point);
  return false;
}

/// True when the calling thread runs under the model scheduler.  The sync
/// primitives below branch on this to route blocking through the model.
inline bool sync_observed() { return tls_sync_observer != nullptr; }

/// Mutex/cv hook points used by SyncMutex/SyncCondVar.  The model grant
/// happens before the real lock: when the harness resumes the thread the
/// real mutex is guaranteed free (the model admits one holder), so the
/// real operation never blocks under the serialized scheduler.
inline void sync_mutex_lock_hook(const void* m) {
  if (SyncObserver* o = tls_sync_observer) o->mutex_lock(m);
}
inline bool sync_mutex_try_lock_hook(const void* m) {
  if (SyncObserver* o = tls_sync_observer) return o->mutex_try_lock(m);
  return true;
}
inline void sync_mutex_unlock_hook(const void* m) {
  if (SyncObserver* o = tls_sync_observer) o->mutex_unlock(m);
}
inline void sync_cv_register_hook(const void* cv) {
  if (SyncObserver* o = tls_sync_observer) o->cv_register(cv);
}
inline void sync_cv_block_hook(const void* cv) {
  if (SyncObserver* o = tls_sync_observer) o->cv_block(cv);
}
inline void sync_cv_notify_hook(const void* cv) {
  if (SyncObserver* o = tls_sync_observer) o->cv_notify_all(cv);
}

#else  // !AMTFMM_RTCHECK — every hook vanishes.

inline void sync_pre(SyncKind, const void*, std::memory_order,
                     std::uint64_t = 0) {}
inline void sync_post_load(const void*, std::memory_order) {}
inline void sync_post_store(const void*, std::memory_order) {}
inline void sync_post_rmw(const void*, std::memory_order) {}
inline void sync_plain_read(const void*) {}
inline void sync_plain_write(const void*) {}
inline void sync_event(SyncKind, const void*, std::uint64_t = 0) {}
inline std::memory_order rt_order(Mutation, std::memory_order d) { return d; }
inline bool rt_mutation(Mutation) { return false; }

inline bool sync_observed() { return false; }
inline void sync_mutex_lock_hook(const void*) {}
inline bool sync_mutex_try_lock_hook(const void*) { return true; }
inline void sync_mutex_unlock_hook(const void*) {}
inline void sync_cv_register_hook(const void*) {}
inline void sync_cv_block_hook(const void*) {}
inline void sync_cv_notify_hook(const void*) {}

#endif  // AMTFMM_RTCHECK

/// The runtime's mutex: a std::mutex wrapper that (a) carries the Clang
/// thread-safety CAPABILITY annotations — libstdc++'s std::mutex has none,
/// so locking through it is invisible to -Wthread-safety — and (b) funnels
/// lock/unlock through the rtcheck schedule-point hooks.  In production
/// builds the hooks are empty and every method inlines to the raw
/// std::mutex call.
class CAPABILITY("mutex") SyncMutex {
 public:
  SyncMutex() = default;
  SyncMutex(const SyncMutex&) = delete;
  SyncMutex& operator=(const SyncMutex&) = delete;

  void lock() ACQUIRE() {
    sync_mutex_lock_hook(this);
    m_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!sync_mutex_try_lock_hook(this)) return false;
    return m_.try_lock();
  }
  void unlock() RELEASE() {
    m_.unlock();
    sync_mutex_unlock_hook(this);
  }

  /// The wrapped mutex — for SyncCondVar's adopt-lock wait only; never
  /// lock through this (it would bypass both the annotations and the
  /// model hooks).
  std::mutex& native() { return m_; }

 private:
  std::mutex m_;
};

/// std::lock_guard over a SyncMutex, annotated as a scoped capability so
/// the analysis tracks the critical section.
class SCOPED_CAPABILITY SyncLockGuard {
 public:
  explicit SyncLockGuard(SyncMutex& m) ACQUIRE(m) : m_(m) { m_.lock(); }
  ~SyncLockGuard() RELEASE() { m_.unlock(); }

  SyncLockGuard(const SyncLockGuard&) = delete;
  SyncLockGuard& operator=(const SyncLockGuard&) = delete;

 private:
  SyncMutex& m_;
};

/// std::unique_lock over a SyncMutex: supports the runtime's
/// unlock-work-relock pattern (drop the lock across a blocking write or a
/// task body, reacquire after) and condition-variable waits.  Annotated as
/// a scoped capability; manual lock()/unlock() keep the analysis's view of
/// the critical section exact.
class SCOPED_CAPABILITY SyncUniqueLock {
 public:
  explicit SyncUniqueLock(SyncMutex& m) ACQUIRE(m) : m_(&m), owned_(true) {
    m_->lock();
  }
  SyncUniqueLock(SyncMutex& m, std::defer_lock_t) EXCLUDES(m)
      : m_(&m), owned_(false) {}
  ~SyncUniqueLock() RELEASE() {
    if (owned_) m_->unlock();
  }

  SyncUniqueLock(const SyncUniqueLock&) = delete;
  SyncUniqueLock& operator=(const SyncUniqueLock&) = delete;

  void lock() ACQUIRE() {
    m_->lock();
    owned_ = true;
  }
  void unlock() RELEASE() {
    m_->unlock();
    owned_ = false;
  }

  SyncMutex* mutex() const { return m_; }

 private:
  SyncMutex* m_;
  bool owned_;
};

/// Condition variable paired with SyncMutex.  There is deliberately no
/// wait(lock, predicate) overload: -Wthread-safety analyzes a predicate
/// lambda as a separate unannotated function, so a predicate reading
/// GUARDED_BY state can never be annotation-clean — callers write the
/// explicit `while (!cond) cv.wait(lk);` loop instead, which the analysis
/// checks exactly.
///
/// Under the rtcheck model scheduler, waiting registers the thread with
/// the model *before* releasing the lock (so a notify between release and
/// block is never lost) and blocks on the model; a wait with no reachable
/// notify is reported as a deadlock (lost wakeup).  The model has no
/// clock, so timed waits are a single schedule point that expires
/// immediately — no current scenario exercises a timed wait.
class SyncCondVar {
 public:
  /// NO_THREAD_SAFETY_ANALYSIS: the body hands lk's capability through
  /// std::adopt_lock / model unlock-relock steps the analysis cannot
  /// follow; callers hold the lock across the call, which is exactly what
  /// the analysis observes at the call site.
  void wait(SyncUniqueLock& lk) NO_THREAD_SAFETY_ANALYSIS {
    if (sync_observed()) {
      sync_cv_register_hook(this);
      lk.unlock();
      sync_cv_block_hook(this);
      lk.lock();
      return;
    }
    std::unique_lock<std::mutex> inner(lk.mutex()->native(), std::adopt_lock);
    cv_.wait(inner);
    inner.release();
  }

  /// See wait() for the NO_THREAD_SAFETY_ANALYSIS rationale and the
  /// model-clock caveat.
  template <class Rep, class Period>
  std::cv_status wait_for(SyncUniqueLock& lk,
                          const std::chrono::duration<Rep, Period>& d)
      NO_THREAD_SAFETY_ANALYSIS {
    if (sync_observed()) {
      sync_event(SyncKind::kCvWait, this);
      return std::cv_status::timeout;
    }
    std::unique_lock<std::mutex> inner(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status s = cv_.wait_for(inner, d);
    inner.release();
    return s;
  }

  /// See wait() for the NO_THREAD_SAFETY_ANALYSIS rationale and the
  /// model-clock caveat.
  template <class Clock, class Duration>
  std::cv_status wait_until(SyncUniqueLock& lk,
                            const std::chrono::time_point<Clock, Duration>& t)
      NO_THREAD_SAFETY_ANALYSIS {
    if (sync_observed()) {
      sync_event(SyncKind::kCvWait, this);
      return std::cv_status::timeout;
    }
    std::unique_lock<std::mutex> inner(lk.mutex()->native(), std::adopt_lock);
    const std::cv_status s = cv_.wait_until(inner, t);
    inner.release();
    return s;
  }

  void notify_all() {
    sync_cv_notify_hook(this);
    cv_.notify_all();
  }

 private:
  std::condition_variable cv_;
};

/// Lock guard for a named lock-elision mutation point: takes the lock
/// normally, skips it when the rtcheck harness enabled the mutation (the
/// deliberately reintroduced bug the checker must catch).  The annotations
/// claim the capability unconditionally — the skip exists only under the
/// model, where -Wthread-safety is not the checker on duty.
class SCOPED_CAPABILITY MaybeLockGuard {
 public:
  MaybeLockGuard(SyncMutex& m, Mutation point) ACQUIRE(m)
      : m_(m), skip_(rt_mutation(point)) {
    if (!skip_) m_.lock();
  }
  ~MaybeLockGuard() RELEASE() {
    if (!skip_) m_.unlock();
  }
  MaybeLockGuard(const MaybeLockGuard&) = delete;
  MaybeLockGuard& operator=(const MaybeLockGuard&) = delete;

 private:
  SyncMutex& m_;
  bool skip_;
};

/// Hooked wrappers over the std::atomic operations the runtime's
/// concurrent structures use.  Each wrapper is the annotated operation plus
/// a pre-hook (the model checker's schedule point) and a post-hook (the
/// happens-before effect that actually occurred); in normal builds both
/// hooks are empty and the wrapper compiles to exactly the raw operation.
template <typename V>
inline V hooked_load(const std::atomic<V>& a, std::memory_order mo) {
  sync_pre(SyncKind::kAtomicLoad, &a, mo);
  V v = a.load(mo);
  sync_post_load(&a, mo);
  return v;
}

template <typename V, typename U>
inline void hooked_store(std::atomic<V>& a, U v, std::memory_order mo) {
  sync_pre(SyncKind::kAtomicStore, &a, mo);
  a.store(v, mo);
  sync_post_store(&a, mo);
}

template <typename V, typename U>
inline V hooked_fetch_add(std::atomic<V>& a, U v, std::memory_order mo) {
  sync_pre(SyncKind::kAtomicRmw, &a, mo, static_cast<std::uint64_t>(v));
  V r = a.fetch_add(v, mo);
  sync_post_rmw(&a, mo);
  return r;
}

template <typename V, typename U>
inline V hooked_fetch_sub(std::atomic<V>& a, U v, std::memory_order mo) {
  sync_pre(SyncKind::kAtomicRmw, &a, mo, static_cast<std::uint64_t>(v));
  V r = a.fetch_sub(v, mo);
  sync_post_rmw(&a, mo);
  return r;
}

/// compare_exchange_strong with the failure path reported as a load with
/// the failure order (a failed CAS synchronizes only as a load).
template <typename V>
inline bool hooked_cas(std::atomic<V>& a, V& expected, V desired,
                       std::memory_order success, std::memory_order failure) {
  sync_pre(SyncKind::kAtomicRmw, &a, success);
  const bool ok = a.compare_exchange_strong(expected, desired, success,
                                            failure);
  if (ok) {
    sync_post_rmw(&a, success);
  } else {
    sync_post_load(&a, failure);
  }
  return ok;
}

}  // namespace amtfmm
