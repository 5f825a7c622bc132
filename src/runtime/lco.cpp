#include "runtime/lco.hpp"

#include "runtime/locality_runtime.hpp"
#include "support/error.hpp"

namespace amtfmm {

void LCO::set_input(std::span<const std::byte> data) {
  bool now_triggered = false;
  {
    // rtcheck mutation point: eliding this lock lets concurrent reduce()
    // calls race (the checker flags the unordered accesses).  Normal builds
    // always lock.
    MaybeLockGuard lk(mu_, Mutation::kLcoSetInputNoLock);
    // relaxed-ok: guarded by mu_; fire() publishes triggered_ under mu_.
    AMTFMM_ASSERT_MSG(!hooked_load(triggered_, std::memory_order_relaxed),
                      "input to an already-triggered LCO");
    // Input-wait latency: stamp the first arrival, observe on trigger.  The
    // clock read is skipped entirely while the registry is disabled.  The
    // release store pairs with fire()'s acquire load outside the lock.
    if (hooked_load(first_input_t_, std::memory_order_acquire) < 0.0 &&
        ex_.counters().enabled()) {
      hooked_store(first_input_t_, ex_.now(), std::memory_order_release);
    }
    reduce(data);
    sync_event(SyncKind::kLcoInput, this);
    if (hooked_fetch_sub(remaining_, 1, std::memory_order_acq_rel) == 1) {
      now_triggered = true;
    }
  }
  if (now_triggered) fire();
}

void LCO::fire() {
  std::vector<Task> to_run;
  {
    SyncLockGuard lk(mu_);
    on_trigger();
    hooked_store(triggered_, true, std::memory_order_release);
    to_run.swap(continuations_);
  }
  cv_.notify_all();
  // Trigger-once protocol event: rtcheck reports a second fire on the same
  // object as a double-fire violation.
  sync_event(SyncKind::kLcoFire, this);
  const double tn =
      (ex_.counters().enabled() || ex_.trace().enabled()) ? ex_.now() : -1.0;
  if (tn >= 0.0) {
    const int w = LocalityRuntime::metric_worker();
    // Stored by the first input under mu_; this read is outside the lock
    // (cold path), so the stamp is atomic — acquire pairs with the release
    // store, on top of the acq_rel chain on remaining_.
    const double t0 = hooked_load(first_input_t_, std::memory_order_acquire);
    if (t0 >= 0.0) {
      ex_.counters().observe(
          w, ex_.runtime().ids().lco_input_wait_us,
          static_cast<std::uint64_t>((tn - t0) * 1e6));
    }
    if (ex_.trace().enabled()) {
      ex_.trace().record_instant(LocalityRuntime::trace_worker(),
                                 InstantKind::kLcoFire, tn);
    }
  }
  on_fire();
  for (auto& t : to_run) ex_.spawn(std::move(t));
}

void LCO::rearm(int inputs_needed) {
  SyncLockGuard lk(mu_);
  // The epoch boundary is a synchronization point: announce it before the
  // state flips so rtcheck orders the re-arm after the previous fire and
  // resets its trigger-once detector for this object.
  sync_event(SyncKind::kLcoRearm, this, static_cast<std::uint64_t>(
                                            inputs_needed < 0 ? 0
                                                              : inputs_needed));
  hooked_store(remaining_, inputs_needed, std::memory_order_release);
  hooked_store(triggered_, inputs_needed == 0, std::memory_order_release);
  hooked_store(first_input_t_, -1.0, std::memory_order_release);
}

void LCO::register_continuation(Task t) {
  {
    SyncLockGuard lk(mu_);
    sync_event(SyncKind::kLcoContinuation, this);
    // relaxed-ok: guarded by mu_; fire() publishes triggered_ under mu_.
    if (!hooked_load(triggered_, std::memory_order_relaxed)) {
      continuations_.push_back(std::move(t));
      return;
    }
  }
  ex_.spawn(std::move(t));
}

void LCO::wait() {
  AMTFMM_ASSERT_MSG(current_worker() < 0,
                    "LCO::wait would deadlock a scheduler thread");
  SyncUniqueLock lk(mu_);
  // Explicit predicate loop: SyncCondVar has no wait(pred) overload (a
  // predicate lambda defeats the thread-safety analysis; see sync_hook.hpp).
  while (!triggered_.load(std::memory_order_acquire)) cv_.wait(lk);
}

}  // namespace amtfmm
