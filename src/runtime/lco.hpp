#pragma once

#include <atomic>
#include <cstring>
#include <span>

#include "runtime/executor.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm {

/// Local Control Object: an event-driven, globally addressable
/// synchronization object co-locating data and control (section III of the
/// paper).  An LCO has input slots, a predicate (here: a countdown over the
/// expected number of inputs), and dynamically registered continuations
/// that are spawned as lightweight tasks exactly once, when the predicate
/// first holds.
///
/// Subclasses define what an input *is* by overriding reduce(); the base
/// class owns the concurrency: inputs may arrive from any worker, and
/// continuations may be registered before or after the trigger (a late
/// registration fires immediately) — the behaviour Figure 2 of the paper
/// illustrates.
class LCO {
 public:
  LCO(Executor& ex, int inputs_needed)
      : ex_(ex), remaining_(inputs_needed) {
    if (inputs_needed == 0) triggered_.store(true, std::memory_order_release);
  }
  virtual ~LCO() = default;

  /// Applies one input.  `data` is interpreted by the subclass's reduce().
  /// Thread safe; the reduction itself is serialized per LCO.
  void set_input(std::span<const std::byte> data);

  /// Registers a continuation task; spawned when (or immediately if) the
  /// LCO is triggered.
  void register_continuation(Task t);

  bool triggered() const { return triggered_.load(std::memory_order_acquire); }

  /// Blocks the calling (non-worker) thread until triggered.  Real-mode
  /// only; in sim mode drain the executor instead.
  void wait();

  /// Re-arms the trigger-once state for a new epoch: resets the countdown
  /// to `inputs_needed` and clears the trigger (set immediately when
  /// `inputs_needed == 0`, mirroring the constructor).  NOT thread safe
  /// with respect to set_input/fire: like LcoArena::rearm(), the caller
  /// must guarantee quiescence (executor drained, no in-flight inputs).  Under
  /// rtcheck the kLcoRearm event resets the double-fire detector, so a
  /// re-armed LCO may legally fire once more.
  void rearm(int inputs_needed);

 protected:
  /// Reduction of one input into the LCO's data; called under the LCO lock.
  virtual void reduce(std::span<const std::byte> data) = 0;
  /// Invoked once, after the final input and before continuations run.
  virtual void on_trigger() {}
  /// Invoked once, outside the LCO lock, after the trigger is published and
  /// before the registered continuations are spawned.  Subclasses use this
  /// to run trigger-time work that itself takes locks or spawns tasks.
  virtual void on_fire() {}

  Executor& ex_;

 private:
  void fire();

  // SyncMutex/SyncCondVar wrap std::mutex/std::condition_variable with the
  // thread-safety capability annotations; under AMTFMM_RTCHECK they are
  // also model-checker schedule points.
  SyncMutex mu_;
  SyncCondVar cv_;
  std::vector<Task> continuations_ GUARDED_BY(mu_);
  std::atomic<int> remaining_;
  std::atomic<bool> triggered_{false};
  /// Executor-clock time of the first input (-1 until seen); written under
  /// mu_, read by fire() after the final input *outside* the lock (the
  /// cold metrics path).  Atomic for exactly that unlocked read:
  /// -Wthread-safety rejected the previous plain double under GUARDED_BY,
  /// and without the annotation the read raced formally even though the
  /// acq_rel chain on remaining_ ordered it in practice.
  std::atomic<double> first_input_t_{-1.0};
};

/// Single-assignment future holding a trivially copyable value.
template <typename T>
class FutureLCO final : public LCO {
 public:
  explicit FutureLCO(Executor& ex) : LCO(ex, 1) {}

  void set(const T& value) {
    set_input(std::as_bytes(std::span<const T>(&value, 1)));
  }
  const T& get() {
    wait();
    return value_;
  }

 protected:
  void reduce(std::span<const std::byte> data) override {
    std::memcpy(&value_, data.data(), sizeof(T));
  }

 private:
  T value_{};
};

/// N-input sum reduction over doubles (the paper's example LCO class).
class SumLCO final : public LCO {
 public:
  SumLCO(Executor& ex, int inputs) : LCO(ex, inputs) {}

  void add(double v) {
    set_input(std::as_bytes(std::span<const double>(&v, 1)));
  }
  double value() {
    wait();
    return sum_;
  }

 protected:
  void reduce(std::span<const std::byte> data) override {
    double v;
    std::memcpy(&v, data.data(), sizeof(double));
    sum_ += v;
  }

 private:
  double sum_ = 0.0;
};

}  // namespace amtfmm
