#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "runtime/counters.hpp"
#include "runtime/executor.hpp"
#include "runtime/sync_hook.hpp"
#include "support/error.hpp"

namespace amtfmm {

/// The trigger-once countdowns of a whole DAG, one per node, in flat
/// arrays indexed by node: the paper's per-node LCOs (section IV, Fig. 2)
/// without a heap object per node.  Node i's countdown starts at its
/// in-degree; the input that brings it to zero triggers the node, and only
/// that caller learns so (input() returns true) and runs the node's
/// trigger-time work.  A node with in-degree zero starts triggered.
///
/// The caller's reduction runs under one of kStripes mutexes, picked by
/// i & (kStripes - 1), so two inputs to one node never reduce at once.
/// The nodes a worker feeds at one moment lie close in index, so with
/// thousands of stripes two workers rarely share one's cache line; with a
/// few dozen, the lines ping-pong between cores on fine-grain DAGs.  The
/// arena owns every piece of concurrency the dataflow needs; what an input
/// carries, and where its reduction lands, is the caller's business.  The
/// fire bookkeeping happens here too: the lco.input_wait_us sample, the
/// kLcoFire trace instant, and the rtcheck protocol events (kLcoInput,
/// kLcoFire, kLcoRearm keyed on the node's countdown).
class LcoArena {
 public:
  static constexpr std::uint32_t kStripes = 4096;
  static_assert((kStripes & (kStripes - 1)) == 0);
  /// Per-node bytes: the countdown plus the first-input stamp.
  static constexpr std::size_t kBytesPerNode =
      sizeof(std::atomic<int>) + sizeof(double);

  /// Every node starts triggered (countdown zero) until rearm().
  LcoArena(Executor& ex, std::size_t nodes);

  LcoArena(const LcoArena&) = delete;
  LcoArena& operator=(const LcoArena&) = delete;

  std::size_t size() const { return n_; }

  /// Re-arms node i's countdown to in_degree[i] for every node, in one
  /// pass.  NOT thread safe with respect to input(): the caller guarantees
  /// quiescence (executor drained, no in-flight inputs).
  void rearm(std::span<const std::uint32_t> in_degree);

  bool triggered(std::uint32_t i) const {
    AMTFMM_ASSERT(i < n_);
    return hooked_load(count_[i], std::memory_order_acquire) <= 0;
  }

  /// Applies one input to node i: runs `reduce()` under the node's stripe
  /// lock, then counts the input down.  Returns true only to the input
  /// that triggered the node; that caller fires it, outside the lock.
  /// An input to a triggered node is a dataflow bug and aborts.
  template <class Reduce>
  bool input(std::uint32_t i, Reduce&& reduce) {
    AMTFMM_ASSERT(i < n_);
    bool now_triggered = false;
    double first_t = -1.0;
    {
      // rtcheck mutation point: skipping the stripe lock lets two inputs
      // to one node reduce at once (the checker flags the race).
      MaybeLockGuard lk(stripe(i), Mutation::kArenaInputNoLock);
      // relaxed-ok: count_ changes only under this stripe lock; rearm()
      // runs quiescent.
      AMTFMM_ASSERT_MSG(hooked_load(count_[i], std::memory_order_relaxed) > 0,
                        "input to an already-triggered LCO");
      // Input-wait latency: stamp the first arrival, sample it at the
      // trigger.  Neither the stamp nor the clock is read while the
      // registry is disabled.
      if (ex_.counters().enabled() && first_t_[i] < 0.0) {
        first_t_[i] = ex_.now();
      }
      reduce();
      sync_event(SyncKind::kLcoInput, &count_[i]);
      if (hooked_fetch_sub(count_[i], 1, std::memory_order_acq_rel) == 1) {
        now_triggered = true;
        first_t = first_t_[i];
      }
    }
    if (now_triggered) fired(i, first_t);
    return now_triggered;
  }

 private:
  struct alignas(64) Stripe {
    SyncMutex mu;
  };

  SyncMutex& stripe(std::uint32_t i) {
    return stripes_[i & (kStripes - 1)].mu;
  }
  /// The trigger's bookkeeping, after the stripe lock is released.
  void fired(std::uint32_t i, double first_t);

  Executor& ex_;
  std::size_t n_;
  /// Inputs still missing per node; <= 0 means triggered.
  std::unique_ptr<std::atomic<int>[]> count_;
  /// Executor-clock time of node i's first input this epoch (-1 until one
  /// arrives with counters on).  Written and read under the stripe lock.
  std::unique_ptr<double[]> first_t_;
  std::array<Stripe, kStripes> stripes_;
};

}  // namespace amtfmm
