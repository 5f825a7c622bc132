#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <thread>

#include "runtime/executor.hpp"
#include "runtime/locality_runtime.hpp"
#include "runtime/sync_hook.hpp"
#include "runtime/ws_deque.hpp"
#include "support/rng.hpp"

namespace amtfmm {

/// Real execution: L x C std::thread workers with per-worker double-ended
/// queues and locality-local randomized work stealing, matching the paper's
/// HPX-5 configuration ("local randomized workstealing for node-local
/// thread scheduling").  Localities are in-process; send() delivers the
/// parcel to a worker of the destination locality, which runs it through
/// the handler registered for its kind, and accounts bytes.
///
/// Scheduling fabric (lock-light):
///  - each worker owns bounded Chase-Lev deques (ws_deque.hpp); push/pop/
///    steal are lock-free, with an owner-only spill list when a ring fills,
///  - cross-thread spawns land in the target worker's MPSC inbox (a Treiber
///    stack) and are drained into its deque by the owner,
///  - idle workers back off spin -> yield -> park; parking uses a Dekker
///    protocol (publish work seq_cst, then read sleepers / increment
///    sleepers seq_cst, then re-check work) with an epoch counter bumped
///    under the idle mutex so wakeups cannot be lost.
///
/// Each worker keeps a second deque for Task::high_priority work that is
/// always drained first — the binary priority extension the paper proposes
/// in section VI (the engine marks tasks high only under split_priority).
///
/// Parcel coalescing (CoalesceConfig.enabled): remote sends buffer per
/// (src, dst) locality pair and flush as one batch task on threshold; idle
/// workers flush their locality's expired buffers (deadline) and flush
/// everything outbound before parking (quiescence), and drain() flushes any
/// remainder, so no parcel is ever stranded.  Batches of one pair are
/// re-sequenced at the destination, so per-(src,dst) parcel delivery stays
/// FIFO even when batch tasks land on different workers.
///
/// A derived executor may host only some localities of a larger world (a
/// socket rank hosts exactly its own, see net::NetExecutor): the same
/// workers, deques and flushes serve the hosted localities, and every batch
/// bound for another locality goes to the transmit() hook instead.
class ThreadExecutor : public Executor {
 public:
  /// Throws config_error for zero localities or cores (and, for a derived
  /// executor, a hosted range outside the world) before any worker starts.
  ThreadExecutor(int num_localities, int cores_per_locality,
                 std::uint64_t seed = 1, CoalesceConfig coalesce = {})
      : ThreadExecutor(num_localities, cores_per_locality, seed, coalesce, 0,
                       num_localities) {}
  ~ThreadExecutor() override;

  ThreadExecutor(const ThreadExecutor&) = delete;
  ThreadExecutor& operator=(const ThreadExecutor&) = delete;

  int num_localities() const override { return num_localities_; }
  int cores_per_locality() const override { return cores_; }
  int current_locality() const override;
  bool locality_is_local(std::uint32_t loc) const override {
    return loc - first_ < static_cast<std::uint32_t>(hosted_);
  }

  void spawn(Task t) override;
  void send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
            Task t) override;
  double drain() override;
  double now() const final;
  TraceClock trace_clock() const override;

 protected:
  /// Hosts localities [first, first + hosted) of a world of
  /// `num_localities`: only their workers exist here, and batches bound for
  /// any other locality go to transmit().
  ThreadExecutor(int num_localities, int cores_per_locality,
                 std::uint64_t seed, CoalesceConfig coalesce,
                 std::uint32_t first, int hosted);

  /// Puts a batch bound for a locality this executor does not host on the
  /// wire.  A coalesced batch's parcels stay counted in the runtime's
  /// buffered() until the override calls note_batch_consumed().  Called
  /// from tasks, idle workers and drain(); an executor that hosts every
  /// locality never calls it.
  virtual void transmit(ParcelBatch b);

  /// The task that runs coalesced batch `b` at its (hosted) destination,
  /// re-sequenced with the other batches of its (src, dst) pair.
  Task batch_task(ParcelBatch b);

  /// One local-quiescence step of drain(): waits until no task is queued
  /// or running (or the workers stopped), flushes every coalescing buffer,
  /// and returns true when nothing was flushed and idle() holds.
  bool settle();

  /// No parcel buffered and no task queued or running.  Buffered first: a
  /// batch leaves buffered() only after its task is spawned (or its frame
  /// posted), so the task count read second cannot miss it.
  bool idle() const {
    return rt_->buffered() == 0 &&
           outstanding_.load(std::memory_order_seq_cst) == 0;
  }

  /// Stops the workers for good: each finishes the task it is running and
  /// exits, queued tasks never run (the destructor frees them), and
  /// settle() stops waiting.  Callable from any thread, workers included.
  void stop_workers();
  /// Returns once every stopped worker has exited; never call it from a
  /// worker.
  void join_workers();

 private:
  struct TaskNode {
    Task task;
    TaskNode* next = nullptr;
  };

  struct WorkerState {
    WsDeque<TaskNode> high{1024};
    WsDeque<TaskNode> low{1024};
    std::atomic<TaskNode*> inbox{nullptr};  // MPSC Treiber stack
    // Owner-only spill when a bounded ring fills; never stolen from.
    std::deque<TaskNode*> overflow_high;
    std::deque<TaskNode*> overflow_low;
    Rng rng{0};
  };

  /// Destination-side re-sequencing of one (src, dst) pair's batches:
  /// batch tasks may land on any destination worker, so arrivals are
  /// reordered by sequence number and run serially, preserving FIFO.
  struct InOrder {
    SyncMutex mu;
    std::uint64_t expected GUARDED_BY(mu) = 0;
    bool running GUARDED_BY(mu) = false;
    std::map<std::uint64_t, ParcelBatch> ready GUARDED_BY(mu);
  };

  void worker_loop(int w);
  TaskNode* next_task(int w);
  TaskNode* try_steal(int w);
  void push_local(int w, TaskNode* n);
  void drain_inbox(int w);
  bool work_available(int w) const;
  void wake_all();
  void park(int w);

  /// Wraps a flushed batch into one task at the destination and spawns it.
  void deliver(ParcelBatch b);
  /// A flushed coalesced batch: delivered here or handed to transmit().
  void route(ParcelBatch b);
  /// Runs at the destination: re-sequences and executes batches in order.
  void run_batch_in_order(ParcelBatch b);
  /// Deadline flush of the worker's locality; returns true if any flushed.
  bool flush_expired(int w);
  /// Quiescence flush of everything outbound from the worker's locality.
  bool flush_outbound(int w);

  int num_localities_;
  int cores_;
  std::uint32_t first_;  ///< first hosted locality
  int hosted_;           ///< hosted locality count
  int nworkers_;         ///< hosted_ * cores_
  std::vector<std::unique_ptr<WorkerState>> workers_;
  std::vector<std::thread> threads_;

  SyncMutex idle_mu_;
  SyncCondVar idle_cv_;
  SyncCondVar drain_cv_;
  std::atomic<std::uint64_t> wake_epoch_{0};
  std::atomic<int> sleepers_{0};
  std::atomic<std::int64_t> outstanding_{0};
  // Buffered-parcel quiescence counter lives in the shared LocalityRuntime
  // (rt_).  Invariant: a parcel moves from buffered to outstanding_ by
  // spawning its batch task *before* note_batch_consumed(), so
  // outstanding_ == 0 && rt_->buffered() == 0 implies true quiescence.
  std::atomic<bool> stop_{false};
  std::vector<InOrder> inorder_;  // src * L + dst
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> spawn_rr_{0};
};

}  // namespace amtfmm
