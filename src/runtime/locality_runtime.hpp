#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

#include "kernels/kernel.hpp"
#include "runtime/coalescer.hpp"
#include "runtime/counters.hpp"
#include "runtime/executor.hpp"
#include "runtime/sync_hook.hpp"
#include "runtime/trace.hpp"
#include "support/error.hpp"

namespace amtfmm {

/// Ids of the standard runtime metrics, registered by LocalityRuntime at
/// construction so hot paths never pay a name lookup.  Taxonomy (see
/// DESIGN.md "Observability"): `sched.*` scheduler behaviour, `coalesce.*`
/// the parcel coalescing layer, `lco.*` dataflow synchronization, `gas.*`
/// global-address-space occupancy, `op.<name>.tasks` per-operator task
/// counts filled by the DAG engine, `serve.*` the resident-pipeline epoch
/// lifecycle (re-evaluations, reset latency, incremental-update churn,
/// request-batch high-water).
struct RuntimeCounterIds {
  CounterRegistry::Id steal_attempts = 0;
  CounterRegistry::Id steal_success = 0;
  CounterRegistry::Id park_count = 0;
  CounterRegistry::Id park_time_us = 0;
  CounterRegistry::Id inbox_drains = 0;
  CounterRegistry::Id inbox_tasks = 0;
  CounterRegistry::Id tasks_run = 0;
  CounterRegistry::Id deque_depth_hw = 0;       ///< gauge
  CounterRegistry::Id coalesce_buffered_hw = 0; ///< gauge
  CounterRegistry::Id flush_threshold = 0;
  CounterRegistry::Id flush_deadline = 0;
  CounterRegistry::Id flush_quiescence = 0;
  CounterRegistry::Id gas_objects_hw = 0;       ///< gauge
  CounterRegistry::Id lco_input_wait_us = 0;    ///< histogram
  CounterRegistry::Id serve_epochs = 0;         ///< resident re-evaluations
  CounterRegistry::Id serve_reset_us = 0;       ///< histogram: epoch reset
  CounterRegistry::Id serve_epoch_us = 0;       ///< histogram: epoch latency
  CounterRegistry::Id serve_dirty_leaves = 0;   ///< incremental-update leaves
  CounterRegistry::Id serve_batch_size_hw = 0;  ///< gauge: request batch size
  std::array<CounterRegistry::Id, kNumOperators> op_tasks{};
};

/// The executor-agnostic per-process runtime core shared by both execution
/// substrates: the parcel handler registry and the run rule, parcel
/// coalescing buffers, communication counters, the trace sink, and the
/// buffered-parcel quiescence bookkeeping.  ThreadExecutor and SimExecutor
/// are thin schedulers over this one component — they own *when* tasks run
/// and what transport costs, while LocalityRuntime owns *how* a task runs
/// and *what* is buffered, counted, and traced.
class LocalityRuntime {
 public:
  /// The outcome of handing one remote parcel to the runtime.
  struct Outgoing {
    /// A wire message to put on the transport now (threshold flush, or the
    /// whole single-parcel message when coalescing is off).
    std::optional<ParcelBatch> batch;
    bool first = false;       ///< parcel landed in an empty buffer
    std::uint64_t epoch = 0;  ///< buffer epoch, for deadline timers
  };

  /// `late_handlers`: parcels can arrive before their kind's handler
  /// registers (a socket rank's peers run ahead), so run() waits for it.
  LocalityRuntime(int num_localities, int total_workers,
                  const CoalesceConfig& coalesce, bool late_handlers = false)
      : late_handlers_(late_handlers),
        coalescer_(num_localities, coalesce),
        counters_(num_localities),
        trace_(total_workers),
        metrics_(total_workers) {
    ids_.steal_attempts = metrics_.counter("sched.steal_attempts");
    ids_.steal_success = metrics_.counter("sched.steal_success");
    ids_.park_count = metrics_.counter("sched.park_count");
    ids_.park_time_us = metrics_.counter("sched.park_time_us");
    ids_.inbox_drains = metrics_.counter("sched.inbox_drains");
    ids_.inbox_tasks = metrics_.counter("sched.inbox_tasks");
    ids_.tasks_run = metrics_.counter("sched.tasks_run");
    ids_.deque_depth_hw = metrics_.gauge("sched.deque_depth_hw");
    ids_.coalesce_buffered_hw = metrics_.gauge("coalesce.buffered_hw");
    ids_.flush_threshold = metrics_.counter("coalesce.flush_threshold");
    ids_.flush_deadline = metrics_.counter("coalesce.flush_deadline");
    ids_.flush_quiescence = metrics_.counter("coalesce.flush_quiescence");
    ids_.gas_objects_hw = metrics_.gauge("gas.objects_hw");
    ids_.lco_input_wait_us = metrics_.histogram("lco.input_wait_us");
    ids_.serve_epochs = metrics_.counter("serve.epochs");
    ids_.serve_reset_us = metrics_.histogram("serve.reset_us");
    ids_.serve_epoch_us = metrics_.histogram("serve.epoch_us");
    ids_.serve_dirty_leaves = metrics_.counter("serve.dirty_leaves");
    ids_.serve_batch_size_hw = metrics_.gauge("serve.batch_size_hw");
    for (int op = 0; op < kNumOperators; ++op) {
      ids_.op_tasks[static_cast<std::size_t>(op)] = metrics_.counter(
          std::string("op.") + to_string(static_cast<Operator>(op)) +
          ".tasks");
    }
  }

  /// Sets `kind`'s handler; an empty one unregisters the kind.
  void set_handler(std::uint8_t kind, Executor::NetHandler h);

  /// The run rule, the same on every executor: a parcel calls the handler
  /// registered for its kind with its payload (waiting for a late
  /// registration if late_handlers), and local work calls `fn`.
  void run(const Task& t);

  /// Accounts one logical parcel and either returns it as a ready wire
  /// message or buffers it.  Every executor's cross-locality send comes
  /// through here, and a task without a kind and a payload aborts.  With
  /// coalescing off the parcel always comes back as a single-parcel batch
  /// (coalesced == false) for the executor to transmit directly; with
  /// coalescing on, a batch is returned only when the append crossed a
  /// threshold, and the buffered_ quiescence counter is raised *before*
  /// the parcel enters the buffer.
  Outgoing submit(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                  Task t, double now) {
    AMTFMM_ASSERT_MSG(t.net_kind != 0 && t.net_payload,
                      "only a parcel crosses localities");
    counters_.on_parcel(to, bytes);
    Outgoing out;
    if (!coalescer_.config().enabled) {
      ParcelBatch b;
      b.src = from;
      b.dst = to;
      b.bytes = bytes;
      b.any_high = t.high_priority;
      b.coalesced = false;
      b.tasks.push_back(std::move(t));
      out.batch = std::move(b);
      return out;
    }
    const std::int64_t cur =
        buffered_.fetch_add(1, std::memory_order_seq_cst) + 1;
    metrics_.gauge_max(metric_worker(), ids_.coalesce_buffered_hw,
                       static_cast<std::uint64_t>(cur));
    auto r = coalescer_.enqueue(from, to, bytes, std::move(t), now);
    if (r.ready) out.batch = std::move(*r.ready);
    out.first = r.first;
    out.epoch = r.epoch;
    return out;
  }

  /// Accounts one wire message at transmission: batch counters, flush
  /// reason (coalesced batches only), and the comm trace event with the
  /// executor-supplied start/arrival times.
  void account_batch(const ParcelBatch& b, double start, double arrival) {
    counters_.on_batch(b.dst, b.tasks.size(), b.bytes);
    if (b.coalesced) {
      counters_.on_reason(b.reason);
      const int w = metric_worker();
      switch (b.reason) {
        case FlushReason::kThreshold:
          metrics_.add(w, ids_.flush_threshold);
          break;
        case FlushReason::kDeadline:
          metrics_.add(w, ids_.flush_deadline);
          break;
        case FlushReason::kQuiescence:
          metrics_.add(w, ids_.flush_quiescence);
          break;
      }
    }
    if (trace_.enabled()) {
      trace_.record_comm(CommEvent{start, arrival, b.src, b.dst,
                                   static_cast<std::uint32_t>(b.tasks.size()),
                                   b.bytes});
    }
  }

  /// Parcels sitting in coalescing buffers.  Invariant (kept by the
  /// executors): a parcel moves from buffered to scheduled by making its
  /// batch runnable *before* note_batch_consumed(), so buffered() == 0
  /// together with the executor's own task count implies true quiescence.
  std::int64_t buffered() const {
    return buffered_.load(std::memory_order_seq_cst);
  }
  void note_batch_consumed(std::int64_t parcels) {
    buffered_.fetch_sub(parcels, std::memory_order_seq_cst);
  }

  // Flush-policy forwarders (see ParcelCoalescer for semantics).
  std::optional<ParcelBatch> take_if_epoch(std::uint32_t src,
                                           std::uint32_t dst,
                                           std::uint64_t epoch) {
    return coalescer_.take_if_epoch(src, dst, epoch);
  }
  std::vector<ParcelBatch> take_expired_from(std::uint32_t src, double now) {
    return coalescer_.take_expired_from(src, now);
  }
  std::vector<ParcelBatch> take_all() { return coalescer_.take_all(); }
  std::vector<ParcelBatch> take_all_from(std::uint32_t src) {
    return coalescer_.take_all_from(src);
  }
  bool pending() const { return coalescer_.pending(); }
  bool pending_from(std::uint32_t src) const {
    return coalescer_.pending_from(src);
  }

  const CoalesceConfig& coalesce_config() const { return coalescer_.config(); }

  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }

  CounterRegistry& counters() { return metrics_; }
  const CounterRegistry& counters() const { return metrics_; }
  const RuntimeCounterIds& ids() const { return ids_; }

  /// Shard for metric updates from the calling thread: the worker id, or
  /// shard 0 for non-worker threads (main thread, sim event loop).
  static int metric_worker() {
    const int w = current_worker();
    return w >= 0 ? w : 0;
  }

  /// Trace attribution for an instant on the calling thread: the worker
  /// id, or TraceSink::kNonWorker for any other thread (its instants go
  /// to the sink's mutex-guarded side buffer and still report as worker 0).
  static std::uint32_t trace_worker() {
    const int w = current_worker();
    return w >= 0 ? static_cast<std::uint32_t>(w) : TraceSink::kNonWorker;
  }

  std::uint64_t bytes() const { return counters_.bytes(); }
  std::uint64_t parcels() const { return counters_.parcels(); }
  CommStats comm_stats() const { return counters_.snapshot(); }

 private:
  const bool late_handlers_;
  SyncMutex handlers_mu_;
  SyncCondVar handlers_cv_;
  std::array<Executor::NetHandler, 256> handlers_ GUARDED_BY(handlers_mu_);
  ParcelCoalescer coalescer_;
  CommCounters counters_;
  TraceSink trace_;
  CounterRegistry metrics_;
  RuntimeCounterIds ids_;
  std::atomic<std::int64_t> buffered_{0};
};

}  // namespace amtfmm
