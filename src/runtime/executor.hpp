#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "runtime/trace.hpp"
#include "support/error.hpp"

namespace amtfmm {

/// A task's virtual cost by trace class, consumed only by the sim
/// executor; in real mode the work traces itself via Worker::record.
struct CostItem {
  std::uint8_t cls;
  double cost;  // virtual seconds
  /// DAG attribution carried into the sim trace (see TraceEvent::arg).
  std::uint32_t arg = kNoTraceArg;
};

/// Parcel kinds: the destination runs the handler registered for a
/// parcel's kind on its payload.  0 marks local work, not a parcel.
/// Values below kNetKindUser are reserved for the engine.
inline constexpr std::uint8_t kNetKindEvalParcel = 1;
inline constexpr std::uint8_t kNetKindContribution = 2;
inline constexpr std::uint8_t kNetKindUser = 0x10;

/// One scheduled item of work: in HPX-5 terms a parcel that has reached
/// its destination and become a lightweight thread.  On every executor a
/// Task is either a parcel (net_kind != 0: the handler registered for the
/// kind runs on *net_payload, and `fn` never runs; only parcels cross
/// localities) or local work (`fn`, run on `locality`).
struct Task {
  std::function<void()> fn;  ///< local work only
  std::uint32_t locality = 0;
  bool high_priority = false;
  std::vector<CostItem> items;  ///< sim-mode cost breakdown
  /// A parcel's kind and payload.  Over sockets the payload size is the
  /// parcel's wire-byte count (the `bytes` passed to send()), so
  /// wire_bytes == bytes_sent stays exact; the simulator charges the
  /// modelled `bytes` instead.
  std::uint8_t net_kind = 0;
  std::shared_ptr<const std::vector<std::byte>> net_payload;
};

/// Per-locality parcel coalescing (the HPX-5 behaviour the paper relies on
/// for its distributed runs): outgoing parcels that target the same
/// destination locality are buffered per (source, destination) pair and
/// flushed as one batched wire message when the buffer reaches a parcel or
/// byte threshold, when the oldest buffered parcel exceeds the flush
/// deadline, or when the scheduler detects quiescence.  Per-(src,dst) FIFO
/// delivery order is preserved.  Disabled by default: every parcel is its
/// own message, the pre-coalescing behaviour.
struct CoalesceConfig {
  bool enabled = false;
  std::uint32_t max_parcels = 32;   ///< flush when this many parcels buffer
  std::size_t max_bytes = 1 << 15;  ///< ... or this many payload bytes
  double flush_deadline = 100e-6;   ///< seconds on the executor clock
};

/// Snapshot of the communication counters kept by every executor.  With
/// coalescing disabled, batches == parcels and the coalescing factor is 1.
struct CommStats {
  std::uint64_t parcels = 0;  ///< logical parcels handed to send()
  std::uint64_t batches = 0;  ///< physical wire messages delivered
  std::uint64_t bytes = 0;    ///< summed parcel wire bytes
  std::uint64_t flush_threshold = 0;   ///< batches flushed on size/bytes cap
  std::uint64_t flush_deadline = 0;    ///< ... on flush-deadline expiry
  std::uint64_t flush_quiescence = 0;  ///< ... on scheduler quiescence
  std::vector<std::uint64_t> parcels_to;  ///< per destination locality
  std::vector<std::uint64_t> batches_to;
  std::vector<std::uint64_t> bytes_to;
  /// Histogram of batch sizes: bucket i counts batches of [2^i, 2^(i+1))
  /// parcels.
  std::array<std::uint64_t, 16> batch_size_log2{};

  double coalescing_factor() const {
    return batches == 0 ? 1.0
                        : static_cast<double>(parcels) /
                              static_cast<double>(batches);
  }
};

class LocalityRuntime;
class CounterRegistry;

/// `num_localities`, once it and `cores_per_locality` describe a real
/// machine; throws config_error for a zero (or negative) size.  Executor
/// constructors call it before any member is sized from the two.
inline int checked_localities(int num_localities, int cores_per_locality) {
  if (num_localities < 1) throw config_error("localities must be >= 1");
  if (cores_per_locality < 1) throw config_error("cores must be >= 1");
  return num_localities;
}

/// Execution substrate: L localities x C scheduler threads plus an
/// interconnect.  Two implementations share this interface: a real
/// std::thread pool (ThreadExecutor) and a discrete-event simulation
/// (SimExecutor) used for the strong-scaling reproduction (see DESIGN.md).
/// Both are thin schedulers over one shared LocalityRuntime, which owns
/// the handler registry, the coalescing buffers, comm counters, trace
/// sink, and quiescence bookkeeping, and runs every task.
class Executor {
 public:
  virtual ~Executor();

  virtual int num_localities() const = 0;
  virtual int cores_per_locality() const = 0;
  int total_workers() const { return num_localities() * cores_per_locality(); }

  /// Locality of the task currently executing on this thread, or -1 when
  /// called outside a task (main thread, tests).  Used by the engine's
  /// debug ownership checks: expansion payloads may only be touched by
  /// tasks running on the owning locality.
  virtual int current_locality() const = 0;

  /// True when `loc`'s tasks run inside this process.  In-process
  /// executors host every locality; a socket-locality executor
  /// (net::NetExecutor) hosts exactly its own rank, and SPMD drivers use
  /// this to skip seeding/finalizing work that belongs to another process.
  virtual bool locality_is_local(std::uint32_t loc) const {
    return loc < static_cast<std::uint32_t>(num_localities());
  }

  /// The parcel handler registry, one per executor: an arriving parcel
  /// runs the handler registered for its kind.  Register a kind before
  /// its parcels can arrive.  Only a socket rank waits for a late
  /// registration (a peer can run ahead); elsewhere a parcel of an
  /// unregistered kind aborts.
  using NetHandler = std::function<void(const std::vector<std::byte>&)>;
  void register_net_handler(std::uint8_t kind, NetHandler h);

  /// Removes a kind's handler.  A receiver whose parcels outlive their
  /// producer (e.g. a new evaluation starting on a still-connected mesh)
  /// must unregister on teardown: arrivals for the kind then block in the
  /// late-registration wait instead of running a handler whose captured
  /// state is gone.
  void unregister_net_handler(std::uint8_t kind);

  /// Enqueues a task at task.locality.
  virtual void spawn(Task t) = 0;

  /// True when every task runs on the thread that calls drain() (the
  /// discrete-event sim).  On threaded executors a spawn from outside the
  /// workers goes through a LIFO inbox that workers empty at
  /// timing-dependent points, so a caller that needs a reproducible order
  /// starts its work from a task instead (see DagEngine::execute).
  virtual bool single_threaded() const { return false; }

  /// Sends a parcel of `bytes` from one locality to another; it runs at
  /// the destination after (modelled) transport.  This is the only way
  /// work crosses localities, and a closure cannot: it aborts.  A send to
  /// the sender's own locality is a local spawn, closure or parcel.
  virtual void send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
                    Task t) = 0;

  /// Runs until no task, parcel, or pending event remains.  Returns the
  /// makespan in seconds (wall time for real, virtual time for sim).
  virtual double drain() = 0;

  /// Current time on this executor's clock.
  virtual double now() const = 0;

  /// Clock anchoring for trace metadata: how now()'s t=0 relates to the
  /// steady clock, wall time, and (socket localities) rank 0's clock.
  /// The sim executor's virtual clock has no real-time anchor, so the
  /// default is the all-zero identity.
  virtual TraceClock trace_clock() const { return {}; }

  TraceSink& trace();
  const TraceSink& trace() const;

  /// The runtime's counter registry (sched/coalesce/lco/gas/op metrics).
  CounterRegistry& counters();
  const CounterRegistry& counters() const;

  /// Total bytes sent across localities (diagnostics).
  std::uint64_t bytes_sent() const;
  std::uint64_t parcels_sent() const;

  /// Full communication counters: parcels, batches, bytes, flush triggers,
  /// per-destination histograms.
  CommStats comm_stats() const;

  /// The shared runtime core backing this executor.
  LocalityRuntime& runtime();

 protected:
  std::unique_ptr<LocalityRuntime> rt_;
};

/// Identity of the executing worker thread, for real-mode tracing.
/// Returns -1 outside a worker.
int current_worker();

/// Records a trace event on the current worker using the executor clock.
/// No-op when tracing is disabled or called outside a worker.
class ScopedTrace {
 public:
  ScopedTrace(Executor& ex, std::uint8_t cls, std::uint32_t arg = kNoTraceArg)
      : ScopedTrace(ex, ex.trace(), cls, arg) {}
  /// `sink` is ex.trace(), looked up once by a caller with a hot loop of
  /// spans: while tracing is off each costs one inline load and branch.
  ScopedTrace(Executor& ex, TraceSink& sink, std::uint8_t cls,
              std::uint32_t arg = kNoTraceArg)
      : ex_(ex),
        sink_(sink.enabled() ? &sink : nullptr),
        cls_(cls),
        arg_(arg) {
    if (sink_ != nullptr) t0_ = ex.now();
  }
  ~ScopedTrace() {
    if (sink_ != nullptr) record();
  }
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  void record();

  Executor& ex_;
  TraceSink* sink_;  ///< null while tracing is off
  std::uint8_t cls_;
  std::uint32_t arg_;
  double t0_ = 0.0;
};

}  // namespace amtfmm
