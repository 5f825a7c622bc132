#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "runtime/net/transport.hpp"
#include "runtime/sync_hook.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm::net {

/// Socket-locality executor: this process IS one locality (its rank in a
/// world of N processes); the other N-1 localities live in peer processes
/// reached through NetTransport.  The SPMD contract mirrors MPI: every
/// rank constructs the identical global problem, but only tasks whose
/// locality equals the local rank run here (locality_is_local()), and
/// work crosses processes as it crosses localities on every executor: as
/// parcels, each a kind plus a serialized payload run at the destination
/// by the kind's handler, so a ParcelBatch goes on the socket as it is.
///
/// Scheduling: a ThreadExecutor hosting the one locality `rank`, so a
/// socket rank's tasks run on the same work-stealing deques, inboxes,
/// park/wake, idle-worker coalescer flushes and handler registry as
/// in-process localities.  Batches for the other ranks reach transmit(),
/// which puts them on the socket; arriving parcels run as spawned tasks,
/// coalesced ones through ThreadExecutor's per-pair re-sequencer.
///
/// Termination: drain() runs a coordinator/follower protocol over
/// control messages (rank 0 coordinates).  A rank is locally quiescent
/// when no task is queued or running and its coalescing buffers are empty;
/// the world terminates when a probe round finds every rank quiescent with
/// globally matching sent==received parcel counts that are *identical to
/// the previous round* (two agreeing rounds make the counter snapshot a
/// consistent cut despite message latency).  drain() is re-armable:
/// post-evaluation gathers can send more parcels and drain again.
class NetExecutor final : public ThreadExecutor {
 public:
  /// `cfg` describes this rank; `cores` is the local worker count.
  NetExecutor(const NetConfig& cfg, int cores, CoalesceConfig coalesce);
  ~NetExecutor() override;

  /// Runs to global quiescence (all ranks, termination protocol) and
  /// returns the wall-clock makespan.  Throws net_error if a peer died
  /// or the byte stream broke — never hangs on a dead mesh.
  double drain() override;
  TraceClock trace_clock() const override;

  std::uint32_t rank() const { return cfg_.rank; }
  std::uint32_t world() const { return cfg_.world; }

  /// Best-effort telemetry side channel (see NetTransport::post_telemetry
  /// — bypasses the injection window and all termination accounting).
  bool post_telemetry(std::uint32_t dst, std::span<const std::byte> payload) {
    if (cfg_.world == 1 || dst == cfg_.rank) return false;
    return transport_.post_telemetry(dst, payload);
  }
  /// Installs the telemetry receive callback (runs on the progress
  /// thread; must be cheap and non-blocking).  Callable any time.
  void set_on_telemetry(NetTransport::TelemetryFn fn);

 protected:
  /// Serializes and posts one batch to its destination rank.  Counter
  /// ordering is load-bearing for termination: sent_parcels_ rises
  /// BEFORE the frame can possibly be received anywhere, and a coalesced
  /// batch leaves the runtime's buffered() count only after the post, so
  /// it stays visible to quiescence detection from take to transmit.
  void transmit(ParcelBatch b) override;

 private:
  struct Ack {
    std::uint64_t round = 0;
    std::uint64_t sent = 0;
    std::uint64_t recvd = 0;
  };
  struct NetCounterIds {
    CounterRegistry::Id msgs_sent, msgs_recvd, wire_bytes_sent,
        wire_bytes_recvd, progress_iters, idle_polls, partial_writes,
        backpressure_stalls, backpressure_stall_us, control_msgs,
        termination_rounds, telemetry_sent, telemetry_recvd;  // counters
    CounterRegistry::Id inject_depth_hwm, inject_bytes_hwm;  // gauges
  };

  /// Progress-thread callbacks.
  void on_net_batch(ParcelBatch&& b);
  void on_net_control(const ControlMsg& m);
  void on_net_failure(const std::string& why);
  /// One coordinator probe round; true when the world terminated.
  bool coordinate_round();
  /// Follower wait: answer probes while quiescent; true on terminate,
  /// false when new local work arrived.
  bool follower_wait();
  /// Quiescent counter cut for a probe round: {sent, recvd}, or nullopt
  /// when a task is queued or running or a parcel is buffered.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> quiet_counts() const;
  void throw_if_failed();
  /// Folds transport stats into the net.* registry counters (deltas, so
  /// repeated drains never double-count).
  void fold_net_counters();

  NetConfig cfg_;
  NetTransport transport_;
  /// Clock-sync result against rank 0 (identity on rank 0), measured once
  /// right after the mesh comes up; trace_clock() carries it so merged
  /// multi-rank timelines can be offset-corrected.
  ClockSyncResult clock_sync_;

  // Termination protocol state.  mu_ guards only this; the scheduler's
  // own state lives in ThreadExecutor.  state_cv_ wakes drain() on control
  // messages, failure, and arriving work.
  mutable SyncMutex mu_;
  SyncCondVar state_cv_;
  // relaxed-ok (both): monotone counters; every decision read is ordered
  // by quiet_counts() and the two-round protocol supplies consistency.
  std::atomic<std::uint64_t> sent_parcels_{0};
  std::atomic<std::uint64_t> recvd_parcels_{0};
  /// Coordinator, per rank.
  std::vector<std::optional<Ack>> acks_ GUARDED_BY(mu_);
  bool prev_round_valid_ GUARDED_BY(mu_) = false;
  std::vector<Ack> prev_acks_ GUARDED_BY(mu_);
  Ack prev_self_ GUARDED_BY(mu_);
  std::uint64_t round_ GUARDED_BY(mu_) = 0;
  bool probe_pending_ GUARDED_BY(mu_) = false;
  std::uint64_t probe_round_ GUARDED_BY(mu_) = 0;
  /// Latest kTerminate received.
  std::uint64_t terminate_epoch_ GUARDED_BY(mu_) = 0;
  std::uint64_t drains_done_ GUARDED_BY(mu_) = 0;
  std::uint64_t term_rounds_stat_ GUARDED_BY(mu_) = 0;
  bool net_failed_ GUARDED_BY(mu_) = false;
  std::string net_failure_ GUARDED_BY(mu_);

  NetCounterIds nid_{};
  std::uint64_t folded_[13] = {};  ///< previously folded counter values
};

}  // namespace amtfmm::net
