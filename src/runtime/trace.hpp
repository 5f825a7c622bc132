#pragma once

#include <array>
#include <atomic>
#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "runtime/sync_hook.hpp"

namespace amtfmm {

/// Trace event classes: the eleven DAG operators (numbered as
/// kernels/kernel.hpp Operator) plus runtime-internal work.  Matches the
/// paper's section V.B instrumentation: "events marking the beginning and
/// ending of the various operations performed by DASHMM".
inline constexpr std::uint8_t kClsNetwork = 11;
inline constexpr std::uint8_t kClsOther = 12;
inline constexpr int kNumTraceClasses = 13;

const char* trace_class_name(std::uint8_t cls);

/// Sentinel for TraceEvent::arg / InstantEvent::arg: "no attribution".
inline constexpr std::uint32_t kNoTraceArg = 0xffffffffu;

/// One traced interval on one scheduler thread (times in seconds — wall
/// time in real mode, virtual time in sim mode).  `arg` attributes the span
/// to a DAG entity: for operator-class spans it is the DAG edge id whose
/// apply produced the work (kNoTraceArg when the span covers runtime work
/// with no single edge, e.g. parcel deserialization).  Edge ids index
/// Dag::edges, which the Chrome exporter embeds in the trace file so the
/// analyzer can rebuild the weighted dependency graph.
struct TraceEvent {
  double t0;
  double t1;
  std::uint32_t worker;
  std::uint8_t cls;
  std::uint32_t arg = kNoTraceArg;
};

/// One wire message on the interconnect: a parcel, or a coalesced batch of
/// parcels, from one locality to another.  In sim mode [t0, t1] is the NIC
/// occupancy interval (departure to arrival on the modelled network); in
/// real mode both ends carry the flush time (delivery is in-process).
struct CommEvent {
  double t0;
  double t1;
  std::uint32_t src;
  std::uint32_t dst;
  std::uint32_t parcels;  ///< logical parcels carried by this message
  std::uint64_t bytes;
};

/// Zero-duration scheduler events, rendered as Chrome instant events.
enum class InstantKind : std::uint8_t {
  kSteal = 0,       ///< successful steal; arg = victim worker
  kParcelSend = 1,  ///< batch handed to the wire; arg = destination locality
  kParcelRecv = 2,  ///< batch delivered; arg = source locality
  kLcoFire = 3,     ///< LCO trigger (all inputs arrived); arg = kNoTraceArg
};
inline constexpr int kNumInstantKinds = 4;

const char* instant_kind_name(InstantKind kind);

struct InstantEvent {
  double t;
  std::uint32_t worker;
  InstantKind kind;
  std::uint32_t arg = kNoTraceArg;
};

/// Clock anchoring for one rank's trace: how this executor's t=0 relates
/// to the machine's steady clock, to wall-clock time, and (for socket
/// localities) to rank 0's steady clock.  Recorded in trace metadata at
/// export time so merged multi-rank / multi-epoch traces can be aligned:
///   rank0_time(t) = steady_origin_s + t - offset_s - rank0_steady_origin_s
struct TraceClock {
  double steady_origin_s = 0.0;  ///< executor t=0 on the steady clock
  double wall_anchor_s = 0.0;    ///< Unix wall time at that same instant
  double offset_s = 0.0;         ///< local steady minus rank 0's (net only)
  double uncertainty_s = 0.0;    ///< clock-sync error bound (≤ RTT/2)
};

/// Captures the wall/steady correspondence for an executor whose t=0 sits
/// at `steady_origin_s` on the steady clock.  The only sanctioned wall
/// clock read in the runtime (see lint rule 7): traces anchor to real
/// time here, everything else stays on the steady clock.
TraceClock make_trace_clock(double steady_origin_s);

class FlightRecorder;

/// Collects events from many workers with per-worker buffers (no contention
/// on the hot path).
///
/// Two recording modes share one flag so the disabled hot path stays a
/// single relaxed load + branch: full tracing (unbounded per-worker
/// vectors, collected after drain) and flight recording (bounded
/// per-worker rings owned by a FlightRecorder, overwritten forever and
/// dumped only on a crash/stall).  Either, both, or neither can be on.
class TraceSink {
 public:
  static constexpr std::uint8_t kModeFull = 1;
  static constexpr std::uint8_t kModeFlight = 2;
  /// Worker id for instants recorded on a thread that is not a scheduler
  /// worker (the caller's thread seeding or draining an epoch).  Those go
  /// to a mutex-guarded side buffer — never into a worker's single-writer
  /// buffer or ring — and are reported as worker 0.  Spans always come
  /// from workers.
  static constexpr std::uint32_t kNonWorker = 0xffffffffu;

  explicit TraceSink(int workers)
      : buffers_(static_cast<std::size_t>(workers)),
        instants_(static_cast<std::size_t>(workers)) {}

  // The flag carries no data: workers read it on idle paths (steal/park)
  // while the main thread toggles it, and toggles happen only while the
  // executor is quiescent, so no ordering with event payloads is needed.
  void set_enabled(bool on) {
    if (on) {
      // relaxed-ok: control flag, no ordering required (see above).
      mode_.fetch_or(kModeFull, std::memory_order_relaxed);
    } else {
      // relaxed-ok: control flag, no ordering required (see above).
      mode_.fetch_and(static_cast<std::uint8_t>(~kModeFull),
                      std::memory_order_relaxed);
    }
  }
  /// True when ANY recording mode is on — the hot-path guard call sites
  /// use before computing timestamps.
  // relaxed-ok: control flag, no ordering required (see above).
  bool enabled() const { return mode_.load(std::memory_order_relaxed) != 0; }
  /// True when full (collectable) tracing specifically is on.
  // relaxed-ok: control flag, no ordering required (see above).
  bool full_enabled() const {
    return (mode_.load(std::memory_order_relaxed) & kModeFull) != 0;
  }

  /// Attaches (nullptr: detaches) the flight recorder.  Same quiescence
  /// contract as set_enabled: toggled only while no worker is recording.
  void set_flight(FlightRecorder* fr) {
    flight_ = fr;
    if (fr != nullptr) {
      // relaxed-ok: control flag, no ordering required (see set_enabled).
      mode_.fetch_or(kModeFlight, std::memory_order_relaxed);
    } else {
      // relaxed-ok: control flag, no ordering required (see set_enabled).
      mode_.fetch_and(static_cast<std::uint8_t>(~kModeFlight),
                      std::memory_order_relaxed);
    }
  }
  FlightRecorder* flight() const { return flight_; }

  void record(std::uint32_t worker, std::uint8_t cls, double t0, double t1,
              std::uint32_t arg = kNoTraceArg) {
    // relaxed-ok: control flag, no ordering required (see set_enabled).
    const std::uint8_t m = mode_.load(std::memory_order_relaxed);
    if (m == 0) return;
    assert(worker < buffers_.size() && "trace worker id out of range");
    if ((m & kModeFull) != 0) {
      buffers_[worker].push_back(TraceEvent{t0, t1, worker, cls, arg});
    }
    if ((m & kModeFlight) != 0) flight_span(worker, cls, t0, t1, arg);
  }

  void record_instant(std::uint32_t worker, InstantKind kind, double t,
                      std::uint32_t arg = kNoTraceArg) {
    // relaxed-ok: control flag, no ordering required (see set_enabled).
    const std::uint8_t m = mode_.load(std::memory_order_relaxed);
    if (m == 0) return;
    if (worker == kNonWorker) {
      record_non_worker(m, InstantEvent{t, 0, kind, arg});
      return;
    }
    assert(worker < instants_.size() && "trace worker id out of range");
    if ((m & kModeFull) != 0) {
      instants_[worker].push_back(InstantEvent{t, worker, kind, arg});
    }
    if ((m & kModeFlight) != 0) flight_instant(worker, kind, t, arg);
  }

  /// Records one wire message.  Thread safe; no-op when disabled.  Flushes
  /// are orders of magnitude rarer than task events, so a mutex suffices.
  void record_comm(const CommEvent& e);

  /// Merges all per-worker buffers (call after drain()).
  std::vector<TraceEvent> collect() const;

  /// Merges all per-worker instant buffers (call after drain()).
  std::vector<InstantEvent> collect_instants() const;

  /// Wire messages in departure order (call after drain()).
  std::vector<CommEvent> collect_comm() const;

  void clear();

 private:
  /// Out-of-line flight-ring writes: keeps trace.hpp free of the
  /// FlightRecorder definition (trace.cpp includes it) while the full-off
  /// and full-only paths above stay fully inlined.
  void flight_span(std::uint32_t worker, std::uint8_t cls, double t0,
                   double t1, std::uint32_t arg);
  void flight_instant(std::uint32_t worker, InstantKind kind, double t,
                      std::uint32_t arg);
  /// kNonWorker instants (rare): serialized under non_worker_mu_.
  void record_non_worker(std::uint8_t mode, const InstantEvent& e);

  std::atomic<std::uint8_t> mode_{0};
  FlightRecorder* flight_ = nullptr;
  std::vector<std::vector<TraceEvent>> buffers_;
  std::vector<std::vector<InstantEvent>> instants_;
  mutable SyncMutex non_worker_mu_;
  std::vector<InstantEvent> non_worker_instants_ GUARDED_BY(non_worker_mu_);
  mutable SyncMutex comm_mu_;
  std::vector<CommEvent> comm_ GUARDED_BY(comm_mu_);
};

/// Utilization fractions per the paper's equations (1) and (2):
///   f_k^(i) = dt_k^(i) / (n dt_k),   f_k = sum_i f_k^(i)
/// over M uniform intervals of [t_begin, t_end], where n is the total
/// number of scheduler threads.  Events spanning interval boundaries are
/// split proportionally; events entirely at or past t_end and zero-length
/// events contribute nothing.  A degenerate window (t_end <= t_begin)
/// yields all-zero fractions rather than NaN.
struct UtilizationProfile {
  std::vector<double> total;  // f_k, one per interval
  std::array<std::vector<double>, kNumTraceClasses> by_class;  // f_k^(i)
  double t_begin = 0.0;
  double t_end = 0.0;
};

UtilizationProfile utilization(std::span<const TraceEvent> events,
                               double t_begin, double t_end, int intervals,
                               int num_workers);

}  // namespace amtfmm
