#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "runtime/sync_hook.hpp"
#include "runtime/trace.hpp"

namespace amtfmm {

/// Always-on post-mortem recorder: per-worker fixed-size ring buffers
/// holding the most recent trace events even when full tracing is off,
/// dumped to a Chrome trace when something goes wrong (fatal signal, net
/// failure teardown, serve-epoch watchdog).  A hung or crashed
/// multi-process run then always yields a "last N events of every worker
/// on every rank" artifact.
///
/// Memory model (DESIGN.md §7): each ring is single-writer — worker w is
/// the only thread that ever writes ring w, advancing a monotone head
/// cursor with a release store after the slot write.  The dump path reads
/// heads with acquire and copies the newest min(head, capacity) slots.
/// A dump racing live writers (the crash/watchdog case) can observe a
/// torn slot at the overwrite frontier; the dumper drops events whose
/// times fail basic sanity instead of synchronizing with the hot path —
/// a flight recorder trades perfect fidelity at the crash instant for a
/// zero-coordination steady state.
class FlightRecorder {
 public:
  struct Event {
    double t0 = 0.0;
    double t1 = 0.0;
    std::uint32_t arg = kNoTraceArg;
    std::uint8_t cls = 0;
    std::uint8_t kind = 0;  ///< InstantKind when instant
    bool instant = false;
  };

  /// `events_per_worker` is rounded up to a power of two.
  explicit FlightRecorder(int workers, std::size_t events_per_worker = 4096);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Where dump() writes.  Copied into a fixed internal buffer so the
  /// crash path never allocates; over-long paths are truncated.
  void set_dump_path(const std::string& path);

  /// Identity + clock metadata embedded in the dump so merged multi-rank
  /// flight dumps can be aligned like regular traces.
  void set_meta(std::uint32_t rank, int cores, const TraceClock& clock);

  /// Hot-path writes, routed here by TraceSink when flight mode is on.
  /// Single-writer per ring: only worker w records to ring w.
  void record_span(std::uint32_t worker, std::uint8_t cls, double t0,
                   double t1, std::uint32_t arg) {
    push(rings_[worker], span_event(cls, t0, t1, arg));
  }
  void record_instant(std::uint32_t worker, InstantKind kind, double t,
                      std::uint32_t arg) {
    push(rings_[worker], instant_event(kind, t, arg));
  }
  /// Instants from threads that are not scheduler workers (TraceSink's
  /// kNonWorker): serialized by a mutex into their own ring, dumped as
  /// worker 0, so no worker ring ever sees a second writer.
  void record_non_worker_instant(InstantKind kind, double t,
                                 std::uint32_t arg);
  /// Wire messages (rare): a small mutex-guarded ring.  The dump path
  /// only try_locks it, so a thread crashing while holding the lock can
  /// never deadlock the signal handler.
  void record_comm(const CommEvent& e);

  /// Writes the ring contents to the dump path as a Chrome trace (JSON),
  /// with `reason` in the metadata.  Avoids allocation and stdio streams:
  /// snprintf into a fixed buffer + write(2), so it is safe to call from
  /// a fatal-signal handler.  Returns false when the file cannot be
  /// opened or no path was configured.  Idempotent per call (truncates).
  bool dump(const char* reason) const;

  int workers() const { return static_cast<int>(rings_.size()); }
  std::size_t capacity() const { return mask_ + 1; }

 private:
  struct Ring {
    std::unique_ptr<Event[]> slots;
    /// Monotone event count; slot (head-1) & mask_ is the newest event.
    alignas(64) std::atomic<std::uint64_t> head{0};
  };

  static Event span_event(std::uint8_t cls, double t0, double t1,
                          std::uint32_t arg) {
    Event e;
    e.t0 = t0;
    e.t1 = t1;
    e.arg = arg;
    e.cls = cls;
    return e;
  }
  static Event instant_event(InstantKind kind, double t, std::uint32_t arg) {
    Event e;
    e.t0 = t;
    e.t1 = t;
    e.arg = arg;
    e.kind = static_cast<std::uint8_t>(kind);
    e.instant = true;
    return e;
  }
  /// Appends to a ring that has one writer at a time.
  void push(Ring& r, const Event& e) {
    // relaxed-ok: single-writer cursor; the paired release store below
    // publishes the slot, and only the ring's writer advances the head.
    const std::uint64_t h = r.head.load(std::memory_order_relaxed);
    r.slots[h & mask_] = e;
    r.head.store(h + 1, std::memory_order_release);
  }

  std::vector<Ring> rings_;
  std::uint64_t mask_ = 0;

  /// Serializes non-worker writers of non_worker_.  The ring itself is
  /// not GUARDED_BY: like the worker rings, the dump path reads it
  /// lock-free (acquire on the head), which keeps dump() signal safe.
  SyncMutex non_worker_mu_;
  Ring non_worker_;

  mutable SyncMutex comm_mu_;
  std::vector<CommEvent> comm_ GUARDED_BY(comm_mu_);
  std::size_t comm_head_ GUARDED_BY(comm_mu_) = 0;

  char path_[512] = {};
  std::uint32_t rank_ = 0;
  int cores_ = 0;
  TraceClock clock_{};
};

/// Process-wide registry feeding the crash paths: fatal-signal handler,
/// net-failure teardown, and watchdogs call flight_dump_all() to dump
/// every live recorder.  Registration is bounded (a process hosts a
/// handful of recorders at most) and lock-free on the dump side so the
/// signal handler never blocks.
void flight_register(FlightRecorder* fr);
void flight_unregister(FlightRecorder* fr);

/// Dumps every registered recorder; returns how many dumps were written.
/// Safe from a signal handler.
int flight_dump_all(const char* reason);

/// Installs fatal-signal handlers (SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT)
/// that dump all registered recorders, then re-raise with the default
/// disposition so the process still dies with the original signal.
/// Idempotent.
void flight_install_crash_handler();

}  // namespace amtfmm
