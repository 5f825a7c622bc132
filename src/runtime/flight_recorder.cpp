#include "runtime/flight_recorder.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

#include "support/error.hpp"

namespace amtfmm {

namespace {

/// Buffered writer over write(2): no stdio streams, no allocation, so the
/// dump path stays usable from a fatal-signal handler.
struct RawWriter {
  int fd = -1;
  char buf[1 << 15];
  std::size_t len = 0;
  bool ok = true;

  void flush() {
    std::size_t off = 0;
    while (ok && off < len) {
      const ssize_t n = ::write(fd, buf + off, len - off);
      if (n <= 0) {
        ok = false;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    len = 0;
  }
  void put(const char* s, std::size_t n) {
    if (n > sizeof(buf)) n = sizeof(buf);  // single token never this long
    if (len + n > sizeof(buf)) flush();
    std::memcpy(buf + len, s, n);
    len += n;
  }
  // Formats one JSON token/line into a bounded stack buffer.
  void fmt(const char* f, ...) __attribute__((format(printf, 2, 3))) {
    char line[1024];
    va_list ap;
    va_start(ap, f);
    const int n = std::vsnprintf(line, sizeof(line), f, ap);
    va_end(ap);
    if (n > 0) put(line, std::min(static_cast<std::size_t>(n), sizeof(line)));
  }
};

bool sane_time(double t) { return std::isfinite(t) && t >= 0.0 && t < 1e9; }

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

constexpr int kMaxRecorders = 8;
// relaxed-ok: registry slots are independent pointers; dump iterates a
// snapshot and registration happens on quiescent setup paths.
std::atomic<FlightRecorder*> g_recorders[kMaxRecorders] = {};

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGBUS: return "SIGBUS";
    case SIGFPE: return "SIGFPE";
    case SIGILL: return "SIGILL";
    case SIGABRT: return "SIGABRT";
    case SIGTERM: return "SIGTERM";
  }
  return "signal";
}

void crash_handler(int sig) {
  char reason[64];
  std::snprintf(reason, sizeof(reason), "fatal signal %s (%d)",
                signal_name(sig), sig);
  flight_dump_all(reason);
  // Restore the default disposition and re-raise: the process must still
  // die with the original signal (exit status, core dumps, waitpid).
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

FlightRecorder::FlightRecorder(int workers, std::size_t events_per_worker) {
  AMTFMM_ASSERT(workers >= 1 && events_per_worker >= 1);
  const std::size_t cap = round_up_pow2(events_per_worker);
  mask_ = cap - 1;
  rings_ = std::vector<Ring>(static_cast<std::size_t>(workers));
  for (auto& r : rings_) r.slots = std::make_unique<Event[]>(cap);
  non_worker_.slots = std::make_unique<Event[]>(cap);
  comm_.resize(256);
  flight_register(this);
}

FlightRecorder::~FlightRecorder() { flight_unregister(this); }

void FlightRecorder::set_dump_path(const std::string& path) {
  std::snprintf(path_, sizeof(path_), "%s", path.c_str());
}

void FlightRecorder::set_meta(std::uint32_t rank, int cores,
                              const TraceClock& clock) {
  rank_ = rank;
  cores_ = cores;
  clock_ = clock;
}

void FlightRecorder::record_non_worker_instant(InstantKind kind, double t,
                                               std::uint32_t arg) {
  SyncLockGuard lk(non_worker_mu_);
  push(non_worker_, instant_event(kind, t, arg));
}

void FlightRecorder::record_comm(const CommEvent& e) {
  SyncLockGuard lk(comm_mu_);
  comm_[comm_head_ % comm_.size()] = e;
  ++comm_head_;
}

bool FlightRecorder::dump(const char* reason) const {
  if (path_[0] == '\0') return false;
  RawWriter w;
  w.fd = ::open(path_, O_CREAT | O_WRONLY | O_TRUNC, 0644);
  if (w.fd < 0) return false;

  w.fmt("{\"traceEvents\":[\n");
  w.fmt("{\"ph\":\"M\",\"pid\":%u,\"name\":\"process_name\","
        "\"args\":{\"name\":\"locality %u (flight)\"}}",
        rank_, rank_);
  for (std::size_t wk = 0; wk < rings_.size(); ++wk) {
    w.fmt(",\n{\"ph\":\"M\",\"pid\":%u,\"tid\":%zu,\"name\":"
          "\"thread_name\",\"args\":{\"name\":\"worker %zu\"}}",
          rank_, wk, wk);
  }
  auto dump_ring = [&](const Ring& r, std::uint32_t wk) {
    const std::uint64_t head = r.head.load(std::memory_order_acquire);
    const std::uint64_t cap = mask_ + 1;
    const std::uint64_t n = head < cap ? head : cap;
    for (std::uint64_t i = head - n; i < head; ++i) {
      const Event e = r.slots[i & mask_];  // copy: writer may still run
      if (!sane_time(e.t0) || !sane_time(e.t1) || e.t1 < e.t0) continue;
      if (e.instant) {
        if (e.kind >= kNumInstantKinds) continue;  // torn slot
        w.fmt(",\n{\"ph\":\"i\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,"
              "\"name\":\"%s\",\"cat\":\"sched\",\"s\":\"t\"}",
              rank_, wk, e.t0 * 1e6,
              instant_kind_name(static_cast<InstantKind>(e.kind)));
      } else {
        if (e.cls >= kNumTraceClasses) continue;  // torn slot
        w.fmt(",\n{\"ph\":\"X\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,"
              "\"dur\":%.3f,\"name\":\"%s\",\"cat\":\"task\","
              "\"args\":{\"edge\":%lld}}",
              rank_, wk, e.t0 * 1e6, (e.t1 - e.t0) * 1e6,
              trace_class_name(e.cls),
              e.arg == kNoTraceArg ? -1ll
                                   : static_cast<long long>(e.arg));
      }
    }
  };
  for (std::uint32_t wk = 0; wk < rings_.size(); ++wk) {
    dump_ring(rings_[wk], wk);
  }
  dump_ring(non_worker_, 0);  // non-worker threads report as worker 0
  // Comm ring: try_lock only — a thread that crashed while holding the
  // lock must not deadlock the handler; we just lose the comm slice.
  if (comm_mu_.try_lock()) {
    const std::size_t n = comm_head_ < comm_.size() ? comm_head_
                                                    : comm_.size();
    for (std::size_t i = comm_head_ - n; i < comm_head_; ++i) {
      const CommEvent& e = comm_[i % comm_.size()];
      if (!sane_time(e.t0) || !sane_time(e.t1) || e.t1 < e.t0) continue;
      w.fmt(",\n{\"ph\":\"X\",\"pid\":%u,\"tid\":%d,\"ts\":%.3f,"
            "\"dur\":%.3f,\"name\":\"wire\",\"cat\":\"comm\","
            "\"args\":{\"src\":%u,\"dst\":%u,\"parcels\":%u,"
            "\"bytes\":%llu}}",
            rank_, cores_, e.t0 * 1e6, (e.t1 - e.t0) * 1e6, e.src, e.dst,
            e.parcels, static_cast<unsigned long long>(e.bytes));
    }
    comm_mu_.unlock();
  }
  w.fmt("\n],\n\"amtfmm_flight\":{\"reason\":\"%s\",\"rank\":%u,"
        "\"cores\":%d,\"steady_origin_s\":%.9f,\"wall_anchor_s\":%.9f,"
        "\"clock_offset_s\":%.9f,\"clock_uncertainty_s\":%.9f}}\n",
        reason != nullptr ? reason : "", rank_, cores_,
        clock_.steady_origin_s, clock_.wall_anchor_s, clock_.offset_s,
        clock_.uncertainty_s);
  w.flush();
  ::close(w.fd);
  return w.ok;
}

void flight_register(FlightRecorder* fr) {
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = nullptr;
    if (slot.compare_exchange_strong(expected, fr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
  // More live recorders than slots: the newest simply is not crash-dumped.
}

void flight_unregister(FlightRecorder* fr) {
  for (auto& slot : g_recorders) {
    FlightRecorder* expected = fr;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel)) {
      return;
    }
  }
}

int flight_dump_all(const char* reason) {
  int dumped = 0;
  for (auto& slot : g_recorders) {
    FlightRecorder* fr = slot.load(std::memory_order_acquire);
    if (fr != nullptr && fr->dump(reason)) ++dumped;
  }
  return dumped;
}

void flight_install_crash_handler() {
  // relaxed-ok: idempotence latch; double installation is harmless anyway.
  static std::atomic<bool> installed{false};
  if (installed.exchange(true, std::memory_order_relaxed)) return;
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = crash_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;
  // SIGTERM is in the list deliberately: when the launcher tears a world
  // down after a peer failure, every surviving rank dumps its last seconds
  // before dying, so a distributed post-mortem has every side of the story.
  for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT, SIGTERM}) {
    sigaction(sig, &sa, nullptr);
  }
}

}  // namespace amtfmm
