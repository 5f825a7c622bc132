#include "runtime/trace.hpp"

#include <algorithm>
#include <chrono>

#include "kernels/kernel.hpp"
#include "runtime/flight_recorder.hpp"
#include "support/error.hpp"

namespace amtfmm {

TraceClock make_trace_clock(double steady_origin_s) {
  TraceClock c;
  c.steady_origin_s = steady_origin_s;
  // Read both clocks back to back: the pair correlates the steady
  // timeline traces run on with real time.  The microseconds between the
  // two reads are noise well below the clock-sync error bound.
  const double steady_now =
      std::chrono::duration<double>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  // time-ok: the trace wall-clock anchor is the one sanctioned wall time
  // read in the runtime (lint rule 7); everything else is steady-clock.
  const double wall_now =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
  c.wall_anchor_s = wall_now - (steady_now - steady_origin_s);
  return c;
}

const char* trace_class_name(std::uint8_t cls) {
  if (cls < kNumOperators) return to_string(static_cast<Operator>(cls));
  if (cls == kClsNetwork) return "network";
  if (cls == kClsOther) return "other";
  return "?";
}

const char* instant_kind_name(InstantKind kind) {
  switch (kind) {
    case InstantKind::kSteal: return "steal";
    case InstantKind::kParcelSend: return "parcel_send";
    case InstantKind::kParcelRecv: return "parcel_recv";
    case InstantKind::kLcoFire: return "lco_fire";
  }
  return "?";
}

std::vector<TraceEvent> TraceSink::collect() const {
  std::vector<TraceEvent> out;
  std::size_t total = 0;
  for (const auto& b : buffers_) total += b.size();
  out.reserve(total);
  for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
  std::sort(out.begin(), out.end(),
            [](const TraceEvent& a, const TraceEvent& b) { return a.t0 < b.t0; });
  return out;
}

std::vector<InstantEvent> TraceSink::collect_instants() const {
  std::vector<InstantEvent> out;
  SyncLockGuard lk(non_worker_mu_);
  std::size_t total = non_worker_instants_.size();
  for (const auto& b : instants_) total += b.size();
  out.reserve(total);
  for (const auto& b : instants_) out.insert(out.end(), b.begin(), b.end());
  out.insert(out.end(), non_worker_instants_.begin(),
             non_worker_instants_.end());
  std::sort(out.begin(), out.end(),
            [](const InstantEvent& a, const InstantEvent& b) { return a.t < b.t; });
  return out;
}

void TraceSink::record_comm(const CommEvent& e) {
  // relaxed-ok: control flag, no ordering required (see set_enabled).
  const std::uint8_t m = mode_.load(std::memory_order_relaxed);
  if (m == 0) return;
  if ((m & kModeFlight) != 0) flight_->record_comm(e);
  if ((m & kModeFull) == 0) return;
  SyncLockGuard lk(comm_mu_);
  comm_.push_back(e);
}

void TraceSink::flight_span(std::uint32_t worker, std::uint8_t cls, double t0,
                            double t1, std::uint32_t arg) {
  flight_->record_span(worker, cls, t0, t1, arg);
}

void TraceSink::flight_instant(std::uint32_t worker, InstantKind kind,
                               double t, std::uint32_t arg) {
  flight_->record_instant(worker, kind, t, arg);
}

void TraceSink::record_non_worker(std::uint8_t mode, const InstantEvent& e) {
  if ((mode & kModeFull) != 0) {
    SyncLockGuard lk(non_worker_mu_);
    non_worker_instants_.push_back(e);
  }
  if ((mode & kModeFlight) != 0) {
    flight_->record_non_worker_instant(e.kind, e.t, e.arg);
  }
}

std::vector<CommEvent> TraceSink::collect_comm() const {
  SyncLockGuard lk(comm_mu_);
  std::vector<CommEvent> out = comm_;
  std::sort(out.begin(), out.end(),
            [](const CommEvent& a, const CommEvent& b) { return a.t0 < b.t0; });
  return out;
}

void TraceSink::clear() {
  for (auto& b : buffers_) b.clear();
  for (auto& b : instants_) b.clear();
  {
    SyncLockGuard lk(non_worker_mu_);
    non_worker_instants_.clear();
  }
  SyncLockGuard lk(comm_mu_);
  comm_.clear();
}

UtilizationProfile utilization(std::span<const TraceEvent> events,
                               double t_begin, double t_end, int intervals,
                               int num_workers) {
  AMTFMM_ASSERT(intervals >= 1);
  AMTFMM_ASSERT(num_workers >= 1);
  UtilizationProfile p;
  p.t_begin = t_begin;
  p.t_end = t_end;
  p.total.assign(static_cast<std::size_t>(intervals), 0.0);
  for (auto& v : p.by_class) v.assign(static_cast<std::size_t>(intervals), 0.0);
  // Degenerate window: all-zero fractions, never divide by zero below.
  if (!(t_end > t_begin)) return p;

  const double dt = (t_end - t_begin) / intervals;
  for (const TraceEvent& e : events) {
    double a = std::max(e.t0, t_begin);
    double b = std::min(e.t1, t_end);
    if (b <= a) continue;
    int k0 = static_cast<int>((a - t_begin) / dt);
    int k1 = static_cast<int>((b - t_begin) / dt);
    k0 = std::clamp(k0, 0, intervals - 1);
    k1 = std::clamp(k1, 0, intervals - 1);
    for (int k = k0; k <= k1; ++k) {
      const double lo = t_begin + k * dt;
      const double hi = lo + dt;
      const double overlap = std::min(b, hi) - std::max(a, lo);
      if (overlap <= 0.0) continue;
      p.by_class[e.cls][static_cast<std::size_t>(k)] += overlap;
    }
  }
  const double denom = num_workers * dt;
  for (int c = 0; c < kNumTraceClasses; ++c) {
    for (int k = 0; k < intervals; ++k) {
      p.by_class[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)] /= denom;
      p.total[static_cast<std::size_t>(k)] +=
          p.by_class[static_cast<std::size_t>(c)][static_cast<std::size_t>(k)];
    }
  }
  return p;
}

}  // namespace amtfmm
