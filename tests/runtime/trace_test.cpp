#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "runtime/flight_recorder.hpp"
#include "runtime/trace.hpp"

namespace amtfmm {
namespace {

TEST(Utilization, SingleFullyBusyWorker) {
  std::vector<TraceEvent> ev{{0.0, 1.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  for (double f : p.total) EXPECT_NEAR(f, 1.0, 1e-12);
}

TEST(Utilization, EventSplitAcrossIntervals) {
  // One event covering [0.25, 0.75] of a 1s window, 2 intervals, 1 worker:
  // each interval gets 0.25s busy out of 0.5s -> f = 0.5.
  std::vector<TraceEvent> ev{{0.25, 0.75, 0, 3}};
  const auto p = utilization(ev, 0.0, 1.0, 2, 1);
  EXPECT_NEAR(p.total[0], 0.5, 1e-12);
  EXPECT_NEAR(p.total[1], 0.5, 1e-12);
  EXPECT_NEAR(p.by_class[3][0], 0.5, 1e-12);
  EXPECT_NEAR(p.by_class[2][0], 0.0, 1e-12);
}

TEST(Utilization, MultipleWorkersNormalize) {
  // Two workers, one busy all the time, one idle: f = 1/2 (paper eq. 1's
  // n-thread denominator).
  std::vector<TraceEvent> ev{{0.0, 2.0, 0, 1}};
  const auto p = utilization(ev, 0.0, 2.0, 5, 2);
  for (double f : p.total) EXPECT_NEAR(f, 0.5, 1e-12);
}

TEST(Utilization, PerClassFractionsSumToTotal) {
  std::vector<TraceEvent> ev{
      {0.0, 0.5, 0, 0}, {0.5, 1.0, 0, 5}, {0.0, 1.0, 1, 9}};
  const auto p = utilization(ev, 0.0, 1.0, 10, 2);
  for (int k = 0; k < 10; ++k) {
    double sum = 0.0;
    for (const auto& cls : p.by_class) sum += cls[static_cast<std::size_t>(k)];
    EXPECT_NEAR(sum, p.total[static_cast<std::size_t>(k)], 1e-12);
  }
}

TEST(Utilization, EventsOutsideWindowAreClipped) {
  std::vector<TraceEvent> ev{{-1.0, 0.5, 0, 0}, {0.9, 5.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 1, 1);
  EXPECT_NEAR(p.total[0], 0.6, 1e-12);
}

TEST(Utilization, EventsAtWindowEndContributeNothing) {
  // An event starting exactly at t_end and a zero-length event: neither
  // may contribute, and no interval may come out NaN or negative.
  std::vector<TraceEvent> ev{{1.0, 1.5, 0, 0}, {0.5, 0.5, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  for (double f : p.total) {
    EXPECT_FALSE(std::isnan(f));
    EXPECT_NEAR(f, 0.0, 1e-12);
  }
}

TEST(Utilization, EventEndingExactlyAtWindowEndFullyCounted) {
  // Regression for the boundary-split arithmetic: an event ending exactly
  // at t_end lands in the last interval with its full overlap, and an
  // event straddling the final boundary splits proportionally.
  std::vector<TraceEvent> ev{{0.75, 1.0, 0, 0}};
  const auto p = utilization(ev, 0.0, 1.0, 4, 1);
  EXPECT_NEAR(p.total[0], 0.0, 1e-12);
  EXPECT_NEAR(p.total[3], 1.0, 1e-12);

  std::vector<TraceEvent> straddle{{0.6, 0.9, 0, 0}};
  const auto q = utilization(straddle, 0.0, 1.0, 4, 1);
  // [0.6, 0.75) in interval 2 (0.15 of 0.25), [0.75, 0.9) in interval 3.
  EXPECT_NEAR(q.total[2], 0.6, 1e-12);
  EXPECT_NEAR(q.total[3], 0.6, 1e-12);
}

TEST(Utilization, DegenerateWindowYieldsZeros) {
  std::vector<TraceEvent> ev{{0.0, 1.0, 0, 0}};
  for (const double t_end : {0.0, -1.0}) {
    const auto p = utilization(ev, 0.0, t_end, 3, 2);
    ASSERT_EQ(p.total.size(), 3u);
    for (double f : p.total) {
      EXPECT_FALSE(std::isnan(f));
      EXPECT_EQ(f, 0.0);
    }
  }
}

TEST(TraceSink, DisabledRecordsNothing) {
  TraceSink sink(2);
  sink.record(0, 1, 0.0, 1.0);
  EXPECT_TRUE(sink.collect().empty());
  sink.set_enabled(true);
  sink.record(1, 2, 0.5, 1.0);
  sink.record(0, 1, 0.0, 1.0);
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].worker, 0u);  // sorted by start time
  EXPECT_EQ(ev[1].cls, 2);
}

TEST(TraceClassNames, CoverOperatorsAndRuntime) {
  EXPECT_STREQ(trace_class_name(0), "S->T");
  EXPECT_STREQ(trace_class_name(kClsNetwork), "network");
  EXPECT_STREQ(trace_class_name(kClsOther), "other");
  // Unknown classes degrade to a placeholder instead of reading past the
  // name table.
  EXPECT_STREQ(trace_class_name(kNumTraceClasses), "?");
  EXPECT_STREQ(trace_class_name(0xff), "?");
}

TEST(TraceInstantNames, CoverAllKinds) {
  EXPECT_STREQ(instant_kind_name(InstantKind::kSteal), "steal");
  EXPECT_STREQ(instant_kind_name(InstantKind::kParcelSend), "parcel_send");
  EXPECT_STREQ(instant_kind_name(InstantKind::kParcelRecv), "parcel_recv");
  EXPECT_STREQ(instant_kind_name(InstantKind::kLcoFire), "lco_fire");
}

TEST(TraceSink, SpanArgAttributionRoundTrips) {
  TraceSink sink(1);
  sink.set_enabled(true);
  sink.record(0, 3, 0.0, 1.0, 42);
  sink.record(0, 3, 1.0, 2.0);  // default: no attribution
  const auto ev = sink.collect();
  ASSERT_EQ(ev.size(), 2u);
  EXPECT_EQ(ev[0].arg, 42u);
  EXPECT_EQ(ev[1].arg, kNoTraceArg);
}

TEST(TraceSink, InstantsCollectSortedAcrossWorkers) {
  TraceSink sink(2);
  sink.record_instant(0, InstantKind::kSteal, 1.0, 1);
  EXPECT_TRUE(sink.collect_instants().empty());  // disabled: dropped
  sink.set_enabled(true);
  sink.record_instant(1, InstantKind::kLcoFire, 2.0);
  sink.record_instant(0, InstantKind::kSteal, 0.5, 1);
  sink.record_instant(1, InstantKind::kParcelRecv, 1.0, 0);
  const auto ev = sink.collect_instants();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].kind, InstantKind::kSteal);
  EXPECT_EQ(ev[0].arg, 1u);
  EXPECT_EQ(ev[1].kind, InstantKind::kParcelRecv);
  EXPECT_EQ(ev[2].kind, InstantKind::kLcoFire);
  EXPECT_EQ(ev[2].arg, kNoTraceArg);
  sink.clear();
  EXPECT_TRUE(sink.collect_instants().empty());
}

/// The caller's thread seeds and drains an epoch while worker 0 runs, and
/// both record instants.  Non-worker instants must go to the sink's guarded
/// side buffer (and the flight recorder's guarded ring), never into worker
/// 0's single-writer vector or ring, yet still report as worker 0.  The
/// TSan CI leg runs this: sharing worker 0's buffers is a data race that
/// can corrupt the heap.
TEST(TraceSink, NonWorkerRecordsDoNotRaceWorkerZero) {
  constexpr int kEach = 20000;
  TraceSink sink(2);
  FlightRecorder flight(2, 1024);
  sink.set_enabled(true);
  sink.set_flight(&flight);
  std::atomic<bool> go{false};
  auto body = [&](std::uint32_t worker) {
    while (!go.load(std::memory_order_acquire)) {
    }
    for (int i = 0; i < kEach; ++i) {
      sink.record_instant(worker, InstantKind::kParcelSend, 1e-6 * i, 1);
    }
  };
  std::thread worker0(body, 0u);
  std::thread caller(body, TraceSink::kNonWorker);
  go.store(true, std::memory_order_release);
  worker0.join();
  caller.join();
  sink.set_flight(nullptr);

  const auto instants = sink.collect_instants();
  EXPECT_EQ(instants.size(), 2u * kEach);
  std::size_t not_worker0 = 0;
  for (const auto& e : instants) not_worker0 += e.worker != 0;
  EXPECT_EQ(not_worker0, 0u);
  sink.clear();
  EXPECT_TRUE(sink.collect_instants().empty());
}

}  // namespace
}  // namespace amtfmm
