#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm {
namespace {

CoalesceConfig coalesce_on(std::uint32_t max_parcels = 32,
                           std::size_t max_bytes = 1 << 20,
                           double deadline = 100e-6) {
  CoalesceConfig c;
  c.enabled = true;
  c.max_parcels = max_parcels;
  c.max_bytes = max_bytes;
  c.flush_deadline = deadline;
  return c;
}

/// A parcel of kind kNetKindUser whose payload carries `v`: only parcels
/// cross localities, and each runs through the receiver's handler.
Task parcel(int v = 0) {
  auto buf = std::make_shared<std::vector<std::byte>>(sizeof(v));
  std::memcpy(buf->data(), &v, sizeof(v));
  Task t;
  t.net_kind = kNetKindUser;
  t.net_payload = std::move(buf);
  return t;
}

int value_of(const std::vector<std::byte>& payload) {
  int v = 0;
  EXPECT_EQ(payload.size(), sizeof(v));
  std::memcpy(&v, payload.data(), sizeof(v));
  return v;
}

/// Registers a kNetKindUser handler that counts the parcels it runs.
void count_parcels(Executor& ex, std::atomic<int>& ran) {
  ex.register_net_handler(kNetKindUser, [&ran](const std::vector<std::byte>&) {
    ran.fetch_add(1);
  });
}

/// Runs `body` inside a worker task on locality 0 and drains.  With one
/// core per locality the sender occupies locality 0's only worker, so no
/// idle-path flush can race with the sends — flush counts are exact.
template <typename Fn>
void run_on_worker(ThreadExecutor& ex, Fn body) {
  Task t;
  t.fn = std::move(body);
  ex.spawn(std::move(t));
  ex.drain();
}

TEST(Coalescing, FlushOnParcelThreshold) {
  ThreadExecutor ex(2, 1, 1, coalesce_on(4));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  run_on_worker(ex, [&ex] {
    for (int i = 0; i < 8; ++i) {
      ex.send(0, 1, 100, parcel());
    }
  });
  EXPECT_EQ(ran.load(), 8);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, 8u);
  EXPECT_EQ(s.batches, 2u);
  EXPECT_EQ(s.flush_threshold, 2u);
  EXPECT_EQ(s.bytes, 800u);
  EXPECT_DOUBLE_EQ(s.coalescing_factor(), 4.0);
  EXPECT_EQ(s.parcels_to[1], 8u);
  EXPECT_EQ(s.batches_to[1], 2u);
  // Two batches of 4 parcels: bucket log2(4) == 2.
  EXPECT_EQ(s.batch_size_log2[2], 2u);
}

TEST(Coalescing, FlushOnByteThreshold) {
  ThreadExecutor ex(2, 1, 1,
                    coalesce_on(1000, /*max_bytes=*/1000));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  run_on_worker(ex, [&ex] {
    for (int i = 0; i < 3; ++i) {
      ex.send(0, 1, 400, parcel());  // crosses 1000 bytes on the 3rd
    }
  });
  EXPECT_EQ(ran.load(), 3);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, 3u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.flush_threshold, 1u);
}

TEST(Coalescing, FlushOnQuiescenceStrandsNothing) {
  // Thresholds far above what is sent: only the idle/quiescence paths can
  // deliver, and drain() must not return before they do.
  ThreadExecutor ex(2, 1, 1, coalesce_on(1000));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  run_on_worker(ex, [&ex] {
    for (int i = 0; i < 5; ++i) {
      ex.send(0, 1, 64, parcel());
    }
  });
  EXPECT_EQ(ran.load(), 5);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, 5u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.flush_deadline + s.flush_quiescence, 1u);
}

TEST(Coalescing, RepeatedDrainsReuseBuffers) {
  ThreadExecutor ex(2, 1, 1, coalesce_on(1000));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  for (int round = 0; round < 3; ++round) {
    run_on_worker(ex, [&ex] {
      for (int i = 0; i < 4; ++i) {
        ex.send(0, 1, 32, parcel());
      }
    });
    EXPECT_EQ(ran.load(), 4 * (round + 1));
  }
  EXPECT_EQ(ex.comm_stats().batches, 3u);
}

TEST(Coalescing, DeliversWithoutDrainWhileWorkersBusy) {
  // A worker-side send must reach the destination via the idle-path
  // flushes (deadline or pre-park quiescence) even though drain() has not
  // been called: locality 0's second worker is idle and flushes for it.
  ThreadExecutor ex(2, 2, 1,
                    coalesce_on(1000, 1 << 20, /*deadline=*/0.0));
  std::atomic<bool> delivered{false};
  ex.register_net_handler(kNetKindUser,
                          [&delivered](const std::vector<std::byte>&) {
                            delivered.store(true);
                          });
  Task sender;
  sender.fn = [&ex, &delivered] {
    ex.send(0, 1, 64, parcel());
    const auto t0 = std::chrono::steady_clock::now();
    while (!delivered.load() &&
           std::chrono::steady_clock::now() - t0 < std::chrono::seconds(10)) {
      std::this_thread::yield();
    }
  };
  ex.spawn(std::move(sender));
  ex.drain();
  EXPECT_TRUE(delivered.load());
  const CommStats s = ex.comm_stats();
  EXPECT_GE(s.flush_deadline + s.flush_quiescence, 1u);
}

TEST(Coalescing, PreservesPerPairFifoUnderConcurrentSenders) {
  // Four concurrent sender tasks on locality 0 each send an increasing
  // sequence to locality 1 with a tiny batch threshold (many batches, so
  // cross-batch ordering is exercised).  Per-(src,dst) FIFO means every
  // sender's own subsequence must arrive in order.
  constexpr int kSenders = 4;
  constexpr int kPerSender = 200;
  ThreadExecutor ex(2, 4, 1, coalesce_on(3));
  std::mutex mu;
  std::vector<std::vector<int>> seen(kSenders);
  // Each parcel carries sndr * kPerSender + seq.
  ex.register_net_handler(
      kNetKindUser, [&mu, &seen](const std::vector<std::byte>& b) {
        const int v = value_of(b);
        const auto sndr = static_cast<std::size_t>(v / kPerSender);
        std::lock_guard lk(mu);
        seen[sndr].push_back(v % kPerSender);
      });
  for (int sndr = 0; sndr < kSenders; ++sndr) {
    Task producer;
    producer.fn = [&ex, sndr] {
      for (int seq = 0; seq < kPerSender; ++seq) {
        ex.send(0, 1, 16, parcel(sndr * kPerSender + seq));
      }
    };
    ex.spawn(std::move(producer));
  }
  ex.drain();
  for (int sndr = 0; sndr < kSenders; ++sndr) {
    const auto& v = seen[static_cast<std::size_t>(sndr)];
    ASSERT_EQ(v.size(), static_cast<std::size_t>(kPerSender));
    for (int seq = 0; seq < kPerSender; ++seq) {
      ASSERT_EQ(v[static_cast<std::size_t>(seq)], seq)
          << "sender " << sndr << " delivered out of order";
    }
  }
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, static_cast<std::uint64_t>(kSenders * kPerSender));
  EXPECT_GT(s.batches, 1u);
  EXPECT_GT(s.coalescing_factor(), 1.0);
}

TEST(Coalescing, DisabledMatchesLegacyAccounting) {
  ThreadExecutor ex(2, 1);  // coalescing off by default
  ex.register_net_handler(kNetKindUser, [](const std::vector<std::byte>&) {});
  ex.send(0, 1, 1000, parcel());
  ex.drain();
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, 1u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_DOUBLE_EQ(s.coalescing_factor(), 1.0);
}

TEST(SimCoalescing, QuiescenceFlushDeliversBufferedParcels) {
  NetworkModel net;
  net.latency = 1e-3;
  net.bandwidth = 1e6;
  net.task_overhead = 0.0;
  SimExecutor ex(2, 1, SchedPolicy::kFifo, net, 1, coalesce_on(1000));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  for (int i = 0; i < 3; ++i) {
    ex.send(0, 1, 1000, parcel());  // 1 ms wire time each
  }
  ex.drain();
  EXPECT_EQ(ran.load(), 3);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.parcels, 3u);
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.flush_quiescence, 1u);
  // One batch: alpha + 3000 B / 1 MB/s = 1 ms + 3 ms.
  EXPECT_NEAR(ex.now(), 4e-3, 1e-9);
}

TEST(SimCoalescing, DeadlineTimerFlushesWhileWorkBlocks) {
  NetworkModel net;
  net.latency = 0.1;
  net.bandwidth = 1e6;
  net.task_overhead = 0.0;
  SimExecutor ex(2, 1, SchedPolicy::kFifo, net, 1,
                 coalesce_on(1000, 1 << 20, /*deadline=*/0.5));
  // A long task keeps the simulation live past the flush deadline, so the
  // timer event (not quiescence) must deliver the buffered parcel.
  Task busy;
  busy.items = {{kClsOther, 10.0}};
  ex.spawn(std::move(busy));
  double arrival = -1.0;
  ex.register_net_handler(kNetKindUser,
                          [&arrival, &ex](const std::vector<std::byte>&) {
                            arrival = ex.now();
                          });
  ex.send(0, 1, 100000, parcel());  // 0.1 s wire time
  ex.drain();
  // Timer fires at 0.5; occupancy = alpha + beta*bytes = 0.2 more.
  EXPECT_NEAR(arrival, 0.7, 1e-9);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.flush_deadline, 1u);
  EXPECT_NEAR(ex.now(), 10.0, 1e-9);  // the busy task dominates
}

TEST(SimCoalescing, StaleDeadlineTimerIsIgnored) {
  // Threshold flush happens before the deadline; the armed timer must be a
  // no-op (no double delivery, no phantom batch).
  SimExecutor ex(2, 1, SchedPolicy::kFifo, NetworkModel{0, 1e9, 0}, 1,
                 coalesce_on(2, 1 << 20, /*deadline=*/0.5));
  std::atomic<int> ran{0};
  count_parcels(ex, ran);
  for (int i = 0; i < 2; ++i) {
    ex.send(0, 1, 100, parcel());
  }
  ex.drain();
  EXPECT_EQ(ran.load(), 2);
  const CommStats s = ex.comm_stats();
  EXPECT_EQ(s.batches, 1u);
  EXPECT_EQ(s.flush_threshold, 1u);
  EXPECT_EQ(s.flush_deadline, 0u);
}

TEST(SimCoalescing, ReducesNetworkTimeOnLatencyBoundTraffic) {
  // 100 tiny parcels on a 1 ms-alpha network: uncoalesced they serialize
  // 100 alphas on the destination NIC; coalesced they share one.
  NetworkModel net;
  net.latency = 1e-3;
  net.bandwidth = 1e9;
  net.task_overhead = 0.0;
  auto run = [&](CoalesceConfig c) {
    SimExecutor ex(2, 1, SchedPolicy::kFifo, net, 1, c);
    ex.register_net_handler(kNetKindUser,
                            [](const std::vector<std::byte>&) {});
    for (int i = 0; i < 100; ++i) {
      ex.send(0, 1, 100, parcel());
    }
    ex.drain();
    return ex.now();
  };
  const double off = run(CoalesceConfig{});
  const double on = run(coalesce_on(100));
  EXPECT_GT(off, 0.099);  // ~100 serialized alphas
  EXPECT_LT(on, off / 20.0);
}

TEST(SimCoalescing, CommTraceMatchesBatchCounters) {
  SimExecutor ex(3, 1, SchedPolicy::kFifo, NetworkModel{1e-6, 1e9, 0}, 1,
                 coalesce_on(4));
  ex.trace().set_enabled(true);
  ex.register_net_handler(kNetKindUser, [](const std::vector<std::byte>&) {});
  for (int i = 0; i < 24; ++i) {
    ex.send(0, static_cast<std::uint32_t>(1 + i % 2), 50, parcel());
  }
  ex.drain();
  const CommStats s = ex.comm_stats();
  const auto wire = ex.trace().collect_comm();
  EXPECT_EQ(wire.size(), s.batches);
  std::uint64_t parcels = 0, bytes = 0;
  for (const CommEvent& e : wire) {
    EXPECT_EQ(e.src, 0u);
    EXPECT_GE(e.dst, 1u);
    EXPECT_GE(e.t1, e.t0);
    parcels += e.parcels;
    bytes += e.bytes;
  }
  EXPECT_EQ(parcels, s.parcels);
  EXPECT_EQ(bytes, s.bytes);
}

}  // namespace
}  // namespace amtfmm
