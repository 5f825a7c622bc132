#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>

#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm {
namespace {

/// A parcel of kind kNetKindUser whose payload carries `v`: only parcels
/// cross localities, and each runs through the receiver's handler.
Task parcel(int v) {
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

TEST(ThreadExecutor, RunsAllSpawnedTasks) {
  ThreadExecutor ex(2, 2);
  std::atomic<int> count{0};
  for (int i = 0; i < 200; ++i) {
    Task t;
    t.locality = static_cast<std::uint32_t>(i % 2);
    t.fn = [&count] { count.fetch_add(1); };
    ex.spawn(std::move(t));
  }
  ex.drain();
  EXPECT_EQ(count.load(), 200);
}

TEST(ThreadExecutor, TasksSpawnChildrenRecursively) {
  ThreadExecutor ex(1, 3);
  std::atomic<int> count{0};
  std::function<void(int)> fan = [&](int depth) {
    count.fetch_add(1);
    if (depth == 0) return;
    for (int i = 0; i < 2; ++i) {
      Task t;
      t.fn = [&fan, depth] { fan(depth - 1); };
      ex.spawn(std::move(t));
    }
  };
  Task root;
  root.fn = [&fan] { fan(6); };
  ex.spawn(std::move(root));
  ex.drain();
  EXPECT_EQ(count.load(), 127);  // 2^7 - 1
}

TEST(ThreadExecutor, TasksRunOnTheirLocality) {
  const int cores = 2;
  ThreadExecutor ex(3, cores);
  std::atomic<int> misplaced{0};
  for (int i = 0; i < 300; ++i) {
    Task t;
    t.locality = static_cast<std::uint32_t>(i % 3);
    t.fn = [&misplaced, want = i % 3, cores] {
      if (current_worker() / cores != want) misplaced.fetch_add(1);
    };
    ex.spawn(std::move(t));
  }
  // Sent parcels run at their destination, never at the sender.
  ex.register_net_handler(
      kNetKindUser, [&misplaced, &ex, cores](const std::vector<std::byte>& b) {
        const int to = value_of(b);
        if (current_worker() / cores != to || ex.current_locality() != to) {
          misplaced.fetch_add(1);
        }
      });
  for (int i = 0; i < 300; ++i) {
    const int to = (i + 1) % 3;
    ex.send(static_cast<std::uint32_t>(i % 3), static_cast<std::uint32_t>(to),
            64, parcel(to));
  }
  ex.drain();
  EXPECT_EQ(misplaced.load(), 0)
      << "work stealing must stay within a locality";
  EXPECT_EQ(ex.parcels_sent(), 300u);
}

TEST(ThreadExecutor, HighPriorityTasksRunFirst) {
  ThreadExecutor ex(1, 1);
  std::vector<int> order;
  // Children of one task land on its worker's deques; the high-priority
  // deque drains first, although the deques pop newest-first and the high
  // task is the oldest child.
  Task seed;
  seed.fn = [&ex, &order] {
    Task hi;
    hi.high_priority = true;
    hi.fn = [&order] { order.push_back(99); };
    ex.spawn(std::move(hi));
    for (int i = 0; i < 3; ++i) {
      Task lo;
      lo.fn = [&order, i] { order.push_back(i); };
      ex.spawn(std::move(lo));
    }
  };
  ex.spawn(std::move(seed));
  ex.drain();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 99) << "high priority task must run first";
}

TEST(ThreadExecutor, SendAccountsOnlyRemoteTraffic) {
  ThreadExecutor ex(2, 1);
  std::atomic<int> ran{0};
  Task a;
  a.fn = [&ran] { ran.fetch_add(1); };
  ex.send(0, 0, 1000, std::move(a));  // local: free
  ex.register_net_handler(kNetKindUser, [&ran](const std::vector<std::byte>&) {
    ran.fetch_add(1);
  });
  ex.send(0, 1, 1000, parcel(0));  // remote
  ex.drain();
  EXPECT_EQ(ran.load(), 2);
  EXPECT_EQ(ex.bytes_sent(), 1000u);
  EXPECT_EQ(ex.parcels_sent(), 1u);
}

TEST(ThreadExecutor, ScopedTraceRecordsOperatorEvents) {
  ThreadExecutor ex(1, 2);
  ex.trace().set_enabled(true);
  for (int i = 0; i < 10; ++i) {
    Task t;
    t.fn = [&ex] {
      ScopedTrace s(ex, 4);
      volatile double sink = 0;
      for (int j = 0; j < 1000; ++j) sink = sink + j;
    };
    ex.spawn(std::move(t));
  }
  ex.drain();
  const auto ev = ex.trace().collect();
  EXPECT_EQ(ev.size(), 10u);
  for (const auto& e : ev) {
    EXPECT_EQ(e.cls, 4);
    EXPECT_GE(e.t1, e.t0);
    EXPECT_LT(e.worker, 2u);
  }
}

TEST(ThreadExecutor, ZeroSizesAreConfigErrors) {
  EXPECT_THROW(ThreadExecutor(0, 1), config_error);
  EXPECT_THROW(ThreadExecutor(1, 0), config_error);
}

TEST(SimExecutor, ZeroSizesAreConfigErrors) {
  EXPECT_THROW(SimExecutor(0, 1), config_error);
  EXPECT_THROW(SimExecutor(1, 0), config_error);
}

TEST(SimExecutor, VirtualTimeReflectsCoreCount) {
  // 8 unit-cost tasks on 2 cores -> ~4 virtual seconds; on 8 cores -> ~1.
  for (const auto& [cores, expect] : {std::pair{2, 4.0}, {8, 1.0}}) {
    SimExecutor ex(1, cores, SchedPolicy::kFifo, NetworkModel{0, 1e18, 0});
    for (int i = 0; i < 8; ++i) {
      Task t;
      t.items = {{kClsOther, 1.0}};
      ex.spawn(std::move(t));
    }
    ex.drain();
    EXPECT_NEAR(ex.now(), expect, 1e-9) << cores << " cores";
  }
}

TEST(SimExecutor, DeterministicForFixedSeed) {
  auto run = [](std::uint64_t seed) {
    SimExecutor ex(2, 2, SchedPolicy::kWorkStealing, NetworkModel{}, seed);
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
      Task t;
      t.locality = static_cast<std::uint32_t>(i % 2);
      t.items = {{kClsOther, rng.uniform(0.1, 1.0)}};
      ex.spawn(std::move(t));
    }
    ex.drain();
    return ex.now();
  };
  EXPECT_EQ(run(3), run(3));
}

TEST(SimExecutor, NetworkLatencyAndBandwidthDelayDelivery) {
  // 1 GB at 1 GB/s + 1 ms latency: arrival at ~1.001 s.
  NetworkModel net;
  net.latency = 1e-3;
  net.bandwidth = 1e9;
  net.task_overhead = 0.0;
  SimExecutor ex(2, 1, SchedPolicy::kFifo, net);
  double arrival = -1;
  ex.register_net_handler(kNetKindUser,
                          [&arrival, &ex](const std::vector<std::byte>&) {
                            arrival = ex.now();
                          });
  ex.send(0, 1, 1000000000, parcel(0));
  ex.drain();
  EXPECT_NEAR(arrival, 1.001, 1e-9);
  EXPECT_EQ(ex.bytes_sent(), 1000000000u);
}

TEST(SimExecutor, NicSerializesSuccessiveSends) {
  NetworkModel net;
  net.latency = 0.0;
  net.bandwidth = 1e6;  // 1 MB/s
  net.task_overhead = 0.0;
  SimExecutor ex(2, 1, SchedPolicy::kFifo, net);
  std::vector<double> arrivals;
  ex.register_net_handler(kNetKindUser,
                          [&arrivals, &ex](const std::vector<std::byte>&) {
                            arrivals.push_back(ex.now());
                          });
  for (int i = 0; i < 3; ++i) {
    ex.send(0, 1, 1000000, parcel(i));  // 1 s of wire time each
  }
  ex.drain();
  ASSERT_EQ(arrivals.size(), 3u);
  EXPECT_NEAR(arrivals[0], 1.0, 1e-9);
  EXPECT_NEAR(arrivals[1], 2.0, 1e-9);
  EXPECT_NEAR(arrivals[2], 3.0, 1e-9);
}

TEST(SimExecutor, PriorityPolicyRunsHighFirst) {
  SimExecutor ex(1, 1, SchedPolicy::kWorkStealing, NetworkModel{0, 1e18, 0});
  std::vector<int> order;
  // Seed a task that enqueues mixed-priority children while "running".
  Task seed;
  seed.items = {{kClsOther, 1.0}};
  seed.fn = [&ex, &order] {
    for (int i = 0; i < 3; ++i) {
      Task lo;
      lo.items = {{kClsOther, 1.0}};
      lo.fn = [&order, i] { order.push_back(i); };
      ex.spawn(std::move(lo));
    }
    Task hi;
    hi.high_priority = true;
    hi.items = {{kClsOther, 1.0}};
    hi.fn = [&order] { order.push_back(99); };
    ex.spawn(std::move(hi));
  };
  ex.spawn(std::move(seed));
  ex.drain();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 99) << "high priority task must run first";
}

TEST(SimExecutor, TraceEventsCarryVirtualTimes) {
  SimExecutor ex(1, 2, SchedPolicy::kFifo, NetworkModel{0, 1e18, 0});
  ex.trace().set_enabled(true);
  for (int i = 0; i < 4; ++i) {
    Task t;
    t.items = {{2, 0.5}, {3, 0.25}};
    ex.spawn(std::move(t));
  }
  ex.drain();
  const auto ev = ex.trace().collect();
  EXPECT_EQ(ev.size(), 8u);
  double busy = 0;
  for (const auto& e : ev) busy += e.t1 - e.t0;
  EXPECT_NEAR(busy, 4 * 0.75, 1e-9);
  EXPECT_NEAR(ex.now(), 1.5, 1e-9);  // 3 virtual seconds over 2 cores
}

TEST(Executor, SentParcelsRunAtTheirTarget) {
  // The same three parcels on both executors: each runs on its target
  // locality through the handler for its kind, carries its value in its
  // payload, and counts as one remote parcel; on the simulator it also
  // takes virtual time.
  ThreadExecutor threads(2, 2);
  SimExecutor sim(2, 1);
  for (Executor* ex : {static_cast<Executor*>(&threads),
                       static_cast<Executor*>(&sim)}) {
    constexpr std::uint32_t kTarget = 1;
    std::atomic<int> sum{0};
    std::atomic<int> wrong_locality{0};
    ex->register_net_handler(
        kNetKindUser,
        [ex, &sum, &wrong_locality](const std::vector<std::byte>& b) {
          if (ex->current_locality() != static_cast<int>(kTarget)) {
            wrong_locality.fetch_add(1);
          }
          sum.fetch_add(value_of(b));
        });
    for (int i = 1; i <= 3; ++i) {
      Task t = parcel(i);
      t.items = {{kClsNetwork, 1e-6}};  // virtual cost on the simulator
      ex->send(/*from=*/0, kTarget, sizeof(int) + 32, std::move(t));
    }
    ex->drain();
    EXPECT_EQ(wrong_locality.load(), 0);
    EXPECT_EQ(sum.load(), 6);
    EXPECT_EQ(ex->parcels_sent(), 3u);
  }
  EXPECT_GT(sim.now(), 0.0) << "simulated parcels take virtual time";
}

#if GTEST_HAS_DEATH_TEST
TEST(ExecutorDeathTest, ClosureSentAcrossLocalitiesAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto send_closure = [](Executor& ex) {
    Task t;
    t.fn = [] {};
    ex.send(0, 1, 64, std::move(t));
    ex.drain();
  };
  EXPECT_DEATH(
      {
        ThreadExecutor ex(2, 1);
        send_closure(ex);
      },
      "only a parcel");
  EXPECT_DEATH(
      {
        SimExecutor ex(2, 1);
        send_closure(ex);
      },
      "only a parcel");
  // A send to the sender's own locality is a local spawn: a closure may.
  SimExecutor ex(2, 1);
  bool ran = false;
  Task t;
  t.fn = [&ran] { ran = true; };
  ex.send(1, 1, 64, std::move(t));
  ex.drain();
  EXPECT_TRUE(ran);
}

TEST(ExecutorDeathTest, UnregisteredParcelKindAbortsOnTheSimulator) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SimExecutor ex(2, 1);
        ex.send(0, 1, 64, parcel(7));
        ex.drain();
      },
      "no handler registered");
}
#endif

}  // namespace
}  // namespace amtfmm
