#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/counters.hpp"
#include "runtime/net/net_executor.hpp"
#include "runtime/net/socket.hpp"
#include "support/error.hpp"

namespace amtfmm::net {
namespace {

using namespace std::chrono_literals;

/// Fresh bootstrap directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("amtfmm_ne_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

NetConfig config_for(std::uint32_t rank, std::uint32_t world,
                     const std::string& dir) {
  NetConfig cfg;
  cfg.rank = rank;
  cfg.world = world;
  cfg.kind = TransportKind::kUnix;
  cfg.dir = dir;
  cfg.connect_timeout_s = 10.0;
  return cfg;
}

CoalesceConfig coalescing(bool on, std::uint32_t max_parcels = 4) {
  CoalesceConfig c;
  c.enabled = on;
  c.max_parcels = max_parcels;
  return c;
}

/// A parcel: `kind` plus a payload carrying `value`, run by the
/// receiver's handler for the kind.
Task wire_task(std::uint8_t kind, std::uint64_t value) {
  auto buf = std::make_shared<std::vector<std::byte>>(sizeof(value));
  std::memcpy(buf->data(), &value, sizeof(value));
  Task t;
  t.net_kind = kind;
  t.net_payload = std::move(buf);
  return t;
}

std::uint64_t value_of(const std::vector<std::byte>& payload) {
  std::uint64_t v = 0;
  EXPECT_EQ(payload.size(), sizeof(v));
  if (payload.size() == sizeof(v)) std::memcpy(&v, payload.data(), sizeof(v));
  return v;
}

TEST(NetExecutor, WorldOfOneRunsTasksLocally) {
  TempDir dir;
  NetExecutor ex(config_for(0, 1, dir.path), 2, CoalesceConfig{});
  ex.counters().set_enabled(true);
  EXPECT_EQ(ex.num_localities(), 1);
  EXPECT_TRUE(ex.locality_is_local(0));
  EXPECT_EQ(ex.current_locality(), -1) << "main thread is not a worker";

  std::atomic<int> ran{0};
  std::atomic<int> misplaced{0};
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < 50; ++i) {
      Task t;
      t.fn = [&] {
        if (ex.current_locality() != 0) misplaced.fetch_add(1);
        ran.fetch_add(1);
      };
      if (i % 2 == 0) {
        ex.spawn(std::move(t));
      } else {
        ex.send(0, 0, 64, std::move(t));  // send-to-self is a local spawn
      }
    }
    ex.drain();
    std::this_thread::sleep_for(50ms);  // idle workers park between rounds
  }
  EXPECT_EQ(ran.load(), 100);
  EXPECT_EQ(misplaced.load(), 0);
  EXPECT_EQ(ex.parcels_sent(), 0u) << "self-sends are not parcels";

  // Tasks spawned from a task: the high-priority one runs first.
  NetExecutor one(config_for(0, 1, dir.path), 1, CoalesceConfig{});
  std::mutex mu;
  std::vector<int> order;
  Task seed;
  seed.fn = [&] {
    Task hi;  // the oldest child: runs first only by priority
    hi.high_priority = true;
    hi.fn = [&] {
      std::lock_guard<std::mutex> lk(mu);
      order.push_back(99);
    };
    one.spawn(std::move(hi));
    for (int i = 0; i < 3; ++i) {
      Task lo;
      lo.fn = [&, i] {
        std::lock_guard<std::mutex> lk(mu);
        order.push_back(i);
      };
      one.spawn(std::move(lo));
    }
  };
  one.spawn(std::move(seed));
  one.drain();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order.front(), 99) << "high priority task must run first";

  // The socket rank runs on the work-stealing scheduler, so its sched.*
  // counters are live: every task counted, idle workers parked, and
  // main-thread spawns handed over through the worker inboxes.
  const CounterSnapshot s = ex.counters().snapshot();
  EXPECT_EQ(s.value("sched.tasks_run"), 100u);
  EXPECT_GT(s.value("sched.park_count"), 0u);
  EXPECT_GT(s.value("sched.inbox_drains"), 0u);
  EXPECT_GT(s.value("sched.inbox_tasks"), 0u);
}

/// Both ranks of a two-rank mesh in one process: the constructors
/// bootstrap the mesh and block until it is up, so they must overlap.
struct Mesh {
  Mesh(const std::string& dir, CoalesceConfig co, int cores = 2) {
    std::thread peer([&] {
      r1 = std::make_unique<NetExecutor>(config_for(1, 2, dir), cores, co);
    });
    r0 = std::make_unique<NetExecutor>(config_for(0, 2, dir), cores, co);
    peer.join();
  }
  NetExecutor& rank(int r) { return r == 0 ? *r0 : *r1; }
  std::unique_ptr<NetExecutor> r0, r1;
};

/// Per-rank handler log: values seen per kind, in arrival order.
struct Received {
  std::mutex mu;
  std::vector<std::uint64_t> by_kind[2];
  void install(NetExecutor& ex) {
    for (int k = 0; k < 2; ++k) {
      ex.register_net_handler(
          static_cast<std::uint8_t>(kNetKindUser + k),
          [this, k](const std::vector<std::byte>& payload) {
            const std::uint64_t v = value_of(payload);
            std::lock_guard<std::mutex> lk(mu);
            by_kind[k].push_back(v);
          });
    }
  }
};

TEST(NetExecutor, TwoRanksDispatchParcelsByKindInBothDirections) {
  TempDir dir;
  Mesh mesh(dir.path, coalescing(false));
  Received got[2];
  got[0].install(mesh.rank(0));
  got[1].install(mesh.rank(1));

  auto rank_main = [&](int r) {
    NetExecutor& ex = mesh.rank(r);
    const auto me = static_cast<std::uint32_t>(r);
    const std::uint32_t peer = 1 - me;
    // A task on this rank sends 10 parcels of each kind to the peer; the
    // value encodes (sender, kind, index).
    Task t;
    t.locality = me;
    t.fn = [&ex, me, peer] {
      for (std::uint64_t i = 0; i < 10; ++i) {
        for (std::uint8_t k = 0; k < 2; ++k) {
          ex.send(me, peer, sizeof(std::uint64_t),
                  wire_task(static_cast<std::uint8_t>(kNetKindUser + k),
                            me * 1000 + k * 100 + i));
        }
      }
    };
    ex.spawn(std::move(t));
    ex.drain();
  };
  std::thread peer([&] { rank_main(1); });
  rank_main(0);
  peer.join();

  for (int r = 0; r < 2; ++r) {
    const std::uint64_t sender = static_cast<std::uint64_t>(1 - r);
    for (int k = 0; k < 2; ++k) {
      std::vector<std::uint64_t> v = got[r].by_kind[k];
      std::sort(v.begin(), v.end());
      ASSERT_EQ(v.size(), 10u) << "rank " << r << " kind " << k;
      for (std::uint64_t i = 0; i < 10; ++i) {
        EXPECT_EQ(v[i], sender * 1000 + static_cast<std::uint64_t>(k) * 100 + i);
      }
    }
    EXPECT_EQ(mesh.rank(r).parcels_sent(), 20u);
    EXPECT_EQ(mesh.rank(r).bytes_sent(), 20u * sizeof(std::uint64_t));
  }
}

TEST(NetExecutor, CoalescedParcelsKeepPerPairFifoOverDrainEpochs) {
  TempDir dir;
  Mesh mesh(dir.path, coalescing(true, 4));
  Received got[2];
  got[0].install(mesh.rank(0));
  got[1].install(mesh.rank(1));

  constexpr int kEpochs = 3;
  constexpr std::uint64_t kPerEpoch = 203;  // not a multiple of the batch
  std::barrier sync(2);
  auto rank_main = [&](int r) {
    NetExecutor& ex = mesh.rank(r);
    const auto me = static_cast<std::uint32_t>(r);
    const std::uint32_t peer = 1 - me;
    for (int e = 0; e < kEpochs; ++e) {
      // One sending task per epoch: its sends are one (src, dst) stream,
      // split into batches of four that may run on either receiver worker.
      Task t;
      t.locality = me;
      t.fn = [&ex, me, peer, e] {
        for (std::uint64_t i = 0; i < kPerEpoch; ++i) {
          ex.send(me, peer, sizeof(std::uint64_t),
                  wire_task(kNetKindUser,
                            static_cast<std::uint64_t>(e) * kPerEpoch + i));
        }
      };
      ex.spawn(std::move(t));
      ex.drain();
      {
        std::lock_guard<std::mutex> lk(got[r].mu);
        const auto& v = got[r].by_kind[0];
        EXPECT_EQ(v.size(), (e + 1) * kPerEpoch) << "rank " << r;
        for (std::size_t i = 0; i < v.size(); ++i) {
          if (v[i] != i) {
            ADD_FAILURE() << "rank " << r << " saw parcel " << v[i]
                          << " at position " << i;
            break;
          }
        }
      }
      sync.arrive_and_wait();  // both ranks checked before the next epoch
    }
  };
  std::thread peer([&] { rank_main(1); });
  rank_main(0);
  peer.join();

  for (int r = 0; r < 2; ++r) {
    const CommStats s = mesh.rank(r).comm_stats();
    EXPECT_EQ(s.parcels, kEpochs * kPerEpoch);
    EXPECT_LT(s.batches, s.parcels) << "coalescing must batch parcels";
  }
}

TEST(NetExecutor, PeerDeathFailsDrainWithoutRunningQueuedTasks) {
  TempDir dir;
  // The test plays rank 0 with a bare listener: accept rank 1's
  // connection, swallow its hello, then vanish without a goodbye.
  Fd listener = listen_unix((dir.path / "sock.0").string());

  std::unique_ptr<NetExecutor> ex;
  std::thread starter([&] {
    ex = std::make_unique<NetExecutor>(config_for(1, 2, dir.path), 1,
                                       CoalesceConfig{});
  });
  Fd conn;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!conn.valid()) {
    conn = accept_conn(listener);
    if (!conn.valid()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "rank 1 never connected";
      std::this_thread::sleep_for(1ms);
    }
  }
  std::size_t got = 0;
  std::byte buf[64];
  while (got < sizeof(FrameHeader) + sizeof(ControlMsg)) {
    IoResult r = read_some(conn, buf, sizeof(buf));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.closed);
    got += r.bytes;
    if (r.bytes == 0) std::this_thread::sleep_for(1ms);
  }
  starter.join();  // the unanswered clock-sync ping times out
  ASSERT_TRUE(ex);

  // One task running on the rank's only worker, more queued behind it.
  std::atomic<bool> started{false};
  std::atomic<bool> finished{false};
  std::atomic<int> queued_ran{0};
  Task running;
  running.locality = 1;
  running.fn = [&] {
    started.store(true);
    std::this_thread::sleep_for(300ms);
    finished.store(true);
  };
  ex->spawn(std::move(running));
  while (!started.load()) std::this_thread::sleep_for(1ms);
  for (int i = 0; i < 8; ++i) {
    Task t;
    t.locality = 1;
    t.fn = [&queued_ran] { queued_ran.fetch_add(1); };
    ex->spawn(std::move(t));
  }

  conn.reset();  // abrupt close: EOF with no goodbye announcement
  const auto t0 = std::chrono::steady_clock::now();
  bool threw = false;
  try {
    ex->drain();
  } catch (const net_error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("transport failed"),
              std::string::npos)
        << e.what();
    EXPECT_TRUE(finished.load()) << "the running task must be waited out";
  }
  EXPECT_TRUE(threw) << "drain() on a dead mesh must throw net_error";
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 10s);
  EXPECT_EQ(queued_ran.load(), 0) << "queued tasks must be discarded";
  // A second drain fails the same way, and destruction returns.
  EXPECT_THROW(ex->drain(), net_error);
  const auto d0 = std::chrono::steady_clock::now();
  ex.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - d0, 10s);
  EXPECT_EQ(queued_ran.load(), 0);
}

}  // namespace
}  // namespace amtfmm::net
