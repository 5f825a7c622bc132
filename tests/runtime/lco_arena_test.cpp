// Tests of the flat LCO arena: one fire per node under concurrent inputs
// to nodes that share a stripe, the input-after-trigger abort, and re-arm
// cycles that restart every countdown from the in-degrees.

#include "runtime/lco_arena.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <thread>
#include <vector>

#include "runtime/thread_executor.hpp"

namespace amtfmm {
namespace {

std::uint64_t input_wait_samples(Executor& ex) {
  for (const auto& h : ex.counters().snapshot().histograms) {
    if (h.name == "lco.input_wait_us") return h.count;
  }
  return 0;
}

TEST(LcoArena, FiresOncePerNodeUnderConcurrentInputs) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 250;
  // Four nodes on stripe 0, each taking a quarter of the inputs.
  constexpr std::array<std::uint32_t, 4> kNodes = {
      0, LcoArena::kStripes, 2 * LcoArena::kStripes, 3 * LcoArena::kStripes};
  constexpr std::uint32_t kPerNode = kThreads * kPerThread / kNodes.size();
  ThreadExecutor ex(1, 1);
  ex.counters().set_enabled(true);
  LcoArena arena(ex, kNodes.back() + 1);
  std::vector<std::uint32_t> deg(arena.size(), 0);
  for (const std::uint32_t n : kNodes) deg[n] = kPerNode;

  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    arena.rearm(deg);
    std::vector<int> total(arena.size(), 0);  // written under the stripe
    std::vector<std::atomic<int>> fires(arena.size());
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kPerThread; ++k) {
          const std::uint32_t n = kNodes[static_cast<std::size_t>(t + k) %
                                         kNodes.size()];
          if (arena.input(n, [&] { ++total[n]; })) fires[n].fetch_add(1);
        }
      });
    }
    for (auto& th : threads) th.join();
    for (const std::uint32_t n : kNodes) {
      EXPECT_TRUE(arena.triggered(n));
      EXPECT_EQ(fires[n].load(), 1) << "node " << n;
      EXPECT_EQ(total[n], static_cast<int>(kPerNode)) << "node " << n;
    }
  }
  // One input-wait sample per fire, as the lco.fires metric counts them.
  EXPECT_EQ(input_wait_samples(ex), kRounds * kNodes.size());
}

#if GTEST_HAS_DEATH_TEST
TEST(LcoArenaDeathTest, InputAfterTriggerAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  ThreadExecutor ex(1, 1);
  LcoArena arena(ex, 2);
  const std::vector<std::uint32_t> deg = {1, 0};
  arena.rearm(deg);
  EXPECT_TRUE(arena.input(0, [] {}));
  EXPECT_DEATH(arena.input(0, [] {}), "already-triggered");
  // A node with no inputs starts triggered and takes none.
  EXPECT_DEATH(arena.input(1, [] {}), "already-triggered");
}
#endif

TEST(LcoArena, RearmCyclesMatchConstructionEachEpoch) {
  ThreadExecutor ex(1, 1);
  LcoArena arena(ex, 3);
  // Constructed: nothing armed, every node triggered.
  for (std::uint32_t n = 0; n < 3; ++n) EXPECT_TRUE(arena.triggered(n));
  const std::vector<std::uint32_t> deg = {2, 0, 1};
  for (int epoch = 0; epoch < 5; ++epoch) {
    arena.rearm(deg);
    EXPECT_FALSE(arena.triggered(0)) << "epoch " << epoch;
    EXPECT_TRUE(arena.triggered(1)) << "epoch " << epoch;
    EXPECT_FALSE(arena.triggered(2)) << "epoch " << epoch;
    int reduced = 0;
    EXPECT_FALSE(arena.input(0, [&] { ++reduced; }));
    EXPECT_FALSE(arena.triggered(0));
    EXPECT_TRUE(arena.input(0, [&] { ++reduced; }));
    EXPECT_TRUE(arena.input(2, [&] { ++reduced; }));
    EXPECT_EQ(reduced, 3);
    for (std::uint32_t n = 0; n < 3; ++n) EXPECT_TRUE(arena.triggered(n));
  }
}

}  // namespace
}  // namespace amtfmm
