#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "runtime/lco.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm {
namespace {

TEST(Lco, SumReductionAcrossTasks) {
  ThreadExecutor ex(1, 3);
  SumLCO sum(ex, 100);
  for (int i = 1; i <= 100; ++i) {
    Task t;
    t.fn = [&sum, i] { sum.add(static_cast<double>(i)); };
    ex.spawn(std::move(t));
  }
  ex.drain();
  EXPECT_TRUE(sum.triggered());
  EXPECT_DOUBLE_EQ(sum.value(), 5050.0);
}

TEST(Lco, RearmRestartsTheTriggerOnceProtocol) {
  ThreadExecutor ex(1, 2);
  SumLCO sum(ex, 2);
  sum.add(1.0);
  sum.add(2.0);
  ex.drain();
  ASSERT_TRUE(sum.triggered());

  // Quiescent re-arm: the countdown restarts and the trigger clears, so a
  // second epoch of inputs fires the LCO once more.  Reduction state is
  // the subclass's business and persists.
  sum.rearm(2);
  EXPECT_FALSE(sum.triggered());
  std::atomic<int> fired{0};
  Task c;
  c.fn = [&fired] { fired.fetch_add(1); };
  sum.register_continuation(std::move(c));
  sum.add(3.0);
  ex.drain();
  EXPECT_FALSE(sum.triggered());
  EXPECT_EQ(fired.load(), 0);
  sum.add(4.0);
  ex.drain();
  EXPECT_TRUE(sum.triggered());
  EXPECT_EQ(fired.load(), 1);
  EXPECT_DOUBLE_EQ(sum.value(), 10.0);

  // Zero-input re-arm mirrors the constructor: triggered immediately.
  sum.rearm(0);
  EXPECT_TRUE(sum.triggered());
}

TEST(Lco, RearmCyclesMatchConstructionEachEpoch) {
  ThreadExecutor ex(1, 2);
  SumLCO sum(ex, 3);
  for (int epoch = 0; epoch < 5; ++epoch) {
    if (epoch > 0) {
      sum.rearm(3);
      EXPECT_FALSE(sum.triggered());
    }
    for (int i = 0; i < 3; ++i) {
      Task t;
      t.fn = [&sum] { sum.add(1.0); };
      ex.spawn(std::move(t));
    }
    ex.drain();
    EXPECT_TRUE(sum.triggered()) << "epoch " << epoch;
  }
  EXPECT_DOUBLE_EQ(sum.value(), 15.0);
}

TEST(Lco, ContinuationRegisteredBeforeTriggerFiresOnce) {
  ThreadExecutor ex(1, 2);
  SumLCO sum(ex, 2);
  std::atomic<int> fired{0};
  Task c;
  c.fn = [&fired] { fired.fetch_add(1); };
  sum.register_continuation(std::move(c));
  EXPECT_EQ(fired.load(), 0);
  sum.add(1.0);
  ex.drain();
  EXPECT_EQ(fired.load(), 0) << "predicate not yet satisfied";
  sum.add(2.0);
  ex.drain();
  EXPECT_EQ(fired.load(), 1);
}

TEST(Lco, LateContinuationFiresImmediately) {
  // Figure 2 semantics: registrations may arrive before or after inputs.
  ThreadExecutor ex(1, 1);
  FutureLCO<int> f(ex);
  f.set(42);
  ex.drain();
  std::atomic<int> fired{0};
  Task c;
  c.fn = [&fired] { fired.fetch_add(1); };
  f.register_continuation(std::move(c));
  ex.drain();
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(f.get(), 42);
}

// Deterministic two-thread interleavings of input delivery against
// registration/wait, gated at operation granularity so each order replays
// identically every run.  The instruction-level schedules of the same races
// are explored exhaustively by the rtcheck model checker (lco.trigger_once,
// lco.late_continuation, lco.wait_vs_fire).
class Lockstep {
 public:
  void reach(int step) const {
    while (n_.load(std::memory_order_acquire) != step) {
      std::this_thread::yield();
    }
  }
  void advance() { n_.fetch_add(1, std::memory_order_release); }

 private:
  std::atomic<int> n_{0};
};

TEST(LcoInterleaving, RegistrationOnEitherSideOfTheFireRunsOnce) {
  // Order A: the fire completes before the registration.
  {
    ThreadExecutor ex(1, 1);
    SumLCO sum(ex, 1);
    std::atomic<int> fired{0};
    Lockstep gate;
    std::thread producer([&] {
      sum.add(1.0);
      gate.advance();  // step 1: input applied, LCO fired
    });
    gate.reach(1);
    Task c;
    c.fn = [&fired] { fired.fetch_add(1); };
    sum.register_continuation(std::move(c));
    producer.join();
    ex.drain();
    EXPECT_EQ(fired.load(), 1);
  }
  // Order B: the registration lands before the final input.
  {
    ThreadExecutor ex(1, 1);
    SumLCO sum(ex, 1);
    std::atomic<int> fired{0};
    Lockstep gate;
    std::thread producer([&] {
      gate.reach(1);  // wait for the registration
      sum.add(1.0);
      gate.advance();
    });
    Task c;
    c.fn = [&fired] { fired.fetch_add(1); };
    sum.register_continuation(std::move(c));
    gate.advance();
    gate.reach(2);
    producer.join();
    ex.drain();
    EXPECT_EQ(fired.load(), 1);
  }
}

TEST(LcoInterleaving, WaiterBlockedBeforeTheFinalInputWakes) {
  // The main thread is provably inside wait() (spinning on the LCO's
  // condition variable) before the producer delivers the final input — the
  // lost-wakeup order that rtcheck's lco.wait_vs_fire explores at the
  // instruction level.
  ThreadExecutor ex(1, 1);
  SumLCO sum(ex, 2);
  sum.add(1.0);
  std::thread producer([&] {
    // No gate can order "inside wait()" exactly; a short real-time delay
    // makes the waiter overwhelmingly likely to have blocked, and the test
    // remains correct (just weaker) if it has not.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    sum.add(2.0);
  });
  EXPECT_DOUBLE_EQ(sum.value(), 3.0);  // value() waits for the trigger
  producer.join();
  ex.drain();
}

TEST(Lco, FutureRoundTrip) {
  ThreadExecutor ex(1, 2);
  FutureLCO<double> f(ex);
  Task t;
  t.fn = [&f] { f.set(3.25); };
  ex.spawn(std::move(t));
  EXPECT_DOUBLE_EQ(f.get(), 3.25);  // blocks until set
  // get() returns once fire() notifies, but fire() still touches the LCO
  // after that; let the setting task finish before `f` is destroyed.
  ex.drain();
}

TEST(Lco, SentParcelsFeedAnLcoAtTheirTarget) {
  // The same three parcels on both executors: each runs on the locality
  // that owns the LCO, carries its value in the task, and counts as one
  // remote parcel.
  ThreadExecutor threads(2, 2);
  SimExecutor sim(2, 1);
  for (Executor* ex : {static_cast<Executor*>(&threads),
                       static_cast<Executor*>(&sim)}) {
    constexpr std::uint32_t kHome = 1;  // the LCO lives on locality 1
    SumLCO sum(*ex, 3);
    std::atomic<int> wrong_locality{0};
    for (int i = 1; i <= 3; ++i) {
      Task t;
      t.items = {{kClsNetwork, 1e-6}};  // virtual cost on the simulator
      t.fn = [ex, &sum, &wrong_locality, v = static_cast<double>(i)] {
        if (ex->current_locality() != static_cast<int>(kHome)) {
          wrong_locality.fetch_add(1);
        }
        sum.add(v);
      };
      ex->send(/*from=*/0, kHome, sizeof(double) + 32, std::move(t));
    }
    ex->drain();
    EXPECT_EQ(wrong_locality.load(), 0);
    EXPECT_TRUE(sum.triggered());
    EXPECT_DOUBLE_EQ(sum.value(), 6.0);
    EXPECT_EQ(ex->parcels_sent(), 3u);
  }
  EXPECT_GT(sim.now(), 0.0) << "simulated parcels take virtual time";
}

}  // namespace
}  // namespace amtfmm
