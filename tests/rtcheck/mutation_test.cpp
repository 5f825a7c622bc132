// Mutation (fault-injection) validation: each seeded mutation reintroduces
// a specific ordering/locking bug in the real runtime code, and the model
// checker must (a) detect it in its canonical scenario, (b) reproduce the
// identical failure from the recorded schedule, and (c) stay green on the
// same scenario without the mutation — proving the detectors key on the bug,
// not on noise.

#include <gtest/gtest.h>

#include "rtcheck/harness.hpp"

namespace amtfmm::rtcheck {
namespace {

constexpr Mutation kAll[] = {
    Mutation::kStealBottomLoadRelaxed,
    Mutation::kCoalescerCountAfterInsert,
    Mutation::kArenaInputNoLock,
    Mutation::kCountersCountEarly,
};

RtReport run(const Scenario& sc, const RtOptions& opt) {
  Harness h(sc, opt);
  return h.run();
}

TEST(RtCheckMutation, EachMutationIsDetectedByItsCanonicalScenario) {
  for (Mutation m : kAll) {
    const Scenario* sc = find_scenario(mutation_scenario(m));
    ASSERT_NE(sc, nullptr);
    RtOptions opt;
    opt.mode = RtOptions::Mode::kDfs;
    opt.mutation = m;
    const RtReport rep = run(*sc, opt);
    EXPECT_TRUE(rep.failed) << mutation_name(m) << " not detected";
    EXPECT_FALSE(rep.schedule.empty()) << mutation_name(m);
  }
}

TEST(RtCheckMutation, DetectionReplaysDeterministically) {
  for (Mutation m : kAll) {
    const Scenario* sc = find_scenario(mutation_scenario(m));
    ASSERT_NE(sc, nullptr);
    RtOptions opt;
    opt.mode = RtOptions::Mode::kDfs;
    opt.mutation = m;
    const RtReport first = run(*sc, opt);
    ASSERT_TRUE(first.failed) << mutation_name(m);

    RtOptions replay;
    replay.mode = RtOptions::Mode::kReplay;
    replay.mutation = m;
    replay.replay_schedule = first.schedule;
    const RtReport again = run(*sc, replay);
    EXPECT_TRUE(again.failed) << mutation_name(m);
    EXPECT_FALSE(again.diverged) << mutation_name(m);
    EXPECT_EQ(again.message, first.message) << mutation_name(m);
  }
}

TEST(RtCheckMutation, FailingScheduleIsCleanWithoutTheMutation) {
  for (Mutation m : kAll) {
    const Scenario* sc = find_scenario(mutation_scenario(m));
    ASSERT_NE(sc, nullptr);
    RtOptions opt;
    opt.mode = RtOptions::Mode::kDfs;
    opt.mutation = m;
    const RtReport first = run(*sc, opt);
    ASSERT_TRUE(first.failed) << mutation_name(m);

    // Same schedule, fixed code: the bug is the mutation, not the scenario.
    // (The pick sequence may diverge harmlessly — removing the mutation can
    // change which schedule points exist — but nothing may be flagged.)
    RtOptions replay;
    replay.mode = RtOptions::Mode::kReplay;
    replay.replay_schedule = first.schedule;
    const RtReport clean = run(*sc, replay);
    EXPECT_FALSE(clean.failed) << mutation_name(m) << ": " << clean.message;
  }
}

TEST(RtCheckMutation, PctFindsAndSeedReplaysAMutation) {
  const Scenario* sc =
      find_scenario(mutation_scenario(Mutation::kArenaInputNoLock));
  ASSERT_NE(sc, nullptr);
  RtOptions opt;
  opt.mode = RtOptions::Mode::kPct;
  opt.mutation = Mutation::kArenaInputNoLock;
  opt.seed = 1;
  opt.pct_executions = 128;
  const RtReport rep = run(*sc, opt);
  ASSERT_TRUE(rep.failed);

  RtOptions one = opt;
  one.seed = rep.seed;
  one.pct_executions = 1;
  const RtReport again = run(*sc, one);
  ASSERT_TRUE(again.failed);
  EXPECT_EQ(again.message, rep.message);
  EXPECT_EQ(again.schedule, rep.schedule);
}

}  // namespace
}  // namespace amtfmm::rtcheck
