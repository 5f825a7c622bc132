#include <gtest/gtest.h>

#include <string>

#include "rtcheck/harness.hpp"

namespace amtfmm::rtcheck {
namespace {

RtReport run_dfs(const std::string& name, int preempt = 2) {
  const Scenario* sc = find_scenario(name);
  EXPECT_NE(sc, nullptr) << name;
  RtOptions opt;
  opt.mode = RtOptions::Mode::kDfs;
  opt.preemption_bound = preempt;
  Harness h(*sc, opt);
  return h.run();
}

TEST(RtCheck, DequeStealVsPopExploresExhaustivelyAndPasses) {
  const RtReport rep = run_dfs("deque.steal_vs_pop");
  EXPECT_FALSE(rep.failed) << rep.message;
  EXPECT_TRUE(rep.complete);
  // The bounded space is nontrivial: dozens of distinct schedules, not a
  // single serialized run.
  EXPECT_GE(rep.executions, 50u);
}

TEST(RtCheck, ArenaScenariosExploreExhaustivelyAndPass) {
  for (const char* name : {"arena.trigger_once", "arena.rearm"}) {
    const RtReport rep = run_dfs(name);
    EXPECT_FALSE(rep.failed) << name << ": " << rep.message;
    EXPECT_TRUE(rep.complete) << name;
    EXPECT_GE(rep.executions, 20u) << name;
  }
}

TEST(RtCheck, AllDfsFeasibleScenariosPassClean) {
  for (const Scenario& sc : all_scenarios()) {
    if (!sc.dfs_feasible || sc.expect_fail) continue;
    const RtReport rep = run_dfs(sc.name);
    EXPECT_FALSE(rep.failed) << sc.name << ": " << rep.message;
    EXPECT_TRUE(rep.complete) << sc.name;
    EXPECT_GE(rep.executions, 1u) << sc.name;
  }
}

TEST(RtCheck, PctOnlyScenariosPassUnderRandomizedExploration) {
  for (const Scenario& sc : all_scenarios()) {
    if (sc.dfs_feasible || sc.expect_fail) continue;
    RtOptions opt;
    opt.mode = RtOptions::Mode::kPct;
    opt.seed = 42;
    opt.pct_executions = 64;
    Harness h(sc, opt);
    const RtReport rep = h.run();
    EXPECT_FALSE(rep.failed) << sc.name << ": " << rep.message;
    EXPECT_EQ(rep.executions, 64u) << sc.name;
  }
}

TEST(RtCheck, SelfCheckDoubleFireIsFlagged) {
  const RtReport rep = run_dfs("selfcheck.double_fire");
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.message.find("fired twice"), std::string::npos) << rep.message;
  EXPECT_FALSE(rep.schedule.empty());
}

TEST(RtCheck, SelfCheckPlainRaceIsFlagged) {
  const RtReport rep = run_dfs("selfcheck.plain_race");
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.message.find("data race"), std::string::npos) << rep.message;
}

TEST(RtCheck, SelfCheckDeadlockIsFlagged) {
  const RtReport rep = run_dfs("selfcheck.deadlock");
  ASSERT_TRUE(rep.failed);
  EXPECT_NE(rep.message.find("deadlock"), std::string::npos) << rep.message;
}

TEST(RtCheck, FailureScheduleReplaysDeterministically) {
  const RtReport first = run_dfs("selfcheck.plain_race");
  ASSERT_TRUE(first.failed);
  RtOptions opt;
  opt.mode = RtOptions::Mode::kReplay;
  opt.replay_schedule = first.schedule;
  Harness h(*find_scenario("selfcheck.plain_race"), opt);
  const RtReport again = h.run();
  ASSERT_TRUE(again.failed);
  EXPECT_FALSE(again.diverged);
  EXPECT_EQ(again.message, first.message);
  EXPECT_EQ(again.schedule, first.schedule);
}

TEST(RtCheck, PctSeedAloneReplaysAFailure) {
  // Find the deadlock under PCT, then re-run only the failing seed.
  const Scenario* sc = find_scenario("selfcheck.deadlock");
  RtOptions opt;
  opt.mode = RtOptions::Mode::kPct;
  opt.seed = 1;
  opt.pct_executions = 256;
  Harness h(*sc, opt);
  const RtReport rep = h.run();
  ASSERT_TRUE(rep.failed);
  RtOptions one = opt;
  one.seed = rep.seed;
  one.pct_executions = 1;
  Harness h2(*sc, one);
  const RtReport again = h2.run();
  ASSERT_TRUE(again.failed);
  EXPECT_EQ(again.message, rep.message);
  EXPECT_EQ(again.schedule, rep.schedule);
}

TEST(RtCheck, ScheduleFormatRoundTrips) {
  const std::vector<int> s = {0, 1, 1, 0, 2};
  EXPECT_EQ(parse_schedule(format_schedule(s)), s);
  EXPECT_TRUE(parse_schedule("").empty());
}

TEST(RtCheck, EveryMutationNamesARegisteredScenario) {
  for (Mutation m :
       {Mutation::kStealBottomLoadRelaxed,
        Mutation::kCoalescerCountAfterInsert, Mutation::kArenaInputNoLock,
        Mutation::kCountersCountEarly}) {
    const Scenario* sc = find_scenario(mutation_scenario(m));
    ASSERT_NE(sc, nullptr) << mutation_name(m);
    EXPECT_TRUE(sc->dfs_feasible) << mutation_name(m);
    EXPECT_EQ(mutation_from_name(mutation_name(m)), m);
  }
}

TEST(RtCheck, FailureTraceRecordsTheRacingSteps) {
  const RtReport rep = run_dfs("selfcheck.plain_race");
  ASSERT_TRUE(rep.failed);
  ASSERT_FALSE(rep.trace.empty());
  bool saw_write = false;
  for (const RtTraceEvent& e : rep.trace) {
    if (e.kind == SyncKind::kPlainWrite && e.label == "shared-int") {
      saw_write = true;
    }
  }
  EXPECT_TRUE(saw_write);
}

}  // namespace
}  // namespace amtfmm::rtcheck
