// rtcheck: schedule-exploring model checker for the runtime's concurrent
// structures.  Runs the scenario suites in src/rtcheck/scenarios.cpp under
// the controlled scheduler (DFS with a preemption bound, randomized PCT, or
// deterministic replay of a recorded schedule), with the happens-before
// race checker and protocol invariants layered on top.
//
// Typical uses:
//   rtcheck --list
//   rtcheck --suite deque --mode dfs --preempt 2
//   rtcheck --scenario arena.trigger_once --mutation arena-input-no-lock
//   rtcheck --scenario deque.steal_vs_pop --mode replay --replay 1,1,0,...
//   rtcheck --mode pct --seed 7 --executions 512 --time-budget 600
//
// Every failure report prints the exact flags that replay it.  Exit status
// is 0 when every scenario had its expected outcome (clean scenarios pass,
// expect-fail self-checks and mutation runs are flagged), 1 otherwise.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "rtcheck/harness.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace {

using amtfmm::rtcheck::all_scenarios;
using amtfmm::rtcheck::format_schedule;
using amtfmm::rtcheck::Harness;
using amtfmm::Mutation;
using amtfmm::rtcheck::mutation_name;
using amtfmm::rtcheck::mutation_scenario;
using amtfmm::rtcheck::RtOptions;
using amtfmm::rtcheck::RtReport;
using amtfmm::rtcheck::Scenario;

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void print_report(const Scenario& sc, const RtReport& rep, bool expected) {
  std::printf("%-32s %-6s %8llu schedules%s%s: %s\n", rep.scenario.c_str(),
              rep.mode.c_str(),
              static_cast<unsigned long long>(rep.executions),
              rep.complete ? " (complete)" : "",
              rep.mutation != Mutation::kNone ? " [mutated]" : "",
              rep.failed ? (sc.expect_fail ? "flagged (as expected)"
                                           : "FAILED")
                         : (sc.expect_fail ? "NOT FLAGGED" : "pass"));
  if (rep.failed) {
    std::printf("    %s\n", rep.message.c_str());
    std::printf("    replay: rtcheck --scenario %s --mode replay --replay %s",
                rep.scenario.c_str(), format_schedule(rep.schedule).c_str());
    if (rep.mutation != Mutation::kNone) {
      std::printf(" --mutation %s", mutation_name(rep.mutation));
    }
    std::printf("\n");
    if (rep.mode == "pct") {
      std::printf(
          "    or:     rtcheck --scenario %s --mode pct --seed %llu "
          "--executions 1\n",
          rep.scenario.c_str(), static_cast<unsigned long long>(rep.seed));
    }
  }
  if (!expected) {
    std::printf("    UNEXPECTED OUTCOME (expected %s)\n",
                sc.expect_fail ? "a flagged failure" : "a clean pass");
  }
}

}  // namespace

int main(int argc, char** argv) {
  amtfmm::Cli cli(
      "Schedule-exploring model checker + happens-before race verifier for "
      "the runtime's concurrent structures");
  cli.add_flag("list", false, "list scenarios and exit");
  cli.add_flag("scenario", std::string(),
               "run one scenario by exact name (see --list)");
  cli.add_flag("suite", std::string(),
               "run every scenario whose name starts with this prefix "
               "(empty with no --scenario: all scenarios)");
  cli.add_flag("mode", std::string("dfs"), "dfs | pct | replay");
  cli.add_flag("preempt", std::int64_t{2}, "dfs: preemption bound");
  cli.add_flag("max-executions", std::int64_t{1} << 20,
               "dfs: schedule budget before giving up on exhaustiveness");
  cli.add_flag("max-steps", std::int64_t{1} << 16,
               "per-execution schedule-point budget (livelock guard)");
  cli.add_flag("seed", std::int64_t{1}, "pct: base seed");
  cli.add_flag("executions", std::int64_t{256}, "pct: executions per scenario");
  cli.add_flag("depth", std::int64_t{3}, "pct: bug depth d (d-1 priority "
               "change points per execution)");
  cli.add_flag("mutation", std::string(),
               "enable a seeded mutation (fault injection); the run is then "
               "expected to be flagged");
  cli.add_flag("replay", std::string(),
               "replay: comma-separated pick sequence from a failure report");
  cli.add_flag("trace-out", std::string(),
               "write the per-scenario reports (with failure traces) as JSON");
  cli.add_flag("time-budget", 0.0,
               "pct: keep re-running with advancing seeds for this many "
               "seconds (nightly soak); 0 = one pass");
  try {
    cli.parse(argc, argv);

    if (cli.flag("list")) {
      for (const Scenario& sc : all_scenarios()) {
        std::printf("%-32s%s%s %s\n", sc.name.c_str(),
                    sc.dfs_feasible ? "" : " [pct-only]",
                    sc.expect_fail ? " [self-check]" : "", sc.summary.c_str());
      }
      return 0;
    }

    RtOptions opt;
    const std::string mode = cli.str("mode");
    if (mode == "dfs") {
      opt.mode = RtOptions::Mode::kDfs;
    } else if (mode == "pct") {
      opt.mode = RtOptions::Mode::kPct;
    } else if (mode == "replay") {
      opt.mode = RtOptions::Mode::kReplay;
    } else {
      throw amtfmm::config_error("unknown --mode: " + mode);
    }
    opt.preemption_bound = static_cast<int>(cli.i64("preempt"));
    opt.max_executions = static_cast<std::uint64_t>(cli.i64("max-executions"));
    opt.max_steps = static_cast<std::uint64_t>(cli.i64("max-steps"));
    opt.seed = static_cast<std::uint64_t>(cli.i64("seed"));
    opt.pct_executions = static_cast<std::uint64_t>(cli.i64("executions"));
    opt.pct_depth = static_cast<int>(cli.i64("depth"));
    opt.mutation = amtfmm::rtcheck::mutation_from_name(cli.str("mutation"));
    opt.replay_schedule = amtfmm::rtcheck::parse_schedule(cli.str("replay"));

    // Which scenarios: an exact --scenario, a --suite prefix, or (with a
    // mutation) its canonical detecting scenario, else everything feasible
    // under the chosen mode.
    std::vector<const Scenario*> picked;
    const std::string one = cli.str("scenario");
    std::string prefix = cli.str("suite");
    if (!one.empty()) {
      const Scenario* sc = amtfmm::rtcheck::find_scenario(one);
      if (sc == nullptr) {
        throw amtfmm::config_error("unknown scenario: " + one +
                                   " (see --list)");
      }
      picked.push_back(sc);
    } else {
      if (prefix.empty() && opt.mutation != Mutation::kNone) {
        prefix = mutation_scenario(opt.mutation);
      }
      for (const Scenario& sc : all_scenarios()) {
        if (sc.name.compare(0, prefix.size(), prefix) != 0) continue;
        if (opt.mode == RtOptions::Mode::kDfs && !sc.dfs_feasible) continue;
        picked.push_back(&sc);
      }
      if (picked.empty()) {
        throw amtfmm::config_error("no scenario matches --suite " + prefix);
      }
    }

    // A mutated run must be flagged by at least its canonical scenario;
    // unrelated scenarios in the same sweep may legitimately stay green.
    const std::string canonical = mutation_scenario(opt.mutation);

    const double budget = cli.f64("time-budget");
    const double t0 = wall_now();
    bool ok = true;
    bool canonical_flagged = false;
    std::vector<RtReport> reports;
    std::uint64_t seed = opt.seed;
    std::uint64_t rounds = 0;
    do {
      if (rounds > 0) {
        std::printf("-- soak round %llu, seed %llu\n",
                    static_cast<unsigned long long>(rounds),
                    static_cast<unsigned long long>(seed));
      }
      for (const Scenario* sc : picked) {
        RtOptions o = opt;
        o.seed = seed;
        Harness h(*sc, o);
        const RtReport rep = h.run();
        const bool is_canonical = sc->name == canonical;
        if (rep.failed && is_canonical) canonical_flagged = true;
        // Expected outcome: expect-fail self-checks must be flagged; the
        // mutation's canonical scenario is judged after the loop (PCT may
        // need several rounds); everything else must pass clean.
        bool expected;
        if (sc->expect_fail) {
          expected = rep.failed;
        } else if (opt.mutation != Mutation::kNone && is_canonical) {
          expected = true;
        } else {
          expected = !rep.failed && !rep.diverged;
        }
        ok = ok && expected;
        print_report(*sc, rep, expected);
        reports.push_back(rep);
      }
      ++rounds;
      seed = opt.seed + rounds * opt.pct_executions;
    } while (opt.mode == RtOptions::Mode::kPct && budget > 0.0 &&
             wall_now() - t0 < budget && !(ok && opt.mutation != Mutation::kNone &&
                                           canonical_flagged));

    if (opt.mutation != Mutation::kNone && !canonical.empty()) {
      bool ran_canonical = false;
      for (const Scenario* sc : picked) {
        ran_canonical = ran_canonical || sc->name == canonical;
      }
      if (ran_canonical && !canonical_flagged) {
        std::printf("mutation %s NOT detected by %s\n",
                    mutation_name(opt.mutation), canonical.c_str());
        ok = false;
      }
    }

    const std::string out = cli.str("trace-out");
    if (!out.empty()) {
      amtfmm::JsonWriter w;
      w.begin_object();
      w.kv("mode", mode);
      w.kv("mutation", mutation_name(opt.mutation));
      w.kv("base_seed", static_cast<std::uint64_t>(cli.i64("seed")));
      w.kv("ok", ok);
      w.key("reports");
      w.begin_array();
      for (const RtReport& r : reports) r.append_json(w);
      w.end_array();
      w.end_object();
      if (!w.write_file(out)) {
        std::fprintf(stderr, "rtcheck: cannot write %s\n", out.c_str());
        return 1;
      }
    }
    return ok ? 0 : 1;
  } catch (const amtfmm::config_error& e) {
    std::fprintf(stderr, "rtcheck: %s\n", e.what());
    return 2;
  }
}
