#include <gtest/gtest.h>

#include <map>

#include "core/cost_model.hpp"
#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

/// Real-mode and sim-mode runs of the same problem must execute the same
/// DAG: identical per-class operator event counts.
TEST(SimRealConsistency, SameOperatorEventCounts) {
  Rng rng(31);
  const std::size_t n = 5000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig cfg;
  cfg.threshold = 40;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  cfg.trace = true;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult real = eval.evaluate(src, q, tgt);

  SimConfig sim;
  sim.localities = 2;
  sim.cores_per_locality = 2;
  sim.cost = CostModel::paper("laplace");
  const EvalResult simulated = eval.simulate(src, tgt, sim);

  std::map<int, std::size_t> real_counts, sim_counts;
  for (const auto& e : real.trace) real_counts[e.cls]++;
  for (const auto& e : simulated.trace) sim_counts[e.cls]++;
  EXPECT_EQ(real_counts, sim_counts);
}

// A cost-only pipeline over a caller-built simulator runs the same epoch
// as Evaluator::simulate: same virtual time, bytes, parcels, batches and
// trace.
TEST(SimRealConsistency, BorrowedSimulatorMatchesSimulate) {
  Rng rng(12);
  const std::size_t n = 6000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  EvalConfig cfg;
  cfg.threshold = 40;
  cfg.coalesce.enabled = true;
  cfg.trace = true;
  SimConfig sim;
  sim.localities = 3;
  sim.cores_per_locality = 4;
  sim.cost = CostModel::paper("laplace");

  auto kernel = make_kernel("laplace");
  SimExecutor ex(sim.localities, sim.cores_per_locality, sim.policy,
                 sim.network, cfg.seed, cfg.coalesce);
  EvalPipeline pipe(*kernel, cfg, src, tgt, ex, sim.cost);
  const EvalResult own = pipe.evaluate({});
  EXPECT_GT(own.makespan, 0.0);
  EXPECT_TRUE(own.potentials.empty());
  EXPECT_GT(own.bytes_sent, 0u);
  EXPECT_EQ(own.wire_bytes, own.bytes_sent);
  EXPECT_FALSE(own.trace.empty());

  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult ref = eval.simulate(src, tgt, sim);
  EXPECT_EQ(own.makespan, ref.makespan);
  EXPECT_EQ(own.bytes_sent, ref.bytes_sent);
  EXPECT_EQ(own.parcels_sent, ref.parcels_sent);
  EXPECT_EQ(own.comm.batches, ref.comm.batches);
  EXPECT_EQ(own.trace.size(), ref.trace.size());
}

TEST(SimRealConsistency, SimIsDeterministic) {
  Rng rng(5);
  const std::size_t n = 8000;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  EvalConfig cfg;
  Evaluator eval(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.localities = 4;
  sim.cost = CostModel::paper("laplace");
  const double a = eval.simulate(src, tgt, sim).makespan;
  const double b = eval.simulate(src, tgt, sim).makespan;
  EXPECT_DOUBLE_EQ(a, b);
}

TEST(SimRealConsistency, UtilizationIntegralEqualsTotalWork) {
  // sum_k f_k * n * dt == total traced busy time (conservation check of the
  // paper's equations 1-2 applied to an actual run).
  Rng rng(6);
  const std::size_t n = 10000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  EvalConfig cfg;
  cfg.trace = true;
  Evaluator eval(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.localities = 2;
  sim.cores_per_locality = 8;
  sim.cost = CostModel::paper("laplace");
  const EvalResult r = eval.simulate(src, tgt, sim);
  double busy = 0;
  for (const auto& e : r.trace) busy += e.t1 - e.t0;
  const int m = 50;
  const int cores = sim.localities * sim.cores_per_locality;
  const auto prof = utilization(r.trace, 0.0, r.makespan, m, cores);
  double integral = 0;
  for (double f : prof.total) integral += f * cores * (r.makespan / m);
  EXPECT_NEAR(integral, busy, 1e-6 * busy);
  // And utilization never exceeds 1 (cores cannot be more than busy).
  for (double f : prof.total) EXPECT_LE(f, 1.0 + 1e-9);
}

TEST(SimPriority, PriorityNeverHurtsAtHighCoreCounts) {
  Rng rng(8);
  const std::size_t n = 60000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  EvalConfig cfg;
  Evaluator plain_eval(make_kernel("counting"), cfg);
  cfg.split_priority = true;
  Evaluator prio_eval(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.localities = 16;  // 512 cores: the starved regime
  sim.cost = CostModel::paper("laplace");
  const double plain = plain_eval.simulate(src, tgt, sim).makespan;
  const double prio = prio_eval.simulate(src, tgt, sim).makespan;
  EXPECT_LE(prio, plain * 1.05)
      << "priorities must not significantly hurt the makespan";
}

TEST(EvaluatorEdgeCases, TinyProblemsFallBackToDirectPairs) {
  // N below the threshold: one leaf box, everything through S->T.
  Rng rng(2);
  const auto src = generate_points(Distribution::kCube, 25, rng);
  const auto tgt = generate_points(Distribution::kCube, 30, rng);
  const auto q = generate_charges(25, rng);
  EvalConfig cfg;
  cfg.threshold = 60;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  const auto exact = direct_sum(eval.kernel(), src, q, tgt);
  for (std::size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(r.potentials[i], exact[i], 1e-12 * std::abs(exact[i]));
  }
}

TEST(EvaluatorEdgeCases, SinglePointAndIdenticalEnsembles) {
  EvalConfig cfg;
  Evaluator eval(make_kernel("laplace"), cfg);
  const std::vector<Vec3> one{{0.3, 0.4, 0.5}};
  const std::vector<double> q{2.0};
  // Source == target: the self term is excluded by the r->0 convention.
  const EvalResult r = eval.evaluate(one, q, one);
  EXPECT_DOUBLE_EQ(r.potentials[0], 0.0);

  // Identical larger ensembles (the traditional N-body case).
  Rng rng(14);
  const auto pts = generate_points(Distribution::kCube, 3000, rng);
  const auto qs = generate_charges(3000, rng);
  EvalConfig cfg2;
  cfg2.threshold = 30;
  Evaluator eval2(make_kernel("laplace"), cfg2);
  const EvalResult rr = eval2.evaluate(pts, qs, pts);
  const auto exact = direct_sum(eval2.kernel(), pts, qs, pts);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < exact.size(); ++i) {
    num += (rr.potentials[i] - exact[i]) * (rr.potentials[i] - exact[i]);
    den += exact[i] * exact[i];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-3);
}

TEST(EvaluatorEdgeCases, StronglyScreenedYukawaStillCorrect) {
  // lambda * box_size above the accuracy budget at coarse levels: the
  // plane-wave expansions there are empty, and the potential is dominated
  // by near-field terms.  Correctness must be unaffected.
  Rng rng(15);
  const std::size_t n = 4000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);
  EvalConfig cfg;
  cfg.threshold = 30;
  Evaluator eval(make_kernel("yukawa", /*lambda=*/25.0), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  EXPECT_EQ(eval.kernel().x_count(0), 0u) << "root-level X must be empty";
  const auto exact = direct_sum(eval.kernel(), src, q, tgt);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (r.potentials[i] - exact[i]) * (r.potentials[i] - exact[i]);
    den += exact[i] * exact[i];
  }
  EXPECT_LT(std::sqrt(num / den), 2e-3);
}

TEST(EvaluatorAccuracyScaling, MoreDigitsGiveSmallerError) {
  Rng rng(16);
  const std::size_t n = 1500;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);
  auto kernel = make_kernel("laplace");
  const auto exact = direct_sum(*kernel, src, q, tgt);
  double prev = 1.0;
  for (int digits : {1, 2, 3}) {
    EvalConfig cfg;
    cfg.digits = digits;
    cfg.threshold = 30;
    Evaluator eval(make_kernel("laplace"), cfg);
    const EvalResult r = eval.evaluate(src, q, tgt);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (r.potentials[i] - exact[i]) * (r.potentials[i] - exact[i]);
      den += exact[i] * exact[i];
    }
    const double err = std::sqrt(num / den);
    EXPECT_LT(err, std::pow(10.0, -digits) * 5.0) << digits << " digits";
    EXPECT_LT(err, prev) << "error must shrink with requested digits";
    prev = err;
  }
}

/// The host profile times every merge-and-shift operator on a kernel set up
/// for a domain other than 1, such as the padded bounding cube a tree
/// reports: the timed I->I offset must sit on that kernel's half-box grid.
TEST(CostModel, MeasuredOnTheKernelsOwnDomain) {
  for (const char* name : {"laplace", "yukawa"}) {
    for (const double domain : {1.0 + 2e-6, 3.0}) {
      auto kernel = make_kernel(name, 2.0);
      kernel->setup(domain, 5, 3);
      const CostModel m = CostModel::measured(*kernel, 3, 8, domain);
      for (const Operator op :
           {Operator::kM2I, Operator::kI2L, Operator::kS2M}) {
        EXPECT_GT(m.base[static_cast<std::size_t>(op)] +
                      m.per_unit[static_cast<std::size_t>(op)],
                  0.0)
            << name << " domain " << domain << " " << to_string(op);
      }
      EXPECT_GT(m.per_unit[static_cast<std::size_t>(Operator::kI2I)], 0.0)
          << name << " domain " << domain;
    }
  }
}

}  // namespace
}  // namespace amtfmm
