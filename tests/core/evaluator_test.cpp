#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

double rel_l2_error(std::span<const double> got, std::span<const double> ref) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - ref[i]) * (got[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

struct AccuracyCase {
  const char* kernel;
  Method method;
  Distribution dist;
  Vec3 offset;
  double tolerance;
};

/// Deterministic parameter printer: the default one dumps raw bytes, which
/// include the kernel-name pointer and change under ASLR, breaking ctest's
/// discovered test names.
void PrintTo(const AccuracyCase& c, std::ostream* os) {
  *os << c.kernel << "_" << to_string(c.method) << "_" << to_string(c.dist)
      << "_off" << c.offset.x;
}

class EvaluatorAccuracy : public ::testing::TestWithParam<AccuracyCase> {};

TEST_P(EvaluatorAccuracy, MatchesDirectSummationToThreeDigits) {
  const AccuracyCase c = GetParam();
  Rng rng(123);
  const std::size_t n = 2500;
  const auto src = generate_points(c.dist, n, rng);
  const auto tgt = generate_points(c.dist, n, rng, c.offset);
  const auto q = generate_charges(n, rng, 0.1, 1.0);

  EvalConfig cfg;
  cfg.method = c.method;
  cfg.threshold = 40;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator eval(make_kernel(c.kernel, /*yukawa_lambda=*/2.0), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  const auto ref = direct_sum(eval.kernel(), src, q, tgt);
  EXPECT_LT(rel_l2_error(r.potentials, ref), c.tolerance)
      << c.kernel << " " << to_string(c.method);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, EvaluatorAccuracy,
    ::testing::Values(
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kSphere, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 1e-3},
        AccuracyCase{"laplace", Method::kBarnesHut, Distribution::kCube, {0, 0, 0}, 2e-3},
        AccuracyCase{"laplace", Method::kFmmAdvanced, Distribution::kCube, {0.6, 0.2, 0.1}, 1e-3},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 2e-3},
        AccuracyCase{"yukawa", Method::kFmmAdvanced, Distribution::kSphere, {0, 0, 0}, 2e-3},
        AccuracyCase{"yukawa", Method::kFmmBasic, Distribution::kCube, {0, 0, 0}, 2e-3}));

/// Rotation-mode M2L dies on an offset off the integer box grid, so the
/// basic method far from the origin leans on the offset snap: every M2L
/// edge of a cloud translated by 1e4 must resolve to a tabulated
/// direction, and the potentials must match direct summation.
TEST(Evaluator, BasicMethodFarFromOriginMatchesDirect) {
  Rng rng(17);
  const Vec3 far{1e4, -1e4, 1e4};
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kPlummer, n, rng, far);
  const auto tgt = generate_points(Distribution::kPlummer, n, rng,
                                   far + Vec3{0.02, 0.01, -0.01});
  const auto q = generate_charges(n, rng, 0.1, 1.0);
  EvalConfig cfg;
  cfg.method = Method::kFmmBasic;
  cfg.threshold = 10;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  ASSERT_GT(r.dag.edges[static_cast<int>(Operator::kM2L)].count, 0u);
  const auto ref = direct_sum(eval.kernel(), src, q, tgt);
  EXPECT_LT(rel_l2_error(r.potentials, ref), 1e-3);
}

TEST(Evaluator, MultiLocalityMatchesSingleLocality) {
  Rng rng(9);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig one;
  one.localities = 1;
  one.cores_per_locality = 1;
  one.threshold = 30;
  Evaluator e1(make_kernel("laplace"), one);
  const auto r1 = e1.evaluate(src, q, tgt);

  EvalConfig many = one;
  many.localities = 4;
  many.cores_per_locality = 2;
  Evaluator e4(make_kernel("laplace"), many);
  const auto r4 = e4.evaluate(src, q, tgt);
  ASSERT_GT(r4.parcels_sent, 0u) << "4 localities must exchange parcels";

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r1.potentials[i], r4.potentials[i],
                1e-9 * std::abs(r1.potentials[i]) + 1e-12);
  }
}

TEST(Evaluator, PriorityModeIsNumericallyIdentical) {
  Rng rng(10);
  const std::size_t n = 2000;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  const auto q = generate_charges(n, rng);
  EvalConfig cfg;
  cfg.threshold = 25;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator plain(make_kernel("laplace"), cfg);
  cfg.split_priority = true;
  Evaluator prio(make_kernel("laplace"), cfg);
  const auto a = plain.evaluate(src, q, tgt);
  const auto b = prio.evaluate(src, q, tgt);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a.potentials[i], b.potentials[i],
                1e-9 * std::abs(a.potentials[i]) + 1e-12);
  }
}

TEST(Evaluator, TracingCollectsOperatorEvents) {
  Rng rng(4);
  const std::size_t n = 2000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);
  EvalConfig cfg;
  cfg.trace = true;
  cfg.threshold = 40;
  Evaluator eval(make_kernel("laplace"), cfg);
  const auto r = eval.evaluate(src, q, tgt);
  EXPECT_FALSE(r.trace.empty());
  bool saw_s2m = false, saw_i2i = false;
  for (const auto& e : r.trace) {
    if (e.cls == static_cast<std::uint8_t>(Operator::kS2M)) saw_s2m = true;
    if (e.cls == static_cast<std::uint8_t>(Operator::kI2I)) saw_i2i = true;
  }
  EXPECT_TRUE(saw_s2m);
  EXPECT_TRUE(saw_i2i);
}

TEST(Evaluator, SimulatedEvaluationScalesWithCores) {
  Rng rng(21);
  const std::size_t n = 30000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);

  EvalConfig cfg;
  Evaluator eval(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.cost = CostModel::paper("laplace");
  sim.localities = 1;
  sim.cores_per_locality = 32;
  const SimResult r32 = eval.simulate(src, tgt, sim);
  sim.localities = 4;
  const SimResult r128 = eval.simulate(src, tgt, sim);
  EXPECT_GT(r32.virtual_time, 0.0);
  EXPECT_LT(r128.virtual_time, r32.virtual_time)
      << "more cores must not be slower";
  const double speedup = r32.virtual_time / r128.virtual_time;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LE(speedup, 4.3);
  EXPECT_GT(r128.bytes_sent, 0u);
}

TEST(Evaluator, RejectsBadConfiguration) {
  EvalConfig cfg;
  cfg.threshold = 0;
  EXPECT_THROW(Evaluator(make_kernel("laplace"), cfg), config_error);
}

}  // namespace
}  // namespace amtfmm
