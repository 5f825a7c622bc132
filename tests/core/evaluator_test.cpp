#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
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

// Split priority routes each local edge to its class's task by filtering
// the node's out-edge range.  On Counting the potentials are exact either
// way, and the split changes no task, fire, parcel or wire byte.
TEST(Evaluator, SplitPriorityOnCountingIsExactAndCountsMatch) {
  Rng rng(12);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  std::vector<double> q(n);
  double total = 0.0;  // small integers: every partial sum is exact
  for (std::size_t i = 0; i < n; ++i) total += q[i] = 1.0 + i % 3;
  EvalConfig cfg;
  cfg.threshold = 10;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  cfg.counters = true;
  Evaluator plain(make_kernel("counting"), cfg);
  cfg.split_priority = true;
  Evaluator prio(make_kernel("counting"), cfg);
  const EvalResult a = plain.evaluate(src, q, tgt);
  const EvalResult b = prio.evaluate(src, q, tgt);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.potentials[i], total) << "target " << i;
    ASSERT_EQ(b.potentials[i], total) << "target " << i;
  }
  for (int op = 0; op < kNumOperators; ++op) {
    const std::string name =
        std::string("op.") + to_string(static_cast<Operator>(op)) + ".tasks";
    EXPECT_EQ(a.counters.value(name), b.counters.value(name)) << name;
  }
  auto fires = [](const EvalResult& r) {
    for (const auto& h : r.counters.histograms) {
      if (h.name == "lco.input_wait_us") return h.count;
    }
    return std::uint64_t{0};
  };
  EXPECT_GT(fires(a), 0u);
  EXPECT_EQ(fires(a), fires(b));
  EXPECT_GT(a.parcels_sent, 0u);
  EXPECT_EQ(a.parcels_sent, b.parcels_sent);
  EXPECT_EQ(a.wire_bytes, b.wire_bytes);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);
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
  const EvalResult r32 = eval.simulate(src, tgt, sim);
  sim.localities = 4;
  const EvalResult r128 = eval.simulate(src, tgt, sim);
  EXPECT_GT(r32.makespan, 0.0);
  EXPECT_LT(r128.makespan, r32.makespan) << "more cores must not be slower";
  const double speedup = r32.makespan / r128.makespan;
  EXPECT_GT(speedup, 1.5);
  EXPECT_LE(speedup, 4.3);
  EXPECT_GT(r128.bytes_sent, 0u);
}

TEST(Evaluator, RejectsBadConfiguration) {
  EvalConfig cfg;
  cfg.threshold = 0;
  EXPECT_THROW(Evaluator(make_kernel("laplace"), cfg), config_error);
}

// A pipeline built without an Evaluator checks the same configuration, and
// a digit count beyond a kernel's range is a config_error on both paths,
// not an assertion abort in the kernel's setup.
TEST(EvalPipeline, RejectsBadConfiguration) {
  Rng rng(3);
  const auto pts = generate_points(Distribution::kCube, 300, rng);
  const std::vector<double> q(pts.size(), 1.0);
  EvalConfig no_threshold;
  no_threshold.threshold = 0;
  EvalConfig no_digits;
  no_digits.digits = 0;
  for (const EvalConfig& cfg : {no_threshold, no_digits}) {
    auto kernel = make_kernel("laplace");
    EXPECT_THROW(EvalPipeline(*kernel, cfg, pts, pts), config_error);
  }
  const std::pair<const char*, int> beyond_range[] = {{"laplace", 11},
                                                      {"yukawa", 9}};
  for (const auto& [name, digits] : beyond_range) {
    SCOPED_TRACE(name);
    EvalConfig cfg;
    cfg.digits = digits;
    auto kernel = make_kernel(name);
    EXPECT_THROW(EvalPipeline(*kernel, cfg, pts, pts), config_error);
    Evaluator eval(make_kernel(name), cfg);
    EXPECT_THROW(eval.evaluate(pts, q, pts), config_error);
  }
}

struct DegenerateCase {
  const char* name;
  std::vector<Vec3> sources;
  std::vector<Vec3> targets;
};

std::vector<DegenerateCase> degenerate_cases() {
  Rng rng(37);
  const auto cube = generate_points(Distribution::kCube, 400, rng);
  const std::vector<Vec3> few(cube.begin(), cube.begin() + 300);
  const Vec3 p{0.3, -0.2, 0.7};
  return {
      {"no sources", {}, few},
      {"no targets", few, {}},
      {"nothing", {}, {}},
      {"one source, one target", {p}, {{0.9, 0.1, -0.4}}},
      {"coincident sources", std::vector<Vec3>(500, p), few},
      // Both trees refine down to one depth-20 leaf (the level cap).
      {"all at one point", std::vector<Vec3>(200, p),
       std::vector<Vec3>(150, p)},
  };
}

/// Degenerate ensembles give defined results: every target counts the
/// total charge exactly (0 with no sources), and Laplace stays finite.
TEST(DegenerateInputs, CountingIsExactAndLaplaceIsFinite) {
  for (const DegenerateCase& c : degenerate_cases()) {
    SCOPED_TRACE(c.name);
    // Small-integer charges: every partial sum is exact.
    std::vector<double> q(c.sources.size());
    double total = 0.0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      q[i] = static_cast<double>(i % 3 + 1);
      total += q[i];
    }
    EvalConfig cfg;
    cfg.threshold = 20;
    cfg.localities = 2;
    cfg.cores_per_locality = 1;
    Evaluator counting(make_kernel("counting"), cfg);
    const EvalResult rc = counting.evaluate(c.sources, q, c.targets);
    ASSERT_EQ(rc.potentials.size(), c.targets.size());
    for (const double phi : rc.potentials) EXPECT_EQ(phi, total);

    Evaluator laplace(make_kernel("laplace"), cfg);
    const EvalResult rl = laplace.evaluate(c.sources, q, c.targets);
    ASSERT_EQ(rl.potentials.size(), c.targets.size());
    for (const double phi : rl.potentials) EXPECT_TRUE(std::isfinite(phi));
  }
  const DegenerateCase one_point = degenerate_cases().back();
  const DualTree dt =
      build_dual_tree(one_point.sources, one_point.targets, 20, 1);
  EXPECT_EQ(dt.source.max_level(), 20);
  EXPECT_EQ(dt.target.max_level(), 20);
}

/// A NaN or an infinity in any coordinate is a typed error, whether it
/// arrives with the ensembles or with an update; a rejected update leaves
/// the pipeline as it was.
TEST(DegenerateInputs, NonFiniteCoordinatesAreConfigErrors) {
  Rng rng(41);
  const auto src = generate_points(Distribution::kCube, 600, rng);
  const auto tgt = generate_points(Distribution::kCube, 500, rng);
  const std::vector<double> q(src.size(), 1.0);
  EvalConfig cfg;
  cfg.threshold = 20;
  cfg.localities = 2;
  cfg.cores_per_locality = 1;
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  Evaluator eval(make_kernel("counting"), cfg);
  for (const double bad : bad_values) {
    for (int axis = 0; axis < 3; ++axis) {
      SCOPED_TRACE(testing::Message() << bad << " on axis " << axis);
      auto poison = [&](std::vector<Vec3> pts) {
        double* x[] = {&pts[7].x, &pts[7].y, &pts[7].z};
        *x[axis] = bad;
        return pts;
      };
      EXPECT_THROW(eval.evaluate(poison(src), q, tgt), config_error);
      EXPECT_THROW(eval.evaluate(src, q, poison(tgt)), config_error);
    }
  }

  auto kernel = make_kernel("counting");
  EvalPipeline pipe(*kernel, cfg, src, tgt);
  const EvalResult before = pipe.evaluate(q);
  for (const double bad : bad_values) {
    SCOPED_TRACE(testing::Message() << bad);
    const Vec3 p{0.5, bad, 0.5};
    PipelineUpdate move;
    move.moves.push_back({3, p});
    PipelineUpdate insert;
    insert.inserted.push_back(p);
    EXPECT_THROW(pipe.update_sources(move), config_error);
    EXPECT_THROW(pipe.update_sources(insert), config_error);
    EXPECT_THROW(pipe.update_targets(move), config_error);
    EXPECT_THROW(pipe.update_targets(insert), config_error);
  }
  EXPECT_EQ(pipe.num_sources(), src.size());
  EXPECT_EQ(pipe.num_targets(), tgt.size());
  EXPECT_EQ(pipe.rebuilds(), 0u);
  const EvalResult after = pipe.evaluate(q);
  EXPECT_EQ(pipe.epochs(), 2u) << "the resident engine survives";
  EXPECT_EQ(after.potentials, before.potentials);
}

}  // namespace
}  // namespace amtfmm
