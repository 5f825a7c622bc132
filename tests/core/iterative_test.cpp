#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

/// The iterative-use API of section IV: prepare once, evaluate the same DAG
/// repeatedly with fresh charges.  Results must match the one-shot path
/// exactly, and the kernel math must be stateless across evaluations.
TEST(IterativeUse, PreparedEvaluationsMatchOneShot) {
  Rng rng(41);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);

  EvalConfig cfg;
  cfg.threshold = 30;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator eval(make_kernel("laplace"), cfg);
  EXPECT_EQ(eval.pipeline(), nullptr);
  eval.prepare(src, tgt);
  ASSERT_NE(eval.pipeline(), nullptr);

  for (int iter = 0; iter < 3; ++iter) {
    Rng qr(100 + static_cast<std::uint64_t>(iter));
    const auto q = generate_charges(n, qr);
    const EvalResult prepared = eval.pipeline()->evaluate(q);

    Evaluator fresh(make_kernel("laplace"), cfg);
    const EvalResult oneshot = fresh.evaluate(src, q, tgt);
    ASSERT_EQ(prepared.potentials.size(), oneshot.potentials.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(prepared.potentials[i], oneshot.potentials[i],
                  1e-10 * std::abs(oneshot.potentials[i]) + 1e-13)
          << "iteration " << iter << " target " << i;
    }
  }
}

TEST(IterativeUse, LinearInCharges) {
  // Doubling every charge must exactly double every potential when the
  // same prepared DAG is reused (pure linear pipeline).
  Rng rng(43);
  const std::size_t n = 2500;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  const auto q = generate_charges(n, rng);
  std::vector<double> q2(q);
  for (auto& v : q2) v *= 2.0;

  EvalConfig cfg;
  cfg.threshold = 40;
  Evaluator eval(make_kernel("yukawa", 2.0), cfg);
  eval.prepare(src, tgt);
  const auto r1 = eval.pipeline()->evaluate(q);
  const auto r2 = eval.pipeline()->evaluate(q2);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(r2.potentials[i], 2.0 * r1.potentials[i],
                1e-10 * std::abs(r1.potentials[i]) + 1e-13);
  }
}

// There is no resident pipeline to evaluate until prepare() builds one.
TEST(IterativeUse, RequiresPrepare) {
  Rng rng(47);
  const auto pts = generate_points(Distribution::kCube, 200, rng);
  EvalConfig cfg;
  Evaluator eval(make_kernel("laplace"), cfg);
  EXPECT_EQ(eval.pipeline(), nullptr);
  eval.prepare(pts, pts);
  ASSERT_NE(eval.pipeline(), nullptr);
  EXPECT_EQ(eval.pipeline()->num_sources(), pts.size());
}

}  // namespace
}  // namespace amtfmm
