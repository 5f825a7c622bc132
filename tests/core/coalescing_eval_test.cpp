#include <gtest/gtest.h>

#include <cmath>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

CoalesceConfig coalesce_on() {
  CoalesceConfig c;
  c.enabled = true;
  return c;
}

double rel_l2_error(std::span<const double> got, std::span<const double> ref) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - ref[i]) * (got[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

TEST(CoalescingEval, LaplacePotentialsMatchWithCoalescingOnAndOff) {
  Rng rng(17);
  const std::size_t n = 2500;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig cfg;
  cfg.threshold = 30;
  cfg.localities = 4;
  cfg.cores_per_locality = 2;
  Evaluator off(make_kernel("laplace"), cfg);
  cfg.coalesce = coalesce_on();
  Evaluator on(make_kernel("laplace"), cfg);

  const auto a = off.evaluate(src, q, tgt);
  const auto b = on.evaluate(src, q, tgt);

  // Same DAG, same arithmetic per edge; only message batching differs.
  // Accumulation order varies with scheduling (in both runs), so compare
  // to a tight tolerance rather than bit-for-bit.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(a.potentials[i], b.potentials[i],
                1e-9 * std::abs(a.potentials[i]) + 1e-12);
  }
  const auto ref = direct_sum(on.kernel(), src, q, tgt);
  EXPECT_LT(rel_l2_error(b.potentials, ref), 1e-3);

  EXPECT_EQ(b.comm.parcels, a.comm.parcels)
      << "coalescing must not change the logical parcel stream";
  EXPECT_LT(b.comm.batches, b.comm.parcels);
  EXPECT_GT(b.comm.coalescing_factor(), 1.0);
  EXPECT_DOUBLE_EQ(a.comm.coalescing_factor(), 1.0);
}

TEST(CoalescingEval, CountingKernelIsExactlyIdentical) {
  // The counting kernel is integer-valued arithmetic in doubles: exact
  // under any accumulation order, so the parity here is bit-for-bit.
  Rng rng(5);
  const std::size_t n = 1500;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);
  const std::vector<double> q(n, 1.0);

  EvalConfig cfg;
  cfg.threshold = 25;
  cfg.localities = 3;
  cfg.cores_per_locality = 2;
  Evaluator off(make_kernel("counting"), cfg);
  cfg.coalesce = coalesce_on();
  Evaluator on(make_kernel("counting"), cfg);

  const auto a = off.evaluate(src, q, tgt);
  const auto b = on.evaluate(src, q, tgt);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(a.potentials[i], b.potentials[i]) << "target " << i;
  }
}

TEST(CoalescingEval, SimulationCoalescingShrinksNetworkTime) {
  Rng rng(23);
  const std::size_t n = 20000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);

  EvalConfig cfg;
  Evaluator plain(make_kernel("counting"), cfg);
  cfg.coalesce = coalesce_on();
  cfg.coalesce.flush_deadline = 10e-6;  // cap the added buffering delay
  Evaluator coalesced(make_kernel("counting"), cfg);
  SimConfig sim;
  sim.cost = CostModel::paper("laplace");
  sim.localities = 4;
  sim.cores_per_locality = 8;
  // A latency-bound interconnect (high alpha): the per-message cost is
  // what coalescing amortizes, so the win must show in the makespan.
  sim.network.latency = 20e-6;
  const EvalResult off = plain.simulate(src, tgt, sim);
  const EvalResult on = coalesced.simulate(src, tgt, sim);

  EXPECT_EQ(on.comm.parcels, off.comm.parcels);
  EXPECT_EQ(on.bytes_sent, off.bytes_sent);
  EXPECT_LT(on.comm.batches, on.comm.parcels);
  EXPECT_GT(on.comm.coalescing_factor(), 1.0);
  EXPECT_LT(on.makespan, off.makespan)
      << "batched messages must pay fewer alphas on the modelled network";
}

TEST(CoalescingEval, RealModeSurfacesCommStats) {
  Rng rng(31);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig cfg;
  cfg.threshold = 30;
  cfg.localities = 4;
  cfg.cores_per_locality = 2;
  cfg.coalesce = coalesce_on();
  cfg.trace = true;
  Evaluator eval(make_kernel("laplace"), cfg);
  const auto r = eval.evaluate(src, q, tgt);

  EXPECT_GT(r.comm.parcels, 0u);
  EXPECT_GT(r.comm.coalescing_factor(), 1.0);
  EXPECT_EQ(r.comm.parcels, r.parcels_sent);
  EXPECT_EQ(r.comm.bytes, r.bytes_sent);
  std::uint64_t per_dst = 0;
  for (const auto v : r.comm.parcels_to) per_dst += v;
  EXPECT_EQ(per_dst, r.comm.parcels);
  EXPECT_EQ(r.comm_trace.size(), r.comm.batches);
}

}  // namespace
}  // namespace amtfmm
