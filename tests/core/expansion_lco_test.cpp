// Tests of the expansion-LCO machinery: the expansion wire codec, per-edge
// wire-format arithmetic, and the engine-level guarantee that transport
// bytes equal serialized bytes.  Trigger-once semantics are LcoArena's
// (tests/runtime/lco_arena_test.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

double max_abs(const CoeffVec& v) {
  double m = 0.0;
  for (const cdouble& c : v) m = std::max(m, std::abs(c));
  return m;
}

/// pack -> unpack must reproduce the expansion (conjugate-symmetric wire
/// halving for the spherical-harmonic kernels, raw copy otherwise).
void expect_roundtrip(const CoeffVec& full, const CoeffVec& back,
                      const char* what) {
  ASSERT_EQ(back.size(), full.size()) << what;
  const double scale = std::max(1.0, max_abs(full));
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_NEAR(full[i].real(), back[i].real(), 1e-12 * scale) << what << i;
    EXPECT_NEAR(full[i].imag(), back[i].imag(), 1e-12 * scale) << what << i;
  }
}

class ExpansionLcoCodec : public ::testing::TestWithParam<const char*> {};

TEST_P(ExpansionLcoCodec, SerializationRoundTripsEveryPayloadKind) {
  auto kernel = make_kernel(GetParam(), /*yukawa_lambda=*/2.0);
  kernel->setup(1.0, 4, 3);
  const int level = 2;

  Rng rng(77);
  const auto pts =
      generate_points(Distribution::kCube, 64, rng, {0.375, 0.375, 0.375});
  const auto q = generate_charges(64, rng, 0.1, 1.0);
  const Vec3 center{0.5, 0.5, 0.5};

  // M coefficients (physically generated: the wire format's conjugate
  // symmetry must hold).
  CoeffVec m;
  kernel->s2m(pts, q, center, level, m);
  ASSERT_EQ(m.size(), kernel->m_count(level));
  std::vector<std::byte> wire(kernel->m_wire_bytes(level));
  kernel->pack_m(m, level, wire.data());
  CoeffVec back;
  kernel->unpack_m(wire, level, back);
  expect_roundtrip(m, back, "M");

  // L coefficients via S2L.
  CoeffVec l(kernel->l_count(level), cdouble{});
  kernel->s2l_acc(pts, q, {0.9, 0.9, 0.9}, level, l);
  wire.assign(kernel->l_wire_bytes(level), std::byte{});
  kernel->pack_l(l, level, wire.data());
  kernel->unpack_l(wire, level, back);
  expect_roundtrip(l, back, "L");

  // Intermediate (plane-wave) expansions ship raw: exact round-trip even
  // for arbitrary coefficient values.
  if (kernel->supports_merge_and_shift() && kernel->x_count(level) > 0) {
    CoeffVec x(kernel->x_count(level));
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] = cdouble(std::sin(0.1 * static_cast<double>(i)),
                     std::cos(0.2 * static_cast<double>(i)));
    }
    wire.assign(kernel->x_wire_bytes(level), std::byte{});
    kernel->pack_x(x, level, wire.data());
    kernel->unpack_x(wire, level, back);
    ASSERT_EQ(back.size(), x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(x[i], back[i]) << "X" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, ExpansionLcoCodec,
                         ::testing::Values("laplace", "yukawa"));

PreparedModel make_plumbing(Kernel& kernel, int localities, Method method) {
  Rng rng(5);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  EvalConfig cfg;
  cfg.threshold = 30;
  cfg.method = method;
  return build_model(kernel, cfg, src, tgt, localities);
}

// The DAG's per-edge byte model and the engine's wire format are the same
// arithmetic: a parcel carrying one edge costs the fixed headers plus
// exactly DagEdge::bytes, for every operator that can cross localities.
TEST(ExpansionLcoWireFormat, PerEdgeBytesAgreeWithDagModel) {
  auto kernel = make_kernel("laplace");
  const PreparedModel p = make_plumbing(*kernel, 4, Method::kFmmAdvanced);
  ThreadExecutor ex(4, 1);
  DagEngine engine(p.dag, p.tree, *kernel, ex, {});

  constexpr std::uint64_t kParcelFixed = 8 + 4 + 8;  // header + id + section
  constexpr std::uint64_t kContribFixed = 8;         // header
  std::size_t remote_checked = 0;
  for (NodeIndex ni = 0; ni < p.dag.nodes.size(); ++ni) {
    const DagNode& n = p.dag.nodes[ni];
    for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges;
         ++e) {
      const DagEdge& edge = p.dag.edges[e];
      if (p.dag.nodes[edge.target].locality == n.locality) continue;
      if (DagEngine::source_computed(edge.op)) {
        EXPECT_EQ(engine.contribution_wire_bytes(edge),
                  kContribFixed + edge.bytes);
      } else {
        EXPECT_EQ(engine.parcel_wire_bytes(
                      ni, std::span<const std::uint32_t>(&e, 1)),
                  kParcelFixed + edge.bytes)
            << "op " << static_cast<int>(edge.op);
      }
      ++remote_checked;
    }
  }
  EXPECT_GT(remote_checked, 0u);
  EXPECT_EQ(p.dag.stats().remote_edges, remote_checked);
}

// Every byte handed to Executor::send is a serialized wire byte — the
// engine's wire-format count and the transport's count must agree exactly,
// in both real and cost-only mode, and with coalescing on or off.
TEST(ExpansionLcoWireFormat, TransportBytesEqualSerializedBytes) {
  Rng rng(11);
  const std::size_t n = 4000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  EvalConfig cfg;
  cfg.localities = 3;
  cfg.cores_per_locality = 2;
  cfg.threshold = 40;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  ASSERT_GT(r.parcels_sent, 0u);
  EXPECT_GT(r.wire_bytes, 0u);
  EXPECT_EQ(r.wire_bytes, r.bytes_sent);

  EvalConfig off = cfg;
  off.coalesce.enabled = false;
  Evaluator eval_off(make_kernel("laplace"), off);
  const EvalResult r_off = eval_off.evaluate(src, q, tgt);
  EXPECT_EQ(r_off.wire_bytes, r_off.bytes_sent);
  EXPECT_EQ(r_off.wire_bytes, r.wire_bytes);

  // The simulator exchanges the same parcels over the same wire format.
  SimConfig sim;
  sim.localities = 3;
  sim.cores_per_locality = 2;
  const EvalResult s = eval.simulate(src, tgt, sim);
  EXPECT_EQ(s.wire_bytes, s.bytes_sent);
  EXPECT_EQ(s.wire_bytes, r.wire_bytes);
}

// Remote edges move data only as serialized parcels; deserialization and
// evaluation at the destination must reproduce the single-locality result
// to full precision.
TEST(ExpansionLcoEngine, MultiLocalityMatchesSingleLocalityTightly) {
  Rng rng(21);
  const std::size_t n = 3000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const auto q = generate_charges(n, rng);

  for (const char* kname : {"laplace", "yukawa"}) {
    EvalConfig one;
    one.localities = 1;
    one.cores_per_locality = 2;
    one.threshold = 30;
    Evaluator e1(make_kernel(kname, /*yukawa_lambda=*/2.0), one);
    const auto r1 = e1.evaluate(src, q, tgt);

    EvalConfig many = one;
    many.localities = 4;
    Evaluator e4(make_kernel(kname, /*yukawa_lambda=*/2.0), many);
    const auto r4 = e4.evaluate(src, q, tgt);
    ASSERT_GT(r4.parcels_sent, 0u);

    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(r1.potentials[i], r4.potentials[i],
                  1e-12 * std::max(1.0, std::abs(r1.potentials[i])))
          << kname << " target " << i;
    }
  }
}

// The LCO network is rebuilt per evaluation: iterating with new charges on
// the same prepared geometry must stay exact (trigger-once state does not
// leak across runs).
TEST(ExpansionLcoEngine, RepeatedEvaluationsStayConsistent) {
  Rng rng(31);
  const std::size_t n = 1500;
  const auto src = generate_points(Distribution::kSphere, n, rng);
  const auto tgt = generate_points(Distribution::kSphere, n, rng);

  EvalConfig cfg;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  cfg.threshold = 30;
  Evaluator eval(make_kernel("laplace"), cfg);
  eval.prepare(src, tgt);
  for (int round = 0; round < 3; ++round) {
    const auto q = generate_charges(n, rng);
    const EvalResult r = eval.pipeline()->evaluate(q);
    EXPECT_EQ(r.wire_bytes, r.bytes_sent);
    const auto ref = direct_sum(eval.kernel(), src, q, tgt);
    double num = 0, den = 0;
    for (std::size_t i = 0; i < n; ++i) {
      num += (r.potentials[i] - ref[i]) * (r.potentials[i] - ref[i]);
      den += ref[i] * ref[i];
    }
    EXPECT_LT(std::sqrt(num / den), 1e-3) << "round " << round;
  }
}

}  // namespace
}  // namespace amtfmm
