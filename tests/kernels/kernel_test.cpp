#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "kernels/counting.hpp"
#include "kernels/kernel.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace amtfmm {
namespace {

constexpr double kDomain = 1.0;
constexpr int kMaxLevel = 3;
constexpr int kLevel = 3;          // working level for the operator tests
constexpr double kW = kDomain / 8; // box size at that level
constexpr int kDigits = 3;

struct Ensemble {
  std::vector<Vec3> pts;
  std::vector<double> q;
};

Ensemble random_box_points(const Vec3& center, double size, int n,
                           std::uint64_t seed) {
  Rng rng(seed);
  Ensemble e;
  for (int i = 0; i < n; ++i) {
    e.pts.push_back(center + Vec3{rng.uniform(-0.5, 0.5) * size,
                                  rng.uniform(-0.5, 0.5) * size,
                                  rng.uniform(-0.5, 0.5) * size});
    e.q.push_back(rng.uniform(0.1, 1.0));
  }
  return e;
}

double direct_sum(const Kernel& k, const Ensemble& src, const Vec3& t) {
  double phi = 0.0;
  for (std::size_t i = 0; i < src.pts.size(); ++i) {
    phi += src.q[i] * k.direct(t, src.pts[i]);
  }
  return phi;
}

class KernelOps : public ::testing::TestWithParam<const char*> {
 protected:
  void SetUp() override {
    kernel_ = make_kernel(GetParam(), /*yukawa_lambda=*/2.0);
    kernel_->setup(kDomain, kMaxLevel, kDigits);
  }
  std::unique_ptr<Kernel> kernel_;
};

TEST_P(KernelOps, S2MThenM2TMatchesDirect) {
  const Vec3 cs{0.3125, 0.3125, 0.3125};  // a level-3 box center
  const Ensemble src = random_box_points(cs, kW, 40, 1);
  CoeffVec m;
  kernel_->s2m(src.pts, src.q, cs, kLevel, m);
  EXPECT_EQ(m.size(), kernel_->m_count(kLevel));
  Rng rng(2);
  for (int trial = 0; trial < 8; ++trial) {
    const Vec3 t = cs + Vec3{rng.uniform(-1, 1), rng.uniform(-1, 1),
                             rng.uniform(-1, 1)} *
                            (2.5 * kW);
    if ((t - cs).norm() < 1.8 * kW) continue;  // stay well separated
    const double exact = direct_sum(*kernel_, src, t);
    EXPECT_NEAR(kernel_->m2t(m, cs, kLevel, t), exact,
                5e-3 * std::abs(exact) + 1e-12);
  }
}

TEST_P(KernelOps, M2MPreservesTheFarField) {
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  const Vec3 cp{0.375, 0.375, 0.375};  // parent (level-2) center
  const Ensemble src = random_box_points(cs, kW, 40, 3);
  CoeffVec m, mp(kernel_->m_count(kLevel - 1), cdouble{});
  kernel_->s2m(src.pts, src.q, cs, kLevel, m);
  kernel_->m2m_acc(m, cs, cp, kLevel, mp);
  Rng rng(4);
  for (int trial = 0; trial < 8; ++trial) {
    Vec3 dir{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vec3 t = cp + dir * (5.0 * kW / std::max(dir.norm(), 1e-9));
    const double exact = direct_sum(*kernel_, src, t);
    EXPECT_NEAR(kernel_->m2t(mp, cp, kLevel - 1, t), exact,
                5e-3 * std::abs(exact) + 1e-12);
  }
}

TEST_P(KernelOps, M2LThenL2TMatchesDirect) {
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  for (const Vec3 off : {Vec3{2, 0, 0}, Vec3{-2, 1, 1}, Vec3{3, -2, 2},
                         Vec3{0, 0, -3}, Vec3{2, 2, 2}}) {
    const Vec3 ct = cs + off * kW;
    const Ensemble src = random_box_points(cs, kW, 30, 5);
    CoeffVec m, l(kernel_->l_count(kLevel), cdouble{});
    kernel_->s2m(src.pts, src.q, cs, kLevel, m);
    kernel_->m2l_acc(m, cs, ct, kLevel, l);
    Rng rng(6);
    for (int trial = 0; trial < 5; ++trial) {
      const Vec3 t = ct + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                               rng.uniform(-0.5, 0.5)} *
                              kW;
      const double exact = direct_sum(*kernel_, src, t);
      EXPECT_NEAR(kernel_->l2t(l, ct, kLevel, t), exact,
                  5e-3 * std::abs(exact) + 1e-12)
          << "offset " << off.x << "," << off.y << "," << off.z;
    }
  }
}

TEST_P(KernelOps, S2LThenL2TMatchesDirect) {
  const Vec3 ct{0.3125, 0.3125, 0.3125};
  // A coarser far leaf: sources at 2.5 box widths.
  const Ensemble src = random_box_points(ct + Vec3{2.5, 0.5, -1} * kW,
                                         2 * kW, 25, 7);
  CoeffVec l(kernel_->l_count(kLevel), cdouble{});
  kernel_->s2l_acc(src.pts, src.q, ct, kLevel, l);
  Rng rng(8);
  for (int trial = 0; trial < 5; ++trial) {
    const Vec3 t = ct + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.5, 0.5)} *
                            kW;
    const double exact = direct_sum(*kernel_, src, t);
    EXPECT_NEAR(kernel_->l2t(l, ct, kLevel, t), exact,
                5e-3 * std::abs(exact) + 1e-12);
  }
}

TEST_P(KernelOps, L2LRefinesTheLocalExpansion) {
  const Vec3 cp{0.375, 0.375, 0.375};            // level-2 parent
  const Vec3 cc = cp + Vec3{-1, -1, -1} * (kW / 2);  // a level-3 child
  const Ensemble src = random_box_points(cp + Vec3{5, 1, 0} * kW, 2 * kW, 25, 9);
  CoeffVec lp(kernel_->l_count(kLevel - 1), cdouble{});
  kernel_->s2l_acc(src.pts, src.q, cp, kLevel - 1, lp);
  CoeffVec lc(kernel_->l_count(kLevel), cdouble{});
  kernel_->l2l_acc(lp, cp, cc, kLevel, lc);
  Rng rng(10);
  for (int trial = 0; trial < 5; ++trial) {
    const Vec3 t = cc + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                             rng.uniform(-0.5, 0.5)} *
                            kW;
    const double exact = direct_sum(*kernel_, src, t);
    EXPECT_NEAR(kernel_->l2t(lc, cc, kLevel, t), exact,
                5e-3 * std::abs(exact) + 1e-12);
  }
}

/// The advanced path, direct form: M->I at the source box, one diagonal
/// I->I translation to the target box, I->L, L->T — for offsets in every
/// direction class.
TEST_P(KernelOps, MergeAndShiftDirectChainMatchesM2L) {
  if (!kernel_->supports_merge_and_shift()) GTEST_SKIP();
  const Vec3 cs{0.4375, 0.4375, 0.4375};
  struct Case {
    Vec3 off;
    Axis d;
  };
  // Direction = dominant axis of (target - source).
  const Case cases[] = {
      {{0, 1, 2}, Axis::kPlusZ},   {{1, -1, 3}, Axis::kPlusZ},
      {{-1, 0, -2}, Axis::kMinusZ}, {{0, 2, 1}, Axis::kPlusY},
      {{1, -3, 0}, Axis::kMinusY}, {{2, 1, -1}, Axis::kPlusX},
      {{-2, 0, 1}, Axis::kMinusX}, {{3, 1, 1}, Axis::kPlusX},
  };
  for (const Case& c : cases) {
    const Vec3 ct = cs + c.off * kW;
    const Ensemble src = random_box_points(cs, kW, 30, 11);
    CoeffVec m;
    kernel_->s2m(src.pts, src.q, cs, kLevel, m);
    CoeffVec x;
    kernel_->m2i(m, kLevel, c.d, x);
    CoeffVec xin(kernel_->x_count(kLevel), cdouble{});
    kernel_->i2i_acc(x, c.d, ct - cs, kLevel, xin);
    CoeffVec l(kernel_->l_count(kLevel), cdouble{});
    kernel_->i2l_acc(xin, c.d, kLevel, l);
    Rng rng(12);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec3 t = ct + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                               rng.uniform(-0.5, 0.5)} *
                              kW;
      const double exact = direct_sum(*kernel_, src, t);
      EXPECT_NEAR(kernel_->l2t(l, ct, kLevel, t), exact,
                  8e-3 * std::abs(exact) + 1e-12)
          << "offset " << c.off.x << "," << c.off.y << "," << c.off.z;
    }
  }
}

/// The merge path: source X hops to the target's PARENT center (merge leg)
/// and then down to the target child (shift leg).  Must equal the direct
/// single translation, which it does algebraically for diagonal operators.
TEST_P(KernelOps, MergeViaParentEqualsDirectTranslation) {
  if (!kernel_->supports_merge_and_shift()) GTEST_SKIP();
  const Vec3 cs{0.4375, 0.4375, 0.4375};
  const Vec3 ct = cs + Vec3{1, 0, 2} * kW;          // +z class
  const Vec3 cparent = ct + Vec3{1, 1, 1} * (kW / 2);
  const Ensemble src = random_box_points(cs, kW, 20, 13);
  CoeffVec m;
  kernel_->s2m(src.pts, src.q, cs, kLevel, m);
  CoeffVec x;
  kernel_->m2i(m, kLevel, Axis::kPlusZ, x);

  CoeffVec direct_x(kernel_->x_count(kLevel), cdouble{});
  kernel_->i2i_acc(x, Axis::kPlusZ, ct - cs, kLevel, direct_x);

  CoeffVec via_parent(kernel_->x_count(kLevel), cdouble{});
  kernel_->i2i_acc(x, Axis::kPlusZ, cparent - cs, kLevel, via_parent);
  CoeffVec at_child(kernel_->x_count(kLevel), cdouble{});
  kernel_->i2i_acc(via_parent, Axis::kPlusZ, ct - cparent, kLevel, at_child);

  for (std::size_t i = 0; i < direct_x.size(); ++i) {
    EXPECT_NEAR(std::abs(at_child[i] - direct_x[i]), 0.0,
                1e-11 * (1.0 + std::abs(direct_x[i])));
  }
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelOps,
                         ::testing::Values("laplace", "yukawa"));

TEST(LaplaceGradients, MatchDirectDifferentiation) {
  auto k = make_kernel("laplace");
  k->setup(kDomain, kMaxLevel, kDigits);
  ASSERT_TRUE(k->supports_gradient());
  const Vec3 s{0.2, 0.3, 0.4}, t{0.7, 0.1, 0.9};
  const Vec3 g = k->direct_grad(t, s);
  const double h = 1e-6;
  EXPECT_NEAR(g.x, (k->direct(t + Vec3{h, 0, 0}, s) - k->direct(t - Vec3{h, 0, 0}, s)) / (2 * h), 1e-6);
  EXPECT_NEAR(g.z, (k->direct(t + Vec3{0, 0, h}, s) - k->direct(t - Vec3{0, 0, h}, s)) / (2 * h), 1e-6);

  // l2t_grad against finite differences of l2t.
  const Vec3 ct{0.3125, 0.3125, 0.3125};
  const Ensemble src = random_box_points(ct + Vec3{3, 0, 1} * kW, 2 * kW, 15, 14);
  CoeffVec l(k->l_count(kLevel), cdouble{});
  k->s2l_acc(src.pts, src.q, ct, kLevel, l);
  const Vec3 x = ct + Vec3{0.01, -0.02, 0.03};
  const Vec3 gl = k->l2t_grad(l, ct, kLevel, x);
  auto phi = [&](const Vec3& p) { return k->l2t(l, ct, kLevel, p); };
  EXPECT_NEAR(gl.x, (phi(x + Vec3{h, 0, 0}) - phi(x - Vec3{h, 0, 0})) / (2 * h), 1e-4);
  EXPECT_NEAR(gl.y, (phi(x + Vec3{0, h, 0}) - phi(x - Vec3{0, h, 0})) / (2 * h), 1e-4);
  EXPECT_NEAR(gl.z, (phi(x + Vec3{0, 0, h}) - phi(x - Vec3{0, 0, h})) / (2 * h), 1e-4);
}

TEST(CountingKernel, EveryOperatorPreservesTheCount) {
  auto k = make_kernel("counting");
  k->setup(1.0, 4, 3);
  const std::vector<Vec3> pts{{0.1, 0.1, 0.1}, {0.2, 0.2, 0.2}, {0.3, 0.1, 0.2}};
  const std::vector<double> q{1.0, 1.0, 1.0};
  CoeffVec m;
  k->s2m(pts, q, {0.15, 0.15, 0.15}, 3, m);
  EXPECT_DOUBLE_EQ(m[0].real(), 3.0);
  CoeffVec mp(1, cdouble{});
  k->m2m_acc(m, {}, {}, 3, mp);
  CoeffVec x;
  k->m2i(mp, 3, Axis::kPlusY, x);
  CoeffVec xin(1, cdouble{});
  k->i2i_acc(x, Axis::kPlusY, {0, 0.5, 0}, 3, xin);
  CoeffVec l(1, cdouble{});
  k->i2l_acc(xin, Axis::kPlusY, 3, l);
  CoeffVec lc(1, cdouble{});
  k->l2l_acc(l, {}, {}, 4, lc);
  EXPECT_DOUBLE_EQ(k->l2t(lc, {}, 4, {0.9, 0.9, 0.9}), 3.0);
  EXPECT_DOUBLE_EQ(k->m2t(mp, {}, 3, {0.9, 0.9, 0.9}), 3.0);
}

// Counting's batched near field sums the batch's charges once.  With
// direct() == 1 that is the base class's pair loop bit for bit, for any
// charges, batch sizes (empty ones included) and accumulator contents.
TEST(CountingKernel, S2tBatchMatchesPairLoop) {
  const CountingKernel k;
  Rng rng(17);
  const std::size_t sizes[][2] = {{0, 5},  {7, 0},  {0, 0},
                                  {1, 1},  {13, 9}, {60, 40}};
  for (const auto& [ns, nt] : sizes) {
    for (const bool grad : {false, true}) {
      std::vector<double> sx(ns), sy(ns), sz(ns), sq(ns);
      for (std::size_t j = 0; j < ns; ++j) {
        sx[j] = rng.uniform();
        sy[j] = rng.uniform();
        sz[j] = rng.uniform();
        sq[j] = rng.uniform(-1.0, 1.0);
      }
      std::vector<double> tx(nt), ty(nt), tz(nt), start(4 * nt);
      for (std::size_t i = 0; i < nt; ++i) {
        tx[i] = rng.uniform();
        ty[i] = rng.uniform();
        tz[i] = rng.uniform();
      }
      for (double& v : start) v = rng.uniform(-2.0, 2.0);
      if (nt > 0) {
        // -0.0 + 0.0 is +0.0: phi[0] and ax[0] see whether a zero is added.
        start[0] = -0.0;
        start[nt] = -0.0;
      }
      // phi, ax, ay, az after one batch, through the override or the base.
      auto run = [&](bool base) {
        std::vector<double> acc = start;
        simd::P2PBatch b;
        b.tx = tx.data();
        b.ty = ty.data();
        b.tz = tz.data();
        b.nt = nt;
        b.sx = sx.data();
        b.sy = sy.data();
        b.sz = sz.data();
        b.sq = sq.data();
        b.ns = ns;
        b.phi = acc.data();
        if (grad) {
          b.ax = acc.data() + nt;
          b.ay = acc.data() + 2 * nt;
          b.az = acc.data() + 3 * nt;
        }
        if (base) {
          k.Kernel::s2t_batch(b);
        } else {
          k.s2t_batch(b);
        }
        return acc;
      };
      const std::vector<double> got = run(false);
      const std::vector<double> want = run(true);
      ASSERT_EQ(got.size(), want.size());
      // Bitwise: a zero of the other sign differs.
      EXPECT_TRUE(got.empty() || std::memcmp(got.data(), want.data(),
                                             got.size() * sizeof(double)) == 0)
          << "ns " << ns << " nt " << nt << " grad " << grad;
    }
  }
}

TEST(KernelFactory, RejectsUnknownNames) {
  EXPECT_THROW(make_kernel("helmholtz"), config_error);
}

}  // namespace
}  // namespace amtfmm
