#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "kernels/kernel.hpp"
#include "math/m2l_rotation.hpp"
#include "support/rng.hpp"

namespace amtfmm {
namespace {

constexpr double kDomain = 1.0;
constexpr int kMaxLevel = 3;
constexpr int kLevel = 3;
constexpr double kW = kDomain / 8;  // box size at kLevel

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

/// The 316 integer offsets with Chebyshev distance >= 2 that an M2L edge
/// can take between same-level boxes of an MAC-2 interaction list.
std::vector<Vec3> m2l_offsets() {
  std::vector<Vec3> out;
  for (int x = -3; x <= 3; ++x) {
    for (int y = -3; y <= 3; ++y) {
      for (int z = -3; z <= 3; ++z) {
        if (std::max({std::abs(x), std::abs(y), std::abs(z)}) < 2) continue;
        out.push_back(Vec3{static_cast<double>(x), static_cast<double>(y),
                           static_cast<double>(z)});
      }
    }
  }
  return out;
}

double max_abs(const CoeffVec& v) {
  double m = 0.0;
  for (const cdouble& c : v) m = std::max(m, std::abs(c));
  return m;
}

TEST(M2LRotationSet, CoversAll316WellSeparatedOffsets) {
  const M2LRotationSet set(9);
  const auto offsets = m2l_offsets();
  ASSERT_EQ(offsets.size(), 316u);
  for (const Vec3& o : offsets) {
    const M2LDirection& dir = set.find(o * kW, kW);
    EXPECT_NEAR(set.dist(dir.dist_class), o.norm(), 1e-14)
        << "(" << o.x << ", " << o.y << ", " << o.z << ")";
    // The snap absorbs centre rounding far below its 1e-3 box tolerance.
    EXPECT_EQ(&set.find(o * kW + Vec3{1e-6, -1e-6, 1e-6} * kW, kW), &dir);
  }
}

// No M2L edge of an FMM DAG is adjacent, off the box grid or beyond three
// boxes, so such an offset is a bug upstream: the set dies on it instead
// of handing it to a slower path.
TEST(M2LRotationSetDeathTest, RejectsUntabulatedOffsets) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const M2LRotationSet set(9);
  EXPECT_DEATH(set.find(Vec3{kW, 0, 0}, kW), "adjacent");
  EXPECT_DEATH(set.find(Vec3{0, 0, 0}, kW), "adjacent");
  EXPECT_DEATH(set.find(Vec3{2.5 * kW, 0, 0}, kW), "off the box grid");
  EXPECT_DEATH(set.find(Vec3{2 * kW, 0, 1.01 * kW}, kW), "off the box grid");
  EXPECT_DEATH(set.find(Vec3{4 * kW, 0, 0}, kW), "beyond 3 boxes");
  EXPECT_DEATH(set.find(Vec3{0, -3 * kW, 1e9 * kW}, kW), "beyond 3 boxes");
  EXPECT_DEATH(M2LRotationSet().find(Vec3{2 * kW, 0, 0}, kW), "before it");
}

// The rotation-based Laplace M2L is algebraically exact (rotations from
// the Wigner D-matrix recurrence, axial table in closed form), so it must
// agree with the dense double sum to rounding.
TEST(LaplaceM2LRotation, MatchesNaiveToMachinePrecision) {
  const auto offsets = m2l_offsets();
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  for (int digits = 1; digits <= 3; ++digits) {  // p = 3, 6, 9
    auto k = make_kernel("laplace");
    k->setup(kDomain, kMaxLevel, digits);
    const Ensemble src = random_box_points(cs, kW, 40, 7u + digits);
    CoeffVec m;
    k->s2m(src.pts, src.q, cs, kLevel, m);
    for (const Vec3& o : offsets) {
      const Vec3 ct = cs + o * kW;
      CoeffVec naive(k->l_count(kLevel), cdouble{});
      k->set_m2l_mode(M2LMode::kNaive);
      k->m2l_acc(m, cs, ct, kLevel, naive);
      CoeffVec rotated(k->l_count(kLevel), cdouble{});
      k->set_m2l_mode(M2LMode::kRotation);
      k->m2l_acc(m, cs, ct, kLevel, rotated);
      const double tol = 1e-12 * (1.0 + max_abs(naive));
      for (std::size_t i = 0; i < naive.size(); ++i) {
        ASSERT_NEAR(std::abs(rotated[i] - naive[i]), 0.0, tol)
            << "p=" << 3 * digits << " offset (" << o.x << ", " << o.y << ", "
            << o.z << ") coeff " << i;
      }
    }
  }
}

// Rotation mode (the default) dies on an offset no FMM DAG emits — off
// the grid, adjacent, or beyond three boxes — for both kernels, while
// kNaive still takes any translation.
class M2LRotationDeathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(M2LRotationDeathTest, UntabulatedOffsetsAbortInRotationMode) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto k = make_kernel(GetParam(), /*yukawa_lambda=*/2.0);
  k->setup(kDomain, kMaxLevel, 3);
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  const Ensemble src = random_box_points(cs, kW, 40, 11);
  CoeffVec m;
  k->s2m(src.pts, src.q, cs, kLevel, m);
  CoeffVec l(k->l_count(kLevel), cdouble{});
  const Vec3 off_grid = cs + Vec3{2.37 * kW, 0.11 * kW, -1.02 * kW};
  const Vec3 adjacent = cs + Vec3{kW, -kW, 0};
  const Vec3 distant = cs + Vec3{0, 4 * kW, 2 * kW};
  EXPECT_DEATH(k->m2l_acc(m, cs, off_grid, kLevel, l), "off the box grid");
  EXPECT_DEATH(k->m2l_acc(m, cs, adjacent, kLevel, l), "adjacent");
  EXPECT_DEATH(k->m2l_acc(m, cs, distant, kLevel, l), "beyond 3 boxes");
  k->set_m2l_mode(M2LMode::kNaive);
  k->m2l_acc(m, cs, off_grid, kLevel, l);
  EXPECT_GT(max_abs(l), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Kernels, M2LRotationDeathTest,
                         ::testing::Values("laplace", "yukawa"));

// The naive Yukawa M2L is itself numerical (sphere sampling + projection
// with orientation-dependent aliasing at the working accuracy), so parity
// is only meaningful at the kernel's accuracy target eps = 10^{-digits-1},
// not at machine precision as for Laplace.
TEST(YukawaM2LRotation, AgreesWithNaiveProjection) {
  const auto offsets = m2l_offsets();
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  for (int digits = 2; digits <= 3; ++digits) {
    const double eps = std::pow(10.0, -digits - 1);
    auto k = make_kernel("yukawa", /*yukawa_lambda=*/2.0);
    k->setup(kDomain, kMaxLevel, digits);
    const Ensemble src = random_box_points(cs, kW, 40, 23u + digits);
    CoeffVec m;
    k->s2m(src.pts, src.q, cs, kLevel, m);
    for (const Vec3& o : offsets) {
      const Vec3 ct = cs + o * kW;
      CoeffVec naive(k->l_count(kLevel), cdouble{});
      k->set_m2l_mode(M2LMode::kNaive);
      k->m2l_acc(m, cs, ct, kLevel, naive);
      CoeffVec rotated(k->l_count(kLevel), cdouble{});
      k->set_m2l_mode(M2LMode::kRotation);
      k->m2l_acc(m, cs, ct, kLevel, rotated);
      const double tol = 20.0 * eps * (1.0 + max_abs(naive));
      for (std::size_t i = 0; i < naive.size(); ++i) {
        ASSERT_NEAR(std::abs(rotated[i] - naive[i]), 0.0, tol)
            << "p=" << 3 * digits << " offset (" << o.x << ", " << o.y << ", "
            << o.z << ") coeff " << i;
      }
    }
  }
}

// Independent ground truth: S2M -> rotated M2L -> L2T against direct
// summation, for every direction class.  This catches errors that the
// naive-parity test can't (both paths sharing a wrong convention).
TEST(YukawaM2LRotation, MatchesDirectSummation) {
  const auto offsets = m2l_offsets();
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  const int digits = 3;
  const double eps = std::pow(10.0, -digits);
  auto k = make_kernel("yukawa", /*yukawa_lambda=*/2.0);
  k->setup(kDomain, kMaxLevel, digits);
  const Ensemble src = random_box_points(cs, kW, 40, 31);
  CoeffVec m;
  k->s2m(src.pts, src.q, cs, kLevel, m);
  Rng rng(5);
  for (const Vec3& o : offsets) {
    const Vec3 ct = cs + o * kW;
    CoeffVec local(k->l_count(kLevel), cdouble{});
    k->m2l_acc(m, cs, ct, kLevel, local);  // default mode: rotation
    for (int trial = 0; trial < 4; ++trial) {
      const Vec3 t = ct + Vec3{rng.uniform(-0.5, 0.5) * kW,
                               rng.uniform(-0.5, 0.5) * kW,
                               rng.uniform(-0.5, 0.5) * kW};
      double direct = 0.0;
      for (std::size_t i = 0; i < src.pts.size(); ++i) {
        direct += src.q[i] * k->direct(t, src.pts[i]);
      }
      const double fmm = k->l2t(local, ct, kLevel, t);
      ASSERT_NEAR(fmm, direct, 5.0 * eps * (1.0 + std::abs(direct)))
          << "offset (" << o.x << ", " << o.y << ", " << o.z << ")";
    }
  }
}

// Same ground-truth closure for Laplace.
TEST(LaplaceM2LRotation, MatchesDirectSummation) {
  const auto offsets = m2l_offsets();
  const Vec3 cs{0.3125, 0.3125, 0.3125};
  const int digits = 3;
  const double eps = std::pow(10.0, -digits);
  auto k = make_kernel("laplace");
  k->setup(kDomain, kMaxLevel, digits);
  const Ensemble src = random_box_points(cs, kW, 40, 37);
  CoeffVec m;
  k->s2m(src.pts, src.q, cs, kLevel, m);
  Rng rng(6);
  for (const Vec3& o : offsets) {
    const Vec3 ct = cs + o * kW;
    CoeffVec local(k->l_count(kLevel), cdouble{});
    k->m2l_acc(m, cs, ct, kLevel, local);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec3 t = ct + Vec3{rng.uniform(-0.5, 0.5) * kW,
                               rng.uniform(-0.5, 0.5) * kW,
                               rng.uniform(-0.5, 0.5) * kW};
      double direct = 0.0;
      for (std::size_t i = 0; i < src.pts.size(); ++i) {
        direct += src.q[i] * k->direct(t, src.pts[i]);
      }
      const double fmm = k->l2t(local, ct, kLevel, t);
      ASSERT_NEAR(fmm, direct, 5.0 * eps * (1.0 + std::abs(direct)))
          << "offset (" << o.x << ", " << o.y << ", " << o.z << ")";
    }
  }
}

}  // namespace
}  // namespace amtfmm
