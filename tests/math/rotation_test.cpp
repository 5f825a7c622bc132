#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numbers>
#include <numeric>
#include <tuple>

#include "math/gauss.hpp"
#include "math/rotation.hpp"
#include "math/special.hpp"
#include "math/sphere.hpp"
#include "support/rng.hpp"

namespace amtfmm {
namespace {

constexpr int kMaxP = 30;

Vec3 random_unit(Rng& rng) {
  const double ct = rng.uniform(-1, 1);
  const double st = std::sqrt(1 - ct * ct);
  const double phi = rng.uniform(0, 6.283185307179586);
  return {st * std::cos(phi), st * std::sin(phi), ct};
}

/// Uniformly random rotation from a random unit quaternion.
Mat3 random_rotation(Rng& rng) {
  double w, x, y, z, n2;
  do {
    w = rng.uniform(-1, 1);
    x = rng.uniform(-1, 1);
    y = rng.uniform(-1, 1);
    z = rng.uniform(-1, 1);
    n2 = w * w + x * x + y * y + z * z;
  } while (n2 > 1.0 || n2 < 1e-3);
  const double s = 1.0 / std::sqrt(n2);
  w *= s, x *= s, y *= s, z *= s;
  return Mat3{{1 - 2 * (y * y + z * z), 2 * (x * y - w * z),
               2 * (x * z + w * y), 2 * (x * y + w * z),
               1 - 2 * (x * x + z * z), 2 * (y * z - w * x),
               2 * (x * z - w * y), 2 * (y * z + w * x),
               1 - 2 * (x * x + y * y)}};
}

/// The twelve axis maps: Q and Q^T for each of the six directions.
std::vector<Mat3> axis_rotations() {
  std::vector<Mat3> out;
  for (Axis d : kAllAxes) {
    out.push_back(axis_to_z(d));
    out.push_back(axis_to_z(d).transpose());
  }
  return out;
}

/// The polar rotations of M2LRotationSet for every distinct polar angle of
/// the offsets nu with |nu_i| <= 3 and max |nu_i| >= 2, keyed as the set
/// keys them: its forward R_y(-theta), or with `inverse` its R_y(theta).
std::vector<Mat3> polar_rotations(bool inverse) {
  std::map<std::tuple<int, int, int>, Mat3> classes;
  for (int x = -3; x <= 3; ++x) {
    for (int y = -3; y <= 3; ++y) {
      for (int z = -3; z <= 3; ++z) {
        if (std::max({std::abs(x), std::abs(y), std::abs(z)}) < 2) continue;
        const int n2 = x * x + y * y + z * z;
        const int g = std::gcd(z * z, n2);
        const auto key = std::make_tuple((z > 0) - (z < 0), z * z / g, n2 / g);
        const double norm = std::sqrt(static_cast<double>(n2));
        const Mat3 ry = rotation_y(
            z / norm, -std::sqrt(static_cast<double>(x * x + y * y)) / norm);
        classes.try_emplace(key, inverse ? ry.transpose() : ry);
      }
    }
  }
  std::vector<Mat3> out;
  for (const auto& [key, q] : classes) out.push_back(q);
  return out;
}

/// c_{n,k} = sqrt((n+k)!/(n-k)!): E^n_{m,m'} c_{n,|m'|} / c_{n,|m|} is a
/// Wigner D-matrix entry up to sign, so |.| <= 1 (the unit-normalized
/// basis).
double cnk(int n, int k) {
  return std::sqrt(factorial(n + std::abs(k)) / factorial(n - std::abs(k)));
}

using Blocks = std::vector<std::vector<cdouble>>;

/// X_k = sum_j x_j e^{-2 pi i jk/N} in place, N a power of two.
void fft(std::vector<cdouble>& x, const std::vector<cdouble>& twiddle) {
  const std::size_t n = x.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2, step = n / len;
    for (std::size_t i = 0; i < n; i += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const cdouble u = x[i + k], v = x[i + k + half] * twiddle[k * step];
        x[i + k] = u + v;
        x[i + k + half] = u - v;
      }
    }
  }
}

/// Sphere-rule projection oracle (the construction the recurrence
/// replaced):
///   E^n_{m,m'} = sum_q A_n^m(Q^T dir_q) conj(A_n^{m'}(dir_q)) w_q / N_nm',
/// N_nm = 4 pi / (2n+1) (n+|m|)!/(n-|m|)!, exact because the integrand has
/// degree 2n <= 2p: the product rule of p+1 Gauss-Legendre rings in
/// cos(theta) and 64 uniform azimuths integrates it exactly for p <= 31.
/// Since conj(A_n^{m'}(dir)) = P_n^{|m'|}(cos theta) e^{-i m' phi}, each
/// ring's azimuth sums are one FFT per (n, m), which keeps the oracle at
/// O(p^4 log p) instead of the O(p^5) of summing node by node.  blocks[n]
/// is (2n+1)^2 row-major, index (m+n, m'+n), AngularTransform's layout.
Blocks projected_blocks(int p, const Mat3& q) {
  constexpr std::size_t kPhi = 64;
  constexpr int kPhiInt = static_cast<int>(kPhi);
  const double dphi = 2.0 * std::numbers::pi / kPhi;
  std::vector<cdouble> twiddle(kPhi / 2);
  for (std::size_t k = 0; k < twiddle.size(); ++k) {
    twiddle[k] = std::polar(1.0, -dphi * static_cast<double>(k));
  }
  const Mat3 qt = q.transpose();
  const Quadrature gl = gauss_legendre(p + 1);
  Blocks blocks(static_cast<std::size_t>(p) + 1);
  for (int n = 0; n <= p; ++n) {
    blocks[static_cast<std::size_t>(n)].assign(
        static_cast<std::size_t>((2 * n + 1) * (2 * n + 1)), cdouble{});
  }
  std::vector<CoeffVec> rotated(kPhi);  // A(Q^T dir) around one ring
  std::vector<cdouble> f(kPhi);
  std::vector<double> leg, scale(static_cast<std::size_t>(p) + 1);
  for (std::size_t i = 0; i < gl.x.size(); ++i) {
    const double ct = gl.x[i], st = std::sqrt(1.0 - ct * ct);
    for (std::size_t j = 0; j < kPhi; ++j) {
      const double phi = dphi * static_cast<double>(j);
      angular_basis(p, qt * Vec3{st * std::cos(phi), st * std::sin(phi), ct},
                    rotated[j]);
    }
    legendre_table(p, ct, leg);
    for (int n = 0; n <= p; ++n) {
      auto& block = blocks[static_cast<std::size_t>(n)];
      const std::size_t w = static_cast<std::size_t>(2 * n + 1);
      for (int k = 0; k <= n; ++k) {  // w_q P_n^k(cos theta) / N_nk
        scale[static_cast<std::size_t>(k)] =
            gl.w[i] * dphi * leg[tri_index(n, k)] * (2 * n + 1) /
            (4.0 * std::numbers::pi) * factorial(n - k) / factorial(n + k);
      }
      for (int m = 0; m <= n; ++m) {
        for (std::size_t j = 0; j < kPhi; ++j) {
          f[j] = rotated[j][sq_index(n, m)];
        }
        fft(f, twiddle);
        // A_n^{-m} = conj(A_n^m): row -m is row m conjugated and reversed.
        cdouble* row = block.data() + static_cast<std::size_t>(m + n) * w;
        cdouble* mirror = block.data() + static_cast<std::size_t>(n - m) * w;
        for (int mp = -n; mp <= n; ++mp) {
          const cdouble v = f[static_cast<std::size_t>(mp + kPhiInt) % kPhi] *
                            scale[static_cast<std::size_t>(std::abs(mp))];
          row[mp + n] += v;
          if (m > 0) mirror[n - mp] += std::conj(v);
        }
      }
    }
  }
  return blocks;
}

/// Largest unit-normalized difference |E - E_oracle| c_{n,|m'|} / c_{n,|m|}
/// over every p in 1..kMaxP and every degree n <= p, reading each
/// recurrence-built transform's blocks through apply() on unit inputs
/// (g = 1, s = +1: input 1 at (n, m) for every n returns row m of every
/// block).
double worst_block_error(const Mat3& q, const Blocks& oracle) {
  double worst = 0.0;
  for (int p = 1; p <= kMaxP; ++p) {
    const AngularTransform xf(p, q);
    const std::vector<double> g(sq_count(p), 1.0);
    CoeffVec in(sq_count(p)), out;
    for (int m = -p; m <= p; ++m) {
      std::fill(in.begin(), in.end(), cdouble{});
      for (int n = std::abs(m); n <= p; ++n) in[sq_index(n, m)] = 1.0;
      xf.apply(in, g, 1, out);
      for (int n = std::abs(m); n <= p; ++n) {
        const auto& block = oracle[static_cast<std::size_t>(n)];
        const std::size_t w = static_cast<std::size_t>(2 * n + 1);
        for (int mp = -n; mp <= n; ++mp) {
          const cdouble ref =
              block[static_cast<std::size_t>(m + n) * w +
                    static_cast<std::size_t>(mp + n)];
          const double err = std::abs(out[sq_index(n, mp)] - ref) *
                             cnk(n, mp) / cnk(n, m);
          worst = std::max(worst, err);
        }
      }
    }
  }
  return worst;
}

double worst_over(const std::vector<Mat3>& rotations) {
  double worst = 0.0;
  for (const Mat3& q : rotations) {
    worst = std::max(worst, worst_block_error(q, projected_blocks(kMaxP, q)));
  }
  return worst;
}

TEST(AxisMaps, TakeAxisToPlusZ) {
  for (Axis d : kAllAxes) {
    const Mat3 q = axis_to_z(d);
    const Vec3 img = q * axis_vector(d);
    EXPECT_NEAR(img.x, 0.0, 1e-15);
    EXPECT_NEAR(img.y, 0.0, 1e-15);
    EXPECT_NEAR(img.z, 1.0, 1e-15);
    // Orthogonality: Q^T Q = I on basis vectors.
    const Mat3 qt = q.transpose();
    for (const Vec3& e : {Vec3{1, 0, 0}, Vec3{0, 1, 0}, Vec3{0, 0, 1}}) {
      const Vec3 r = qt * (q * e);
      EXPECT_NEAR((r - e).norm(), 0.0, 1e-15);
    }
  }
}

// The recurrence-built blocks against the projection oracle, in the
// unit-normalized basis where every entry is at most 1, for every p in
// 1..30.  Worst differences observed (gcc 12, x86-64): axis maps 8.3e-15,
// polar classes 8.6e-15 (either direction), random rotations 1.7e-14,
// nearly degenerate Euler angles 1.7e-14.
TEST(AngularTransformOracle, AxisMapsMatchProjection) {
  const double worst = worst_over(axis_rotations());
  EXPECT_LT(worst, 1e-12);
  std::printf("axis maps: worst unit-normalized difference %.3g\n", worst);
}

TEST(AngularTransformOracle, PolarClassesMatchProjection) {
  const std::vector<Mat3> forward = polar_rotations(false);
  ASSERT_EQ(forward.size(), 49u);
  const double worst = worst_over(forward);
  EXPECT_LT(worst, 1e-12);
  std::printf("polar R_y(-theta): worst unit-normalized difference %.3g\n",
              worst);
}

TEST(AngularTransformOracle, InversePolarClassesMatchProjection) {
  const std::vector<Mat3> inverse = polar_rotations(true);
  ASSERT_EQ(inverse.size(), 49u);
  const double worst = worst_over(inverse);
  EXPECT_LT(worst, 1e-12);
  std::printf("polar R_y(theta): worst unit-normalized difference %.3g\n",
              worst);
}

TEST(AngularTransformOracle, RandomRotationsMatchProjection) {
  Rng rng(2015);
  std::vector<Mat3> rotations;
  for (int i = 0; i < 20; ++i) rotations.push_back(random_rotation(rng));
  const double worst = worst_over(rotations);
  EXPECT_LT(worst, 1e-12);
  std::printf("random rotations: worst unit-normalized difference %.3g\n",
              worst);
}

// Near beta = 0 only alpha + gamma is well determined, near beta = pi
// only alpha - gamma.  Each rotation here is R (R^T C) for a random R, so
// Q's small entries carry ~1e-16 of absolute rounding, as a product of
// rotations does, and an Euler split read off Q's third row and column
// would lose digits in alpha and gamma separately.
TEST(AngularTransformOracle, NearlyDegenerateEulerAnglesMatchProjection) {
  auto mul = [](const Mat3& x, const Mat3& y) {
    Mat3 r;
    for (int i = 0; i < 3; ++i) {
      for (int j = 0; j < 3; ++j) {
        double acc = 0.0;
        for (int k = 0; k < 3; ++k) acc += x.a[3 * i + k] * y.a[3 * k + j];
        r.a[3 * i + j] = acc;
      }
    }
    return r;
  };
  auto rz = [](double a) {
    return Mat3{{std::cos(a), -std::sin(a), 0, std::sin(a), std::cos(a), 0, 0,
                 0, 1}};
  };
  Rng rng(16);
  std::vector<Mat3> rotations;
  for (const double beta : {1e-12, 1e-6, std::numbers::pi - 1e-6,
                            std::numbers::pi - 1e-12}) {
    const Mat3 c = mul(
        mul(rz(0.7), rotation_y(std::cos(beta), std::sin(beta))), rz(-2.1));
    const Mat3 r = random_rotation(rng);
    rotations.push_back(mul(r, mul(r.transpose(), c)));
  }
  const double worst = worst_over(rotations);
  EXPECT_LT(worst, 1e-12);
  std::printf("near-degenerate beta: worst unit-normalized difference %.3g\n",
              worst);
}

TEST(AngularTransformDeathTest, RejectsReflections) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const Mat3 mirror{{1, 0, 0, 0, 1, 0, 0, 0, -1}};  // z -> -z
  const Mat3 swap_xz{{0, 0, 1, 0, 1, 0, 1, 0, 0}};  // x <-> z
  EXPECT_DEATH(AngularTransform(3, mirror), "proper rotation");
  EXPECT_DEATH(AngularTransform(3, swap_xz), "proper rotation");
}

/// Rotations exercised by the field and inverse tests: the twelve axis
/// maps and both directions of every polar class.
std::vector<Mat3> axis_and_polar_rotations() {
  std::vector<Mat3> out = axis_rotations();
  for (const bool inverse : {false, true}) {
    for (const Mat3& q : polar_rotations(inverse)) out.push_back(q);
  }
  return out;
}

/// Basis weights of the field tests: g = 1/(n+|m|)! (multipole-like) and
/// the unit-normalized g = 1/c_{n,|m|}, under which every degree up to
/// p = 30 contributes at order one.
std::vector<std::vector<double>> test_weights(int p) {
  std::vector<double> fact(sq_count(p)), unit(sq_count(p));
  for (int n = 0; n <= p; ++n) {
    for (int m = -n; m <= n; ++m) {
      fact[sq_index(n, m)] = 1.0 / factorial(n + std::abs(m));
      unit[sq_index(n, m)] = 1.0 / cnk(n, m);
    }
  }
  return {fact, unit};
}

/// The transforms must satisfy A_n^m(Q^T dir) = sum_{m'} E_{m,m'}
/// A_n^{m'}(dir) — checked implicitly by transforming a full expansion and
/// evaluating both sides of Phi'(x) = Phi(Q^T x) at random directions, with
/// nontrivial basis weights and both azimuthal orientations (s = +1
/// multipole-type, s = -1 local-type).
TEST(AngularTransform, FieldTransformationBothBasisKinds) {
  Rng rng(5);
  for (const int p : {7, kMaxP}) {
    CoeffVec coeffs(sq_count(p));
    for (auto& c : coeffs) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    for (const std::vector<double>& g : test_weights(p)) {
      for (const Mat3& q : axis_and_polar_rotations()) {
        const AngularTransform xf(p, q);
        for (int s : {1, -1}) {
          CoeffVec out;
          xf.apply(coeffs, g, s, out);
          auto eval = [&](const CoeffVec& c, const Vec3& dir) {
            CoeffVec basis;
            angular_basis(p, dir, basis);
            cdouble acc{};
            for (int n = 0; n <= p; ++n)
              for (int m = -n; m <= n; ++m)
                acc += c[sq_index(n, m)] * g[sq_index(n, m)] *
                       basis[sq_index(n, s * m)];
            return acc;
          };
          for (int trial = 0; trial < 5; ++trial) {
            const Vec3 dir = random_unit(rng);
            const cdouble lhs = eval(out, dir);
            const cdouble rhs = eval(coeffs, q.transpose() * dir);
            ASSERT_NEAR(std::abs(lhs - rhs), 0.0, 1e-10)
                << "p=" << p << " s=" << s;
          }
        }
      }
    }
  }
}

TEST(AngularTransform, InverseComposesToIdentity) {
  Rng rng(31);
  for (const int p : {5, kMaxP}) {
    CoeffVec coeffs(sq_count(p));
    for (auto& c : coeffs) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
    // g = 1 keeps the raw blocks, whose entries span c_{n,|m|} ratios up
    // to ~1e40 at p = 30; composing those cancels away every digit, so
    // the high order composes in the unit-normalized basis instead.
    const std::vector<double> g =
        p <= 5 ? std::vector<double>(sq_count(p), 1.0) : test_weights(p)[1];
    for (const Mat3& q : axis_and_polar_rotations()) {
      const AngularTransform fwd(p, q);
      const AngularTransform inv(p, q.transpose());
      for (int s : {1, -1}) {
        CoeffVec mid, back;
        fwd.apply(coeffs, g, s, mid);
        inv.apply(mid, g, s, back);
        for (std::size_t i = 0; i < coeffs.size(); ++i) {
          ASSERT_NEAR(std::abs(back[i] - coeffs[i]), 0.0, 1e-11)
              << "p=" << p << " s=" << s << " coeff " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace amtfmm
