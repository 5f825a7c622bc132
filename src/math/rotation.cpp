#include "math/rotation.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/simd/simd.hpp"
#include "math/special.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

namespace {

/// Active ZYZ factorization Q = R_z(alpha) R_y(beta) R_z(gamma), with beta
/// kept as its half-angle cosine and sine.  Q's third column is
/// (cos alpha sin beta, sin alpha sin beta, cos beta).  Near beta = 0 only
/// alpha + gamma is well determined, near beta = pi only alpha - gamma, so
/// gamma is taken from that combination rather than from Q's third row:
/// the D-matrix then stays accurate however small sin(beta) is, and
/// beta = 0 and beta = pi exactly fall out with alpha = 0.
struct EulerZyz {
  double alpha = 0.0;
  double gamma = 0.0;
  double cos_half = 1.0;  // cos(beta / 2)
  double sin_half = 0.0;  // sin(beta / 2)
};

EulerZyz euler_zyz(const Mat3& q) {
  const auto& a = q.a;
  EulerZyz e;
  const double cb = std::clamp(a[8], -1.0, 1.0);
  const double sb = std::hypot(a[2], a[5]);
  e.alpha = (sb > 0.0) ? std::atan2(a[5], a[2]) : 0.0;
  if (cb >= 0.0) {
    // Q00 + Q11 = (1 + cos b) cos(a + g), Q10 - Q01 = (1 + cos b) sin(a + g)
    e.cos_half = std::sqrt(0.5 * (1.0 + cb));
    e.sin_half = 0.5 * sb / e.cos_half;
    e.gamma = std::atan2(a[3] - a[1], a[0] + a[4]) - e.alpha;
  } else {
    // Q11 - Q00 = (1 - cos b) cos(a - g), -(Q10 + Q01) = (1 - cos b)
    // sin(a - g)
    e.sin_half = std::sqrt(0.5 * (1.0 - cb));
    e.cos_half = 0.5 * sb / e.sin_half;
    e.gamma = e.alpha - std::atan2(-(a[3] + a[1]), a[4] - a[0]);
  }
  return e;
}

double det(const Mat3& q) {
  const auto& a = q.a;
  return a[0] * (a[4] * a[8] - a[5] * a[7]) -
         a[1] * (a[3] * a[8] - a[5] * a[6]) +
         a[2] * (a[3] * a[7] - a[4] * a[6]);
}

}  // namespace

AngularTransform::AngularTransform(int p, const Mat3& q) : p_(p) {
  AMTFMM_ASSERT(p >= 0);
  AMTFMM_ASSERT_MSG(std::abs(det(q) - 1.0) < 1e-9,
                    "AngularTransform needs a proper rotation (det Q = +1)");
  // With the unit-normalized harmonics Y_n^m = A_n^m sigma_m / c_{n,|m|}
  // (up to a factor common to degree n), c_{n,k} = sqrt((n+k)!/(n-k)!),
  // sigma_m = (-1)^m for m >= 0 and 1 for m < 0, rotation acts by the
  // Wigner D-matrix, Y_n^m(Q^T x) = sum_{m'} D^n_{m'm}(Q) Y_n^{m'}(x), so
  //   E^n_{m,m'} = c_{n,|m|} sigma_m / (c_{n,|m'|} sigma_{m'}) D^n_{m'm}(Q),
  //   D^n_{m'm} = e^{-i m' alpha} d^n_{m'm}(beta) e^{-i m gamma}.
  // d^j(beta) comes from Risbo's recurrence, which couples d^{j-1/2} with
  // the spin-1/2 matrix d^{1/2}(beta) through the stretched Clebsch-Gordan
  // coefficients sqrt((j +- m)/2j).  Every step is a contraction, so the
  // error grows only linearly in j (no factorial sums, no cancellation),
  // and the 2p half-steps to degree p cost O(p^3) in all.
  const EulerZyz e = euler_zyz(q);
  const double c = e.cos_half, s = e.sin_half;
  const int jmax = 2 * p;  // twice the largest degree
  std::vector<double> root(static_cast<std::size_t>(jmax) + 1);
  for (int i = 0; i <= jmax; ++i) {
    root[static_cast<std::size_t>(i)] = std::sqrt(i);
  }
  std::vector<cdouble> phase_a(static_cast<std::size_t>(jmax) + 1);
  std::vector<cdouble> phase_g(phase_a.size());
  for (int m = -p; m <= p; ++m) {
    phase_a[static_cast<std::size_t>(m + p)] = std::polar(1.0, -m * e.alpha);
    phase_g[static_cast<std::size_t>(m + p)] = std::polar(1.0, -m * e.gamma);
  }
  // d^{J/2} as a (J+1) x (J+1) row-major table indexed (j + m', j + m).
  std::vector<double> prev{1.0}, cur;
  blocks_.resize(static_cast<std::size_t>(p) + 1);
  blocks_[0].assign(1, cdouble{1.0, 0.0});
  for (int J = 1; J <= jmax; ++J) {
    const auto w = static_cast<std::size_t>(J) + 1;
    const auto pw = static_cast<std::size_t>(J);
    cur.assign(w * w, 0.0);
    const double inv = 1.0 / J;
    for (std::size_t i = 0; i < w; ++i) {
      const double ri = root[i], rj = root[pw - i];
      for (std::size_t k = 0; k < w; ++k) {
        const double rk = root[k], rl = root[pw - k];
        double v = 0.0;
        if (i > 0 && k > 0) v += ri * rk * c * prev[(i - 1) * pw + k - 1];
        if (i > 0 && k < pw) v -= ri * rl * s * prev[(i - 1) * pw + k];
        if (i < pw && k > 0) v += rj * rk * s * prev[i * pw + k - 1];
        if (i < pw && k < pw) v += rj * rl * c * prev[i * pw + k];
        cur[i * w + k] = v * inv;
      }
    }
    std::swap(prev, cur);
    if (J % 2 != 0) continue;
    const int n = J / 2;
    // sc[m + n] = sigma_m c_{n,|m|}, so E^n_{m,m'} = sc_m / sc_m' D^n_{m'm}.
    std::vector<double> sc(w);
    for (int m = -n; m <= n; ++m) {
      const int k = std::abs(m);
      const double c_nk = std::sqrt(factorial(n + k) / factorial(n - k));
      sc[static_cast<std::size_t>(m + n)] = (m > 0 && (m & 1)) ? -c_nk : c_nk;
    }
    auto& block = blocks_[static_cast<std::size_t>(n)];
    block.resize(w * w);
    for (std::size_t row = 0; row < w; ++row) {  // m = row - n
      const cdouble pg = phase_g[row + static_cast<std::size_t>(p - n)];
      for (std::size_t col = 0; col < w; ++col) {  // m' = col - n
        const cdouble pa = phase_a[col + static_cast<std::size_t>(p - n)];
        block[row * w + col] =
            pa * prev[col * w + row] * pg * (sc[row] / sc[col]);
      }
    }
  }
}

void AngularTransform::apply(CoeffSpan in, const std::vector<double>& g,
                             int s, CoeffVec& out) const {
  AMTFMM_ASSERT(s == 1 || s == -1);
  AMTFMM_ASSERT(in.size() == sq_count(p_));
  out.assign(sq_count(p_), cdouble{});
  // out[n, mp] = sum_m in[n, m] g[n, m] E^n_{m, mp}.  For fixed m the
  // E-row over mp is contiguous in the block (ascending for s = +1,
  // descending for s = -1), so each m contributes one zaxpy over the row
  // and the order index becomes the vector dimension.  Per output entry
  // the m-summation order matches the scalar loop this replaces.
  auto acc_lease = ScratchArena::local().coeffs();
  auto& acc = *acc_lease;
  for (int n = 0; n <= p_; ++n) {
    const auto& block = blocks_[static_cast<std::size_t>(n)];
    const std::size_t w = static_cast<std::size_t>(2 * n + 1);
    acc.assign(w, cdouble{});
    for (int m = -n; m <= n; ++m) {
      const cdouble c = in[sq_index(n, m)] * g[sq_index(n, m)];
      if (c == cdouble{}) continue;
      const cdouble* row =
          block.data() + static_cast<std::size_t>(s * m + n) * w;
      simd::zaxpy(c, row, acc.data(), w);
    }
    for (std::size_t i = 0; i < w; ++i) {
      const int mp = s * (static_cast<int>(i) - n);
      out[sq_index(n, mp)] = acc[i] / g[sq_index(n, mp)];
    }
  }
}

Mat3 rotation_y(double cos_a, double sin_a) {
  return Mat3{{cos_a, 0, sin_a, 0, 1, 0, -sin_a, 0, cos_a}};
}

Mat3 axis_to_z(Axis d) {
  switch (d) {
    case Axis::kPlusZ:
      return Mat3{{1, 0, 0, 0, 1, 0, 0, 0, 1}};
    case Axis::kMinusZ:
      // Rotation by pi about x: (x, y, z) -> (x, -y, -z).
      return Mat3{{1, 0, 0, 0, -1, 0, 0, 0, -1}};
    case Axis::kPlusY:
      return Mat3{{1, 0, 0, 0, 0, -1, 0, 1, 0}};
    case Axis::kMinusY:
      return Mat3{{1, 0, 0, 0, 0, 1, 0, -1, 0}};
    case Axis::kPlusX:
      return Mat3{{0, 0, -1, 0, 1, 0, 1, 0, 0}};
    case Axis::kMinusX:
      return Mat3{{0, 0, 1, 0, 1, 0, -1, 0, 0}};
  }
  AMTFMM_ASSERT(false);
  return {};
}

Vec3 axis_vector(Axis d) {
  switch (d) {
    case Axis::kPlusZ: return {0, 0, 1};
    case Axis::kMinusZ: return {0, 0, -1};
    case Axis::kPlusY: return {0, 1, 0};
    case Axis::kMinusY: return {0, -1, 0};
    case Axis::kPlusX: return {1, 0, 0};
    case Axis::kMinusX: return {-1, 0, 0};
  }
  AMTFMM_ASSERT(false);
  return {};
}

}  // namespace amtfmm
