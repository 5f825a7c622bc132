#include "math/m2l_rotation.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <tuple>

#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {
namespace {

constexpr int kMaxOffset = 3;
constexpr int kLutSide = 2 * kMaxOffset + 1;

int lut_index(int x, int y, int z) {
  return (x + kMaxOffset) * kLutSide * kLutSide + (y + kMaxOffset) * kLutSide +
         (z + kMaxOffset);
}

}  // namespace

M2LRotationSet::M2LRotationSet(int p) : p_(p) {
  lut_.assign(kLutSide * kLutSide * kLutSide, -1);
  // Theta classes keyed by the exact rational (sign(nu_z) * nu_z^2 / |nu|^2)
  // in lowest terms, so offsets sharing a polar angle share one transform
  // pair regardless of azimuth.
  std::map<std::tuple<int, int, int>, int> theta_ix;
  std::map<int, int> dist_ix;  // |nu|^2 -> dist class
  for (int x = -kMaxOffset; x <= kMaxOffset; ++x) {
    for (int y = -kMaxOffset; y <= kMaxOffset; ++y) {
      for (int z = -kMaxOffset; z <= kMaxOffset; ++z) {
        const int cheb = std::max({std::abs(x), std::abs(y), std::abs(z)});
        if (cheb < 2) continue;  // adjacent boxes never take an M2L edge
        const int n2 = x * x + y * y + z * z;
        const int g = std::gcd(z * z, n2);
        const auto tkey = std::make_tuple((z > 0) - (z < 0), z * z / g, n2 / g);
        auto [tit, tnew] = theta_ix.try_emplace(
            tkey, static_cast<int>(thetas_.size()));
        if (tnew) {
          const double norm = std::sqrt(static_cast<double>(n2));
          const double ct = z / norm;
          const double st = std::sqrt(static_cast<double>(x * x + y * y)) / norm;
          const Mat3 ry = rotation_y(ct, -st);  // R_y(-theta)
          thetas_.emplace_back(AngularTransform(p, ry),
                               AngularTransform(p, ry.transpose()));
        }
        auto [dit, dnew] =
            dist_ix.try_emplace(n2, static_cast<int>(dists_.size()));
        if (dnew) dists_.push_back(std::sqrt(static_cast<double>(n2)));
        const double rxy = std::sqrt(static_cast<double>(x * x + y * y));
        const cdouble phase =
            (rxy > 0.0) ? cdouble{x / rxy, y / rxy} : cdouble{1.0, 0.0};
        lut_[static_cast<std::size_t>(lut_index(x, y, z))] =
            static_cast<int>(dirs_.size());
        dirs_.push_back({tit->second, dit->second, phase});
      }
    }
  }
}

const M2LDirection& M2LRotationSet::find(const Vec3& t, double box_size) const {
  AMTFMM_ASSERT_MSG(p_ >= 0, "M2LRotationSet used before it was built");
  const double inv_w = 1.0 / box_size;
  // Offsets are integers in box units, and a translation between boxes
  // off the shared grid or of different levels misses by at least 0.5,
  // while a centre difference carries ulp(|centre|) of rounding that 1/box
  // magnifies on deep, translated trees: a tolerance of 1e-3 box units
  // still catches every off-grid offset and sits far above that noise.
  auto snap = [inv_w](double v) {
    const double f = v * inv_w, r = std::nearbyint(f);
    AMTFMM_ASSERT_MSG(std::abs(f - r) < 1e-3, "M2L offset is off the box grid");
    AMTFMM_ASSERT_MSG(std::abs(r) <= kMaxOffset,
                      "M2L offset beyond 3 boxes (parents not adjacent)");
    return static_cast<int>(r);
  };
  const int ix = lut_[static_cast<std::size_t>(
      lut_index(snap(t.x), snap(t.y), snap(t.z)))];
  AMTFMM_ASSERT_MSG(ix >= 0, "M2L offset between adjacent boxes");
  return dirs_[static_cast<std::size_t>(ix)];
}

void M2LRotationSet::rotate_forward(const M2LDirection& dir,
                                    CoeffSpan in,
                                    const std::vector<double>& g, int s,
                                    CoeffVec& out) const {
  AMTFMM_ASSERT(in.size() == sq_count(p_));
  // E(Q) = E(R_z(-phi)) E(R_y(-theta)) and E(R_z(-phi)) is the diagonal
  // e^{i m phi}, so pre-phase the input (at the basis azimuthal index s*m)
  // and apply the shared polar transform.
  auto lease = ScratchArena::local().coeffs();
  CoeffVec& tmp = *lease;
  tmp.resize(in.size());
  const cdouble ph = dir.phase;
  cdouble pw{1.0, 0.0};  // phase^{s*m} for the current m >= 0
  for (int m = 0; m <= p_; ++m) {
    if (m > 0) pw *= (s > 0) ? ph : std::conj(ph);
    const cdouble pn = std::conj(pw);
    for (int n = m; n <= p_; ++n) {
      tmp[sq_index(n, m)] = in[sq_index(n, m)] * pw;
      if (m > 0) tmp[sq_index(n, -m)] = in[sq_index(n, -m)] * pn;
    }
  }
  thetas_[static_cast<std::size_t>(dir.theta_class)].first.apply(tmp, g, s,
                                                                 out);
}

void M2LRotationSet::rotate_inverse(const M2LDirection& dir,
                                    CoeffSpan in,
                                    const std::vector<double>& g, int s,
                                    CoeffVec& out) const {
  AMTFMM_ASSERT(in.size() == sq_count(p_));
  // E(Q^T) = E(R_y(theta)) E(R_z(phi)): polar transform, then the diagonal
  // post-phase e^{-i m' phi} at the basis azimuthal index s*m'.
  thetas_[static_cast<std::size_t>(dir.theta_class)].second.apply(in, g, s,
                                                                  out);
  const cdouble ph = dir.phase;
  cdouble pw{1.0, 0.0};  // phase^{-s*m'} for the current m' >= 0
  for (int m = 1; m <= p_; ++m) {
    pw *= (s > 0) ? std::conj(ph) : ph;
    const cdouble pn = std::conj(pw);
    for (int n = m; n <= p_; ++n) {
      out[sq_index(n, m)] *= pw;
      out[sq_index(n, -m)] *= pn;
    }
  }
}

}  // namespace amtfmm
