#include "kernels/laplace.hpp"

#include <cmath>

#include "kernels/simd/simd.hpp"
#include "math/solid.hpp"
#include "math/special.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {
void LaplaceKernel::setup(double domain_size, int max_level,
                          int accuracy_digits) {
  require_digits(accuracy_digits, 10);
  (void)max_level;
  domain_size_ = domain_size;
  p_ = 3 * accuracy_digits;
  quad_ = make_planewave_quadrature(std::pow(10.0, -accuracy_digits - 1), 0.0);
  // Radial part of the X operators: R_k(n, m) = lam_k^n for every m.
  const std::size_t tri = tri_index(p_, p_) + 1;
  std::vector<double> radial(static_cast<std::size_t>(quad_.count) * tri);
  for (int k = 0; k < quad_.count; ++k) {
    double ln = 1.0;
    for (int n = 0; n <= p_; ++n) {
      for (int m = 0; m <= n; ++m) {
        radial[static_cast<std::size_t>(k) * tri + tri_index(n, m)] = ln;
      }
      ln *= quad_.lambda[static_cast<std::size_t>(k)];
    }
  }
  pw_ = PlaneWaveOperators(quad_, p_, std::move(radial));
  g_multipole_.assign(sq_count(p_), 0.0);
  g_local_.assign(sq_count(p_), 0.0);
  for (int n = 0; n <= p_; ++n) {
    for (int m = -n; m <= n; ++m) {
      const double sign = (m < 0 && (m & 1)) ? -1.0 : 1.0;
      g_multipole_[sq_index(n, m)] = sign * factorial(n - std::abs(m));
      g_local_[sq_index(n, m)] = sign / factorial(n + std::abs(m));
    }
  }
  for (std::size_t d = 0; d < kAllAxes.size(); ++d) {
    const Mat3 q = axis_to_z(kAllAxes[d]);
    fwd_[d] = AngularTransform(p_, q);
    inv_[d] = AngularTransform(p_, q.transpose());
  }
  // Rotation-based M2L tables.  The axial irregular solid harmonic
  // Shh_l^0(d zhat; s) = l! (s/d)^{l+1} depends only on d/s = |nu|, so one
  // F table per distance class serves every level.
  m2l_rot_ = M2LRotationSet(p_);
  m2l_axial_.clear();
  for (std::size_t c = 0; c < m2l_rot_.dist_class_count(); ++c) {
    const double dist = m2l_rot_.dist(static_cast<int>(c));
    std::vector<double> f(static_cast<std::size_t>(2 * p_) + 1);
    double inv_dn = 1.0 / dist;  // |nu|^{-(l+1)}
    for (int l = 0; l <= 2 * p_; ++l) {
      f[static_cast<std::size_t>(l)] = factorial(l) * inv_dn;
      inv_dn /= dist;
    }
    m2l_axial_.push_back(std::move(f));
  }
}

double LaplaceKernel::scale(int level) const {
  return domain_size_ / static_cast<double>(1u << level);
}

double LaplaceKernel::direct(const Vec3& t, const Vec3& s) const {
  const double r = (t - s).norm();
  return (r > 0.0) ? 1.0 / r : 0.0;
}

Vec3 LaplaceKernel::direct_grad(const Vec3& t, const Vec3& s) const {
  const Vec3 d = t - s;
  const double r2 = d.norm2();
  if (r2 == 0.0) return {};
  return d * (-1.0 / (r2 * std::sqrt(r2)));
}

void LaplaceKernel::s2m(std::span<const Vec3> pts, std::span<const double> q,
                        const Vec3& center, int level, CoeffVec& out) const {
  out.assign(sq_count(p_), cdouble{});
  const double s = scale(level);
  auto r_lease = ScratchArena::local().coeffs();
  CoeffVec& r = *r_lease;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    regular_solid(p_, pts[i] - center, s, r);
    for (std::size_t j = 0; j < r.size(); ++j) out[j] += q[i] * std::conj(r[j]);
  }
}

void LaplaceKernel::m2m_acc(CoeffSpan in, const Vec3& from,
                            const Vec3& to, int from_level,
                            CoeffVec& inout) const {
  const double sc = scale(from_level);
  const double sp = scale(from_level - 1);
  auto& arena = ScratchArena::local();
  auto r_lease = arena.coeffs();
  auto ratio_lease = arena.reals();
  CoeffVec& r = *r_lease;
  regular_solid(p_, from - to, sp, r);
  std::vector<double>& ratio = *ratio_lease;
  ratio.assign(static_cast<std::size_t>(p_) + 1, 0.0);
  ratio[0] = 1.0;
  for (int n = 1; n <= p_; ++n) ratio[static_cast<std::size_t>(n)] = ratio[static_cast<std::size_t>(n - 1)] * (sc / sp);
  for (int v = 0; v <= p_; ++v) {
    for (int u = -v; u <= v; ++u) {
      cdouble acc{};
      for (int n = 0; n <= v; ++n) {
        for (int m = std::max(-n, u - (v - n)); m <= std::min(n, u + (v - n));
             ++m) {
          acc += std::conj(r[sq_index(v - n, u - m)]) *
                 ratio[static_cast<std::size_t>(n)] * in[sq_index(n, m)];
        }
      }
      inout[sq_index(v, u)] += acc;
    }
  }
}

void LaplaceKernel::m2l_acc(CoeffSpan in, const Vec3& from,
                            const Vec3& to, int level, CoeffVec& inout) const {
  if (m2l_mode() == M2LMode::kNaive) {
    m2l_naive(in, from, to, level, inout);
    return;
  }
  m2l_rotated(m2l_rot_.find(to - from, scale(level)), in, level, inout);
}

void LaplaceKernel::m2l_naive(CoeffSpan in, const Vec3& from,
                              const Vec3& to, int level,
                              CoeffVec& inout) const {
  const double s = scale(level);
  auto big_lease = ScratchArena::local().coeffs();
  CoeffVec& big = *big_lease;
  irregular_solid(2 * p_, to - from, s, big);
  const double inv_s = 1.0 / s;
  for (int j = 0; j <= p_; ++j) {
    const double sign = (j & 1) ? -1.0 : 1.0;
    for (int k = -j; k <= j; ++k) {
      cdouble acc{};
      for (int n = 0; n <= p_; ++n) {
        for (int m = -n; m <= n; ++m) {
          acc += in[sq_index(n, m)] * big[sq_index(n + j, m + k)];
        }
      }
      inout[sq_index(j, k)] += sign * inv_s * acc;
    }
  }
}

void LaplaceKernel::m2l_rotated(const M2LDirection& dir, CoeffSpan in,
                                int level, CoeffVec& inout) const {
  // Point-and-shoot: in the frame where the translation is d*zhat, only the
  // mu = 0 irregular harmonics survive, collapsing the naive double loop to
  //   L'_j^k = (-1)^j / s * sum_{n >= |k|} M'_n^{-k} F_{n+j}.
  auto& arena = ScratchArena::local();
  auto mrot_lease = arena.coeffs();
  auto lrot_lease = arena.coeffs();
  auto back_lease = arena.coeffs();
  CoeffVec& mrot = *mrot_lease;
  CoeffVec& lrot = *lrot_lease;
  CoeffVec& back = *back_lease;

  m2l_rot_.rotate_forward(dir, in, g_multipole_, 1, mrot);
  const std::vector<double>& f = m2l_axial_[static_cast<std::size_t>(
      dir.dist_class)];
  lrot.assign(sq_count(p_), cdouble{});
  const double inv_s = 1.0 / scale(level);
  // For fixed k the sources M'_n^{-k} are strided across mrot but reused by
  // every j, while the F table is contiguous in n.  Stage the M-column once
  // per k, then each j is one complex-by-real dot over f[ak+j .. p+j].
  auto mcol_lease = arena.coeffs();
  CoeffVec& mcol = *mcol_lease;
  for (int k = -p_; k <= p_; ++k) {
    const int ak = std::abs(k);
    const std::size_t len = static_cast<std::size_t>(p_ - ak + 1);
    mcol.assign(len, cdouble{});
    for (int n = ak; n <= p_; ++n) {
      mcol[static_cast<std::size_t>(n - ak)] = mrot[sq_index(n, -k)];
    }
    for (int j = ak; j <= p_; ++j) {
      const cdouble acc =
          simd::zrdot(mcol.data(), f.data() + ak + j, len);
      lrot[sq_index(j, k)] = ((j & 1) ? -inv_s : inv_s) * acc;
    }
  }
  m2l_rot_.rotate_inverse(dir, lrot, g_local_, -1, back);
  for (std::size_t i = 0; i < back.size(); ++i) inout[i] += back[i];
}

void LaplaceKernel::s2l_acc(std::span<const Vec3> pts,
                            std::span<const double> q, const Vec3& center,
                            int level, CoeffVec& inout) const {
  const double s = scale(level);
  auto shat_lease = ScratchArena::local().coeffs();
  CoeffVec& shat = *shat_lease;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    irregular_solid(p_, center - pts[i], s, shat);
    for (int j = 0; j <= p_; ++j) {
      const double f = q[i] * ((j & 1) ? -1.0 : 1.0) / s;
      for (int k = -j; k <= j; ++k) {
        inout[sq_index(j, k)] += f * shat[sq_index(j, k)];
      }
    }
  }
}

double LaplaceKernel::m2t(CoeffSpan in, const Vec3& center, int level,
                          const Vec3& t) const {
  return eval_irregular(p_, in, t - center, scale(level));
}

void LaplaceKernel::l2l_acc(CoeffSpan in, const Vec3& from,
                            const Vec3& to, int to_level,
                            CoeffVec& inout) const {
  const double sc = scale(to_level);
  const double sp = scale(to_level - 1);
  auto& arena = ScratchArena::local();
  auto r_lease = arena.coeffs();
  auto ratio_lease = arena.reals();
  CoeffVec& r = *r_lease;
  regular_solid(p_, to - from, sp, r);
  std::vector<double>& ratio = *ratio_lease;
  ratio.assign(static_cast<std::size_t>(p_) + 1, 0.0);
  ratio[0] = 1.0;
  for (int i = 1; i <= p_; ++i) ratio[static_cast<std::size_t>(i)] = ratio[static_cast<std::size_t>(i - 1)] * (sc / sp);
  for (int i = 0; i <= p_; ++i) {
    for (int l = -i; l <= i; ++l) {
      cdouble acc{};
      for (int j = i; j <= p_; ++j) {
        for (int k = std::max(-j, l - (j - i)); k <= std::min(j, l + (j - i));
             ++k) {
          acc += std::conj(r[sq_index(j - i, k - l)]) * in[sq_index(j, k)];
        }
      }
      inout[sq_index(i, l)] += ratio[static_cast<std::size_t>(i)] * acc;
    }
  }
}

double LaplaceKernel::l2t(CoeffSpan in, const Vec3& center, int level,
                          const Vec3& t) const {
  return eval_conj_regular(p_, in, t - center, scale(level));
}

Vec3 LaplaceKernel::l2t_grad(CoeffSpan in, const Vec3& center, int level,
                             const Vec3& t) const {
  return grad_conj_regular(p_, in, t - center, scale(level));
}

void LaplaceKernel::m2i(CoeffSpan m, int level, Axis d,
                        CoeffVec& out) const {
  auto mrot = ScratchArena::local().coeffs();
  fwd_[static_cast<std::size_t>(d)].apply(m, g_multipole_, 1, *mrot);
  // The Sommerfeld identity is discretized in box units; converting the
  // 1/r-dimensioned kernel back to physical units costs one 1/box_size.
  pw_.m2i(*mrot, 1.0 / scale(level), out);
}

void LaplaceKernel::i2i_acc(CoeffSpan in, Axis d, const Vec3& offset,
                            int level, CoeffVec& inout) const {
  pw_.i2i_acc(in, d, offset, scale(level), inout);
}

void LaplaceKernel::i2l_acc(CoeffSpan in, Axis d, int level,
                            CoeffVec& inout) const {
  (void)level;
  auto& arena = ScratchArena::local();
  auto lrot = arena.coeffs();
  auto lback = arena.coeffs();
  pw_.i2l(in, PlaneWaveLocal::kSolid, *lrot);
  inv_[static_cast<std::size_t>(d)].apply(*lrot, g_local_, -1, *lback);
  for (std::size_t i = 0; i < lback->size(); ++i) inout[i] += (*lback)[i];
}

}  // namespace amtfmm
