#include "kernels/yukawa.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "kernels/simd/simd.hpp"
#include "math/bessel.hpp"
#include "math/gauss.hpp"
#include "math/special.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {
namespace {

constexpr double kTwoOverPi = 2.0 / std::numbers::pi;

}  // namespace

void YukawaKernel::setup(double domain_size, int max_level,
                         int accuracy_digits) {
  require_digits(accuracy_digits, 8);
  AMTFMM_ASSERT(kappa_ > 0.0);
  domain_size_ = domain_size;
  max_level_ = max_level;
  p_ = 3 * accuracy_digits;
  eps_ = std::pow(10.0, -accuracy_digits - 1);

  quads_.clear();
  inorm_.clear();
  pw_.clear();
  for (int l = 0; l <= max_level; ++l) {
    const double w = box_size(l);
    const double kt = kappa_ * w;
    quads_.push_back(make_planewave_quadrature(eps_, kt));
    std::vector<double> iv;
    sph_bessel_i(p_, kt, iv);
    inorm_.push_back(iv);
    // Radial part of the X operators: R_k(n, m) = i_n(kt) P_n^m(mu_k / kt),
    // the associated Legendre function at the hyperbolic argument.
    const PlaneWaveQuadrature& q = quads_.back();
    std::vector<double> leg;
    const std::size_t stride = tri_index(p_, p_) + 1;
    std::vector<double> tab(static_cast<std::size_t>(q.count) * stride, 0.0);
    for (int k = 0; k < q.count; ++k) {
      legendre_table(p_, q.mu[static_cast<std::size_t>(k)] / kt, leg);
      double* row = tab.data() + static_cast<std::size_t>(k) * stride;
      for (int n = 0; n <= p_; ++n) {
        for (int m = 0; m <= n; ++m) {
          row[tri_index(n, m)] =
              iv[static_cast<std::size_t>(n)] * leg[tri_index(n, m)];
        }
      }
    }
    pw_.emplace_back(q, p_, std::move(tab));
  }

  gamma_.assign(sq_count(p_), 0.0);
  g_unit_.assign(sq_count(p_), 1.0);
  for (int n = 0; n <= p_; ++n) {
    for (int m = -n; m <= n; ++m) {
      gamma_[sq_index(n, m)] = (2 * n + 1) *
                               factorial(n - std::abs(m)) /
                               factorial(n + std::abs(m));
    }
  }
  for (std::size_t d = 0; d < kAllAxes.size(); ++d) {
    const Mat3 q = axis_to_z(kAllAxes[d]);
    fwd_[d] = AngularTransform(p_, q);
    inv_[d] = AngularTransform(p_, q.transpose());
  }
  proj_rule_ = SphereRule(2 * p_);
  // Build the projection table now: the translation operators run
  // concurrently from worker threads and must only read it.
  proj_rule_.prepare(p_);

  // Rotation-based M2L: axial translation matrices T^mu_{jn} such that with
  // the translation d zhat (source -> target) the rotated-frame expansions
  // couple as L'_j^k = sum_{n >= |k|} T^{|k|}_{jn} M'_n^k.  Projecting the
  // translated multipole field onto the local angular basis on a sphere of
  // radius r = d/2 collapses (azimuthal orthogonality) to the 1D integral
  //   T^mu_{jn} = norm_j norm_n kappa / (pi i_j(kappa r))
  //               * int_{-1}^{1} k_n(kappa R) P_n^mu(cosTheta) P_j^mu(x) dx,
  // R = sqrt(d^2 + r^2 + 2 d r x), cosTheta = (d + r x) / R.  The integrand
  // is smooth (R >= d/2 > 0), so Gauss-Legendre converges spectrally.
  m2l_rot_ = M2LRotationSet(p_);
  mu_off_.assign(static_cast<std::size_t>(p_) + 2, 0);
  for (int mu = 0; mu <= p_; ++mu) {
    mu_off_[static_cast<std::size_t>(mu) + 1] =
        mu_off_[static_cast<std::size_t>(mu)] +
        static_cast<std::size_t>(p_ + 1 - mu) *
            static_cast<std::size_t>(p_ + 1 - mu);
  }
  const std::size_t tab_size = mu_off_[static_cast<std::size_t>(p_) + 1];
  const Quadrature gl = gauss_legendre(std::max(32, 2 * p_ + 24));
  std::vector<double> iv_r, kv, leg_src, leg_tgt;
  yk_axial_.assign(static_cast<std::size_t>(max_level) + 1, {});
  for (int l = 0; l <= max_level; ++l) {
    const double w = box_size(l);
    const auto& norm = inorm_[static_cast<std::size_t>(l)];
    auto& tables = yk_axial_[static_cast<std::size_t>(l)];
    tables.reserve(m2l_rot_.dist_class_count());
    for (std::size_t c = 0; c < m2l_rot_.dist_class_count(); ++c) {
      const double d = m2l_rot_.dist(static_cast<int>(c)) * w;
      const double r = 0.5 * d;
      sph_bessel_i(p_, kappa_ * r, iv_r);
      std::vector<double> tab(tab_size, 0.0);
      for (std::size_t q = 0; q < gl.x.size(); ++q) {
        const double x = gl.x[q];
        const double big_r = std::sqrt(d * d + r * r + 2.0 * d * r * x);
        const double ct = std::clamp((d + r * x) / big_r, -1.0, 1.0);
        legendre_table(p_, ct, leg_src);
        legendre_table(p_, x, leg_tgt);
        sph_bessel_k(p_, kappa_ * big_r, kv);
        for (int mu = 0; mu <= p_; ++mu) {
          for (int j = mu; j <= p_; ++j) {
            const double tj = gl.w[q] * leg_tgt[tri_index(j, mu)];
            double* row = tab.data() + axial_index(mu, j, mu);
            for (int n = mu; n <= p_; ++n) {
              row[n - mu] += tj * kv[static_cast<std::size_t>(n)] *
                             leg_src[tri_index(n, mu)];
            }
          }
        }
      }
      const double c0 = kappa_ / std::numbers::pi;
      for (int mu = 0; mu <= p_; ++mu) {
        for (int j = mu; j <= p_; ++j) {
          const double fj =
              c0 * norm[static_cast<std::size_t>(j)] / iv_r[static_cast<std::size_t>(j)];
          double* row = tab.data() + axial_index(mu, j, mu);
          for (int n = mu; n <= p_; ++n) {
            row[n - mu] *= fj * norm[static_cast<std::size_t>(n)];
          }
        }
      }
      tables.push_back(std::move(tab));
    }
  }
}

int YukawaKernel::clamped(int level) const {
  if (level < 0) return 0;
  if (level > max_level_) return max_level_;
  return level;
}

double YukawaKernel::box_size(int level) const {
  return domain_size_ / static_cast<double>(1u << clamped(level));
}

const std::vector<double>& YukawaKernel::inorm(int level) const {
  return inorm_[static_cast<std::size_t>(clamped(level))];
}

double YukawaKernel::direct(const Vec3& t, const Vec3& s) const {
  const double r = (t - s).norm();
  return (r > 0.0) ? std::exp(-kappa_ * r) / r : 0.0;
}

void YukawaKernel::s2m(std::span<const Vec3> pts, std::span<const double> q,
                       const Vec3& center, int level, CoeffVec& out) const {
  out.assign(sq_count(p_), cdouble{});
  const auto& norm = inorm(level);
  auto& arena = ScratchArena::local();
  auto ang_lease = arena.coeffs();
  auto iv_lease = arena.reals();
  CoeffVec& ang = *ang_lease;
  std::vector<double>& iv = *iv_lease;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec3 u = pts[i] - center;
    angular_basis(p_, u, ang);
    sph_bessel_i(p_, kappa_ * u.norm(), iv);
    for (int n = 0; n <= p_; ++n) {
      const double radial = q[i] * iv[static_cast<std::size_t>(n)] /
                            norm[static_cast<std::size_t>(n)];
      for (int m = -n; m <= n; ++m) {
        out[sq_index(n, m)] +=
            radial * gamma_[sq_index(n, m)] * ang[sq_index(n, -m)];
      }
    }
  }
}

double YukawaKernel::m2t(CoeffSpan in, const Vec3& center, int level,
                         const Vec3& t) const {
  const auto& norm = inorm(level);
  const Vec3 u = t - center;
  const double r = u.norm();
  AMTFMM_ASSERT(r > 0.0);
  auto& arena = ScratchArena::local();
  auto ang_lease = arena.coeffs();
  auto kv_lease = arena.reals();
  CoeffVec& ang = *ang_lease;
  angular_basis(p_, u, ang);
  std::vector<double>& kv = *kv_lease;
  sph_bessel_k(p_, kappa_ * r, kv);
  cdouble acc{};
  for (int n = 0; n <= p_; ++n) {
    const double radial =
        norm[static_cast<std::size_t>(n)] * kv[static_cast<std::size_t>(n)];
    for (int m = -n; m <= n; ++m) {
      acc += in[sq_index(n, m)] * radial * ang[sq_index(n, m)];
    }
  }
  return kTwoOverPi * kappa_ * acc.real();
}

void YukawaKernel::s2l_acc(std::span<const Vec3> pts,
                           std::span<const double> q, const Vec3& center,
                           int level, CoeffVec& inout) const {
  const auto& norm = inorm(level);
  auto& arena = ScratchArena::local();
  auto ang_lease = arena.coeffs();
  auto kv_lease = arena.reals();
  CoeffVec& ang = *ang_lease;
  std::vector<double>& kv = *kv_lease;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec3 d = pts[i] - center;
    const double r = d.norm();
    AMTFMM_ASSERT(r > 0.0);
    angular_basis(p_, d, ang);
    sph_bessel_k(p_, kappa_ * r, kv);
    for (int n = 0; n <= p_; ++n) {
      const double radial = q[i] * kTwoOverPi * kappa_ *
                            norm[static_cast<std::size_t>(n)] *
                            kv[static_cast<std::size_t>(n)];
      for (int m = -n; m <= n; ++m) {
        inout[sq_index(n, m)] += radial * ang[sq_index(n, -m)];
      }
    }
  }
}

double YukawaKernel::l2t(CoeffSpan in, const Vec3& center, int level,
                         const Vec3& t) const {
  const auto& norm = inorm(level);
  const Vec3 u = t - center;
  auto& arena = ScratchArena::local();
  auto ang_lease = arena.coeffs();
  auto iv_lease = arena.reals();
  CoeffVec& ang = *ang_lease;
  angular_basis(p_, u, ang);
  std::vector<double>& iv = *iv_lease;
  sph_bessel_i(p_, kappa_ * u.norm(), iv);
  cdouble acc{};
  for (int n = 0; n <= p_; ++n) {
    const double radial =
        iv[static_cast<std::size_t>(n)] / norm[static_cast<std::size_t>(n)];
    for (int m = -n; m <= n; ++m) {
      acc += in[sq_index(n, m)] * radial * gamma_[sq_index(n, m)] *
             ang[sq_index(n, m)];
    }
  }
  return acc.real();
}

void YukawaKernel::m2m_acc(CoeffSpan in, const Vec3& from,
                           const Vec3& to, int from_level,
                           CoeffVec& inout) const {
  // Numeric translation: evaluate the child expansion on a sphere around
  // the parent center, project, and rescale by the parent radial basis.
  const int to_level = from_level - 1;
  const double radius = 1.5 * box_size(to_level);
  auto& arena = ScratchArena::local();
  auto samples_lease = arena.coeffs();
  auto a_lease = arena.coeffs();
  auto kv_lease = arena.reals();
  std::vector<cdouble>& samples = *samples_lease;
  samples.assign(proj_rule_.size(), cdouble{});
  for (std::size_t i = 0; i < proj_rule_.size(); ++i) {
    samples[i] = m2t(in, from, from_level,
                     to + proj_rule_.directions()[i] * radius);
  }
  CoeffVec& a = *a_lease;
  proj_rule_.project(samples, p_, a);
  const auto& norm = inorm(to_level);
  std::vector<double>& kv = *kv_lease;
  sph_bessel_k(p_, kappa_ * radius, kv);
  for (int n = 0; n <= p_; ++n) {
    const double rescale = 1.0 / (kTwoOverPi * kappa_ *
                                  norm[static_cast<std::size_t>(n)] *
                                  kv[static_cast<std::size_t>(n)]);
    for (int m = -n; m <= n; ++m) {
      inout[sq_index(n, m)] += a[sq_index(n, m)] * rescale;
    }
  }
}

void YukawaKernel::m2l_acc(CoeffSpan in, const Vec3& from,
                           const Vec3& to, int level, CoeffVec& inout) const {
  if (m2l_mode() == M2LMode::kNaive) {
    m2l_naive(in, from, to, level, inout);
    return;
  }
  m2l_rotated(m2l_rot_.find(to - from, box_size(level)), in, level, inout);
}

void YukawaKernel::m2l_naive(CoeffSpan in, const Vec3& from,
                             const Vec3& to, int level, CoeffVec& inout) const {
  const double radius = 0.8 * box_size(level);
  auto& arena = ScratchArena::local();
  auto samples_lease = arena.coeffs();
  auto a_lease = arena.coeffs();
  auto iv_lease = arena.reals();
  std::vector<cdouble>& samples = *samples_lease;
  samples.assign(proj_rule_.size(), cdouble{});
  for (std::size_t i = 0; i < proj_rule_.size(); ++i) {
    samples[i] =
        m2t(in, from, level, to + proj_rule_.directions()[i] * radius);
  }
  CoeffVec& a = *a_lease;
  proj_rule_.project(samples, p_, a);
  const auto& norm = inorm(level);
  std::vector<double>& iv = *iv_lease;
  sph_bessel_i(p_, kappa_ * radius, iv);
  for (int n = 0; n <= p_; ++n) {
    const double rescale =
        norm[static_cast<std::size_t>(n)] / iv[static_cast<std::size_t>(n)];
    for (int m = -n; m <= n; ++m) {
      inout[sq_index(n, m)] +=
          a[sq_index(n, m)] * rescale / gamma_[sq_index(n, m)];
    }
  }
}

void YukawaKernel::m2l_rotated(const M2LDirection& dir, CoeffSpan in,
                               int level, CoeffVec& inout) const {
  auto& arena = ScratchArena::local();
  auto mrot_lease = arena.coeffs();
  auto lrot_lease = arena.coeffs();
  auto back_lease = arena.coeffs();
  CoeffVec& mrot = *mrot_lease;
  CoeffVec& lrot = *lrot_lease;
  CoeffVec& back = *back_lease;

  m2l_rot_.rotate_forward(dir, in, g_unit_, 1, mrot);
  const std::vector<double>& t = yk_axial_[static_cast<std::size_t>(
      clamped(level))][static_cast<std::size_t>(dir.dist_class)];
  lrot.assign(sq_count(p_), cdouble{});
  // For fixed k the sources M'_n^k are strided across mrot but reused by
  // every j, while each axial-table row is contiguous in n.  Stage the
  // M-column once per k, then each j is one complex-by-real dot.
  auto mcol_lease = arena.coeffs();
  CoeffVec& mcol = *mcol_lease;
  for (int k = -p_; k <= p_; ++k) {
    const int ak = std::abs(k);
    const std::size_t len = static_cast<std::size_t>(p_ - ak + 1);
    mcol.assign(len, cdouble{});
    for (int n = ak; n <= p_; ++n) {
      mcol[static_cast<std::size_t>(n - ak)] = mrot[sq_index(n, k)];
    }
    for (int j = ak; j <= p_; ++j) {
      lrot[sq_index(j, k)] =
          simd::zrdot(mcol.data(), t.data() + axial_index(ak, j, ak), len);
    }
  }
  m2l_rot_.rotate_inverse(dir, lrot, gamma_, 1, back);
  for (std::size_t i = 0; i < back.size(); ++i) inout[i] += back[i];
}

void YukawaKernel::l2l_acc(CoeffSpan in, const Vec3& from,
                           const Vec3& to, int to_level,
                           CoeffVec& inout) const {
  const double radius = 0.7 * box_size(to_level);
  auto& arena = ScratchArena::local();
  auto samples_lease = arena.coeffs();
  auto a_lease = arena.coeffs();
  auto iv_lease = arena.reals();
  std::vector<cdouble>& samples = *samples_lease;
  samples.assign(proj_rule_.size(), cdouble{});
  for (std::size_t i = 0; i < proj_rule_.size(); ++i) {
    samples[i] = l2t(in, from, to_level - 1,
                     to + proj_rule_.directions()[i] * radius);
  }
  CoeffVec& a = *a_lease;
  proj_rule_.project(samples, p_, a);
  const auto& norm = inorm(to_level);
  std::vector<double>& iv = *iv_lease;
  sph_bessel_i(p_, kappa_ * radius, iv);
  for (int n = 0; n <= p_; ++n) {
    const double rescale =
        norm[static_cast<std::size_t>(n)] / iv[static_cast<std::size_t>(n)];
    for (int m = -n; m <= n; ++m) {
      inout[sq_index(n, m)] +=
          a[sq_index(n, m)] * rescale / gamma_[sq_index(n, m)];
    }
  }
}

void YukawaKernel::m2i(CoeffSpan m, int level, Axis d,
                       CoeffVec& out) const {
  const PlaneWaveOperators& pw = pw_[static_cast<std::size_t>(clamped(level))];
  if (pw.size() == 0) {
    out.clear();
    return;
  }
  auto mrot = ScratchArena::local().coeffs();
  fwd_[static_cast<std::size_t>(d)].apply(m, g_unit_, 1, *mrot);
  // Box-unit discretization -> physical kernel: one 1/box_size overall.
  pw.m2i(*mrot, 1.0 / box_size(level), out);
}

void YukawaKernel::i2i_acc(CoeffSpan in, Axis d, const Vec3& offset,
                           int level, CoeffVec& inout) const {
  const PlaneWaveOperators& pw = pw_[static_cast<std::size_t>(clamped(level))];
  if (pw.size() == 0) return;
  pw.i2i_acc(in, d, offset, box_size(level), inout);
}

void YukawaKernel::i2l_acc(CoeffSpan in, Axis d, int level,
                           CoeffVec& inout) const {
  const PlaneWaveOperators& pw = pw_[static_cast<std::size_t>(clamped(level))];
  if (pw.size() == 0) return;
  auto& arena = ScratchArena::local();
  auto lrot = arena.coeffs();
  auto lback = arena.coeffs();
  pw.i2l(in, PlaneWaveLocal::kGamma, *lrot);
  inv_[static_cast<std::size_t>(d)].apply(*lrot, gamma_, 1, *lback);
  for (std::size_t i = 0; i < lback->size(); ++i) inout[i] += (*lback)[i];
}

}  // namespace amtfmm
