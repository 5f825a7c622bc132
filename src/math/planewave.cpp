#include "math/planewave.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "math/bessel.hpp"
#include "math/gauss.hpp"
#include "math/special.hpp"
#include "support/error.hpp"

namespace amtfmm {
namespace {

constexpr double kZMin = 1.0;           // validity range in box units
constexpr double kRhoMax = 5.6568542494923806;  // 4 sqrt 2

/// Estimated relative error of an n-point Gauss-Legendre rule applied to an
/// oscillation with half-width phase s (standard analytic bound shape).
double gl_osc_error(int n, double s) {
  if (2 * n >= 170) return 0.0;
  return std::pow(s, 2 * n) / factorial(2 * n);
}

}  // namespace

PlaneWaveQuadrature make_planewave_quadrature(double eps, double kappa) {
  AMTFMM_ASSERT(eps > 0.0 && eps < 0.1);
  AMTFMM_ASSERT(kappa >= 0.0);
  PlaneWaveQuadrature q;
  q.kappa = kappa;
  q.eps = eps;

  // Truncation: contributions beyond lambda_max are bounded by
  // e^{-mu(lambda) zmin}; keep them below eps/100.
  const double decay_budget = std::log(100.0 / eps);
  if (kappa >= decay_budget) {
    // Screening alone kills the far field at one box separation; an empty
    // expansion is the correct (and GH02-consistent) limit.
    return q;
  }
  const double lambda_max =
      std::sqrt(decay_budget * decay_budget - kappa * kappa);
  const int npanel = std::max(1, static_cast<int>(std::ceil(lambda_max)));
  const double width = lambda_max / npanel;

  // Pass 1: lambda nodes from per-panel Gauss-Legendre rules whose order is
  // chosen against the J0 oscillation, with the exponential amplitude decay
  // relaxing the tolerance of later panels.
  for (int pnl = 0; pnl < npanel; ++pnl) {
    const double a = pnl * width;
    const double b = a + width;
    const double mu_a = std::sqrt(a * a + kappa * kappa);
    const double amp = std::exp(-mu_a * kZMin);
    if (amp < 0.01 * eps) break;  // the rest of the tail is negligible
    // Root-sum-square budget across panels: individual panel errors are
    // oscillatory and do not add coherently.
    const double tol =
        std::min(1.0, 0.3 * eps / (amp * std::sqrt(static_cast<double>(npanel))));
    const double s = 0.5 * width * kRhoMax;  // half-width phase
    int order = 3;
    while (order < 16 && gl_osc_error(order, s) > tol) ++order;
    const Quadrature gl = gauss_legendre(order, a, b);
    for (int i = 0; i < order; ++i) {
      const double lam = gl.x[static_cast<std::size_t>(i)];
      const double mu = std::sqrt(lam * lam + kappa * kappa);
      q.lambda.push_back(lam);
      q.mu.push_back(mu);
      q.weight.push_back(gl.w[static_cast<std::size_t>(i)] * lam /
                         std::max(mu, 1e-300));
    }
  }
  q.count = static_cast<int>(q.lambda.size());

  // Pass 2: angular counts.  The M-point trapezoid rule for the alpha
  // integral has error ~ 2 J_M(lambda rho); size M so the weighted sum of
  // these stays below eps/4.
  std::vector<double> jtab;
  for (int k = 0; k < q.count; ++k) {
    const double x = q.lambda[static_cast<std::size_t>(k)] * kRhoMax;
    const double amp = q.weight[static_cast<std::size_t>(k)] *
                       std::exp(-q.mu[static_cast<std::size_t>(k)] * kZMin);
    const double tol =
        0.4 * eps /
        (std::max(amp, 1e-300) * std::sqrt(static_cast<double>(std::max(1, q.count))));
    const int nmax = static_cast<int>(x) + 60;
    bessel_j(nmax, x, jtab);
    int m = 4;
    while (m + 1 < nmax &&
           std::abs(jtab[static_cast<std::size_t>(m)]) +
                   std::abs(jtab[static_cast<std::size_t>(m + 1)]) >
               tol) {
      m += 2;
    }
    q.m_count.push_back(m);
    q.offset.push_back(q.total);
    q.total += static_cast<std::size_t>(m);
  }

  // Angular node tables.
  q.cos_alpha.resize(q.total);
  q.sin_alpha.resize(q.total);
  for (int k = 0; k < q.count; ++k) {
    const int mk = q.m_count[static_cast<std::size_t>(k)];
    for (int j = 0; j < mk; ++j) {
      const double alpha = 2.0 * std::numbers::pi * j / mk;
      q.cos_alpha[q.offset[static_cast<std::size_t>(k)] + static_cast<std::size_t>(j)] = std::cos(alpha);
      q.sin_alpha[q.offset[static_cast<std::size_t>(k)] + static_cast<std::size_t>(j)] = std::sin(alpha);
    }
  }
  return q;
}

double planewave_eval(const PlaneWaveQuadrature& q, double x, double y,
                      double z) {
  double phi = 0.0;
  for (int k = 0; k < q.count; ++k) {
    const int mk = q.m_count[static_cast<std::size_t>(k)];
    const std::size_t off = q.offset[static_cast<std::size_t>(k)];
    double ang = 0.0;
    for (int j = 0; j < mk; ++j) {
      ang += std::cos(q.lambda[static_cast<std::size_t>(k)] *
                      (x * q.cos_alpha[off + static_cast<std::size_t>(j)] +
                       y * q.sin_alpha[off + static_cast<std::size_t>(j)]));
    }
    // The 1/(2 pi) prefactor of the Sommerfeld identity cancels against the
    // 2 pi of the alpha integral once the trapezoid average replaces it.
    phi += q.weight[static_cast<std::size_t>(k)] *
           std::exp(-q.mu[static_cast<std::size_t>(k)] * z) * ang / mk;
  }
  return phi;
}

std::array<int, 3> halfbox_offset(Axis d, const Vec3& offset, double box) {
  const Vec3 o = axis_to_z(d) * offset * (2.0 / box);
  // Grid values are integers and an offset at the wrong level misses by
  // at least 0.5, while a centre difference carries ulp(|centre|) of
  // rounding that 2/box magnifies on deep, translated trees: a tolerance
  // of 1e-3 still catches every wrong-level offset and sits far above
  // that noise.
  auto snap = [](double v) {
    const double r = std::nearbyint(v);
    AMTFMM_ASSERT_MSG(std::abs(v - r) < 1e-3,
                      "I->I offset is off the half-box grid");
    return static_cast<int>(r);
  };
  const std::array<int, 3> g{snap(o.x), snap(o.y), snap(o.z)};
  AMTFMM_ASSERT_MSG(std::abs(g[0]) <= kHalfBoxXYMax &&
                        std::abs(g[1]) <= kHalfBoxXYMax &&
                        g[2] >= kHalfBoxZMin && g[2] <= kHalfBoxZMax,
                    "I->I offset outside the merge-and-shift grid");
  return g;
}

namespace {

/// (re, im) *= (-i)^m.
void times_minus_i_pow(int m, double& re, double& im) {
  if (m & 1) {  // times -i
    std::swap(re, im);
    im = -im;
  }
  if (m & 2) {  // times -1
    re = -re;
    im = -im;
  }
}

/// Table entries are built by recurrence in extended precision and rounded
/// once: a double-precision power recurrence drifts by up to one ulp of
/// phase per step, and the chain's cancellation at high degree amplifies
/// that drift into the local coefficients.
using Wide = long double;

/// Writes u^i, i = -n..n, for the unit phasor u = e^{i theta} as (re, im)
/// pairs at row(i): one multiplication per step (no trigonometry per
/// entry), exact conjugates for negative i.
template <typename Row>
void phasor_powers(Wide theta, int n, Row row) {
  const Wide c = std::cos(theta), s = std::sin(theta);
  Wide re = 1, im = 0;
  for (int k = 0; k <= n; ++k) {
    double* a = row(k);
    double* b = row(-k);
    a[0] = b[0] = static_cast<double>(re);
    a[1] = static_cast<double>(im);
    b[1] = -a[1];
    const Wide nr = re * c - im * s;
    im = re * s + im * c;
    re = nr;
  }
}

}  // namespace

PlaneWaveOperators::PlaneWaveOperators(const PlaneWaveQuadrature& q, int p,
                                       std::vector<double> radial)
    : p_(p),
      nodes_(static_cast<std::size_t>(q.count)),
      tri_(tri_index(p, p) + 1),
      radial_(std::move(radial)) {
  AMTFMM_ASSERT(p >= 0 && p <= kMaxOrder);
  AMTFMM_ASSERT(radial_.size() == nodes_ * tri_);
  offset_.assign(nodes_ + 1, 0);
  weight_.resize(nodes_);
  for (std::size_t k = 0; k < nodes_; ++k) {
    const int mk = q.m_count[k];
    AMTFMM_ASSERT_MSG(mk % 2 == 0, "half spectrum needs even M_k");
    offset_[k + 1] = offset_[k] + static_cast<std::size_t>(mk / 2);
    weight_[k] = q.weight[k] / mk;
  }
  size_ = offset_[nodes_];

  const auto np = static_cast<std::size_t>(p_) + 1;
  cos_m_.resize(size_ * np);
  sin_m_.resize(size_ * np);
  zs_.resize(nodes_ * kZRows);
  xs_.resize(2 * kXYRows * size_);
  ys_.resize(2 * kXYRows * size_);
  for (std::size_t k = 0; k < nodes_; ++k) {
    // Damping e^{-mu iz/2}: powers of one exponential per node.
    const Wide e = std::exp(Wide(-0.5) * q.mu[k]);
    double* z = zs_.data() + k * kZRows - kHalfBoxZMin;
    Wide zp = 1;
    for (int iz = 0; iz <= kHalfBoxZMax; ++iz, zp *= e) {
      z[iz] = static_cast<double>(zp);
    }
    zp = 1;
    for (int iz = 0; iz >= kHalfBoxZMin; --iz, zp /= e) {
      z[iz] = static_cast<double>(zp);
    }
    const Wide lam = q.lambda[k];
    for (std::size_t t = offset_[k]; t < offset_[k + 1]; ++t) {
      const std::size_t full = q.offset[k] + (t - offset_[k]);
      const Wide ca = q.cos_alpha[full], sa = q.sin_alpha[full];
      // cos/sin(m a) by the angle-addition recurrence.
      double* cm = cos_m_.data() + t * np;
      double* sm = sin_m_.data() + t * np;
      Wide c = 1, s = 0;
      for (std::size_t m = 0; m < np; ++m) {
        cm[m] = static_cast<double>(c);
        sm[m] = static_cast<double>(s);
        const Wide nc = c * ca - s * sa;
        s = s * ca + c * sa;
        c = nc;
      }
      auto row = [&](std::vector<double>& table) {
        return [&table, t, this](int i) {
          const auto r = static_cast<std::size_t>(i + kHalfBoxXYMax);
          return table.data() + 2 * (r * size_ + t);
        };
      };
      phasor_powers(lam * ca / 2, kHalfBoxXYMax, row(xs_));
      phasor_powers(lam * sa / 2, kHalfBoxXYMax, row(ys_));
    }
  }
}

void PlaneWaveOperators::m2i(CoeffSpan mrot, double scale,
                             CoeffVec& out) const {
  out.assign(size_, cdouble{});
  const auto np = static_cast<std::size_t>(p_) + 1;
  double* w = reinterpret_cast<double*>(out.data());
  // a/b: real/imag of G_k^m, doubled for m > 0 (the m and -m terms pair).
  std::array<double, kMaxOrder + 1> a{}, b{};
  for (std::size_t k = 0; k < nodes_; ++k) {
    const double* r = radial_.data() + k * tri_;
    for (int m = 0; m <= p_; ++m) {
      double sr = 0.0, si = 0.0;
      for (int n = m; n <= p_; ++n) {
        const double rn = r[tri_index(n, m)];
        const cdouble c = mrot[sq_index(n, m)];
        sr += rn * c.real();
        si += rn * c.imag();
      }
      times_minus_i_pow(m, sr, si);
      const double two = m == 0 ? 1.0 : 2.0;
      a[static_cast<std::size_t>(m)] = two * sr;
      b[static_cast<std::size_t>(m)] = two * si;
    }
    // W = G^0 + sum_{m>0} (G^m e^{ima} + (-1)^m conj(G^m e^{ima})): even m
    // contribute 2 Re(G^m e^{ima}), odd m 2i Im(G^m e^{ima}).
    const double wk = scale * weight_[k];
    for (std::size_t t = offset_[k]; t < offset_[k + 1]; ++t) {
      const double* c = cos_m_.data() + t * np;
      const double* s = sin_m_.data() + t * np;
      double re = a[0], im = 0.0;
      for (std::size_t m = 2; m < np; m += 2) re += a[m] * c[m] - b[m] * s[m];
      for (std::size_t m = 1; m < np; m += 2) im += a[m] * s[m] + b[m] * c[m];
      w[2 * t] = wk * re;
      w[2 * t + 1] = wk * im;
    }
  }
}

void PlaneWaveOperators::i2i_acc(CoeffSpan in, Axis d,
                                 const Vec3& offset, double box,
                                 CoeffVec& inout) const {
  AMTFMM_ASSERT(in.size() == size_ && inout.size() == size_);
  const auto [ix, iy, iz] = halfbox_offset(d, offset, box);
  const double* xr =
      xs_.data() + 2 * static_cast<std::size_t>(ix + kHalfBoxXYMax) * size_;
  const double* yr =
      ys_.data() + 2 * static_cast<std::size_t>(iy + kHalfBoxXYMax) * size_;
  const double* src = reinterpret_cast<const double*>(in.data());
  double* dst = reinterpret_cast<double*>(inout.data());
  for (std::size_t k = 0; k < nodes_; ++k) {
    const double z =
        zs_[k * kZRows + static_cast<std::size_t>(iz - kHalfBoxZMin)];
    for (std::size_t t = offset_[k]; t < offset_[k + 1]; ++t) {
      const double xre = xr[2 * t], xim = xr[2 * t + 1];
      const double yre = yr[2 * t], yim = yr[2 * t + 1];
      const double fr = z * (xre * yre - xim * yim);
      const double fi = z * (xre * yim + xim * yre);
      dst[2 * t] += src[2 * t] * fr - src[2 * t + 1] * fi;
      dst[2 * t + 1] += src[2 * t] * fi + src[2 * t + 1] * fr;
    }
  }
}

void PlaneWaveOperators::i2l(CoeffSpan x, PlaneWaveLocal layout,
                             CoeffVec& lrot) const {
  AMTFMM_ASSERT(x.size() == size_);
  lrot.assign(sq_count(p_), cdouble{});
  const auto np = static_cast<std::size_t>(p_) + 1;
  const double* w = reinterpret_cast<const double*>(x.data());
  std::array<double, kMaxOrder + 1> fr{}, fi{};
  for (std::size_t k = 0; k < nodes_; ++k) {
    // F(k, m) = sum_{all j} W e^{ima} = sum_{stored j} e^{ima} (W + (-1)^m
    // conj W): even m see 2 Re W, odd m 2i Im W.
    fr.fill(0.0);
    fi.fill(0.0);
    for (std::size_t t = offset_[k]; t < offset_[k + 1]; ++t) {
      const double* c = cos_m_.data() + t * np;
      const double* s = sin_m_.data() + t * np;
      const double wr = 2.0 * w[2 * t], wi = 2.0 * w[2 * t + 1];
      fr[0] += wr;
      for (std::size_t m = 2; m < np; m += 2) {
        fr[m] += wr * c[m];
        fi[m] += wr * s[m];
      }
      for (std::size_t m = 1; m < np; m += 2) {
        fr[m] -= wi * s[m];
        fi[m] += wi * c[m];
      }
    }
    for (std::size_t m = 0; m < np; ++m) {
      times_minus_i_pow(static_cast<int>(m), fr[m], fi[m]);
    }
    const double* r = radial_.data() + k * tri_;
    for (int n = 0; n <= p_; ++n) {
      const double par = (n & 1) ? -1.0 : 1.0;
      for (int m = 0; m <= n; ++m) {
        const double rn = par * r[tri_index(n, m)];
        const auto mu = static_cast<std::size_t>(m);
        lrot[sq_index(n, m)] += cdouble{rn * fr[mu], rn * fi[mu]};
      }
    }
  }
  for (int n = 1; n <= p_; ++n) {
    for (int m = 1; m <= n; ++m) {
      const cdouble a = lrot[sq_index(n, m)];
      if (layout == PlaneWaveLocal::kSolid) {
        lrot[sq_index(n, -m)] = (m & 1) ? -std::conj(a) : std::conj(a);
      } else {
        lrot[sq_index(n, -m)] = a;
        lrot[sq_index(n, m)] = std::conj(a);
      }
    }
  }
}

}  // namespace amtfmm
