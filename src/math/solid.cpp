#include "math/solid.hpp"

#include <cmath>

#include "math/special.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {
namespace {

/// Shared scaffolding: legendre values at cos(theta) plus the azimuthal
/// phases e^{i m phi} for m = 0..p.  Both tables live in the calling
/// thread's scratch arena so repeated evaluations stay allocation free.
struct Angular {
  ScratchLease<double> leg_lease;
  ScratchLease<cdouble> phase_lease;
  std::vector<double>& legendre;
  std::vector<cdouble>& phase;  // e^{i m phi}
  double rho;

  Angular(int p, const Vec3& v)
      : leg_lease(ScratchArena::local().reals()),
        phase_lease(ScratchArena::local().coeffs()),
        legendre(*leg_lease),
        phase(*phase_lease) {
    const Spherical s = to_spherical(v);
    rho = s.r;
    legendre_table(p, s.cos_theta, legendre);
    phase.assign(static_cast<std::size_t>(p) + 1, cdouble{});
    phase[0] = 1.0;
    const cdouble e{std::cos(s.phi), std::sin(s.phi)};
    for (int m = 1; m <= p; ++m) phase[m] = phase[m - 1] * e;
  }
};

void fill_negative_m(int p, CoeffVec& out) {
  for (int n = 1; n <= p; ++n) {
    for (int m = 1; m <= n; ++m) {
      out[sq_index(n, -m)] =
          ((m & 1) ? -1.0 : 1.0) * std::conj(out[sq_index(n, m)]);
    }
  }
}

}  // namespace

void regular_solid(int p, const Vec3& v, double scale, CoeffVec& out) {
  out.assign(sq_count(p), cdouble{});
  const Angular a(p, v);
  double rn = 1.0;  // (rho/scale)^n
  const double ratio = a.rho / scale;
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      out[sq_index(n, m)] =
          rn / factorial(n + m) * a.legendre[tri_index(n, m)] * a.phase[m];
    }
    rn *= ratio;
  }
  fill_negative_m(p, out);
}

void irregular_solid(int p, const Vec3& v, double scale, CoeffVec& out) {
  out.assign(sq_count(p), cdouble{});
  const Angular a(p, v);
  AMTFMM_ASSERT_MSG(a.rho > 0.0, "irregular solid harmonic at the origin");
  // scale^{n+1} / rho^{n+1}
  double sr = scale / a.rho;
  const double ratio = scale / a.rho;
  for (int n = 0; n <= p; ++n) {
    for (int m = 0; m <= n; ++m) {
      out[sq_index(n, m)] =
          sr * factorial(n - m) * a.legendre[tri_index(n, m)] * a.phase[m];
    }
    sr *= ratio;
  }
  fill_negative_m(p, out);
}

double eval_conj_regular(int p, CoeffSpan c, const Vec3& v,
                         double scale) {
  auto r_lease = ScratchArena::local().coeffs();
  CoeffVec& r = *r_lease;
  regular_solid(p, v, scale, r);
  cdouble acc{};
  for (std::size_t i = 0; i < c.size(); ++i) acc += c[i] * std::conj(r[i]);
  return acc.real();
}

double eval_irregular(int p, CoeffSpan c, const Vec3& v, double scale) {
  auto s_lease = ScratchArena::local().coeffs();
  CoeffVec& s = *s_lease;
  irregular_solid(p, v, scale, s);
  cdouble acc{};
  for (std::size_t i = 0; i < c.size(); ++i) acc += c[i] * s[i];
  return acc.real() / scale;
}

Vec3 grad_conj_regular(int p, CoeffSpan c, const Vec3& v, double scale) {
  // d/dz conj(Rh_j^k) = conj(Rh_{j-1}^k)/s,
  // (dx - i dy) conj(Rh_j^k) = -conj(Rh_{j-1}^{k+1})/s.
  auto r_lease = ScratchArena::local().coeffs();
  CoeffVec& r = *r_lease;
  regular_solid(p, v, scale, r);
  cdouble dz{}, dxmidy{};
  for (int j = 1; j <= p; ++j) {
    for (int k = -j; k <= j; ++k) {
      const cdouble cjk = c[sq_index(j, k)];
      if (k >= -(j - 1) && k <= j - 1) {
        dz += cjk * std::conj(r[sq_index(j - 1, k)]);
      }
      if (k + 1 >= -(j - 1) && k + 1 <= j - 1) {
        dxmidy -= cjk * std::conj(r[sq_index(j - 1, k + 1)]);
      }
    }
  }
  const double inv_s = 1.0 / scale;
  return {dxmidy.real() * inv_s, -dxmidy.imag() * inv_s, dz.real() * inv_s};
}

Vec3 grad_irregular(int p, CoeffSpan c, const Vec3& v, double scale) {
  // Needs irregular harmonics to order p+1.
  auto s_lease = ScratchArena::local().coeffs();
  CoeffVec& s = *s_lease;
  irregular_solid(p + 1, v, scale, s);
  cdouble dz{}, dxmidy{};
  for (int n = 0; n <= p; ++n) {
    for (int m = -n; m <= n; ++m) {
      const cdouble cnm = c[sq_index(n, m)];
      dz -= cnm * s[sq_index(n + 1, m)];
      dxmidy += cnm * s[sq_index(n + 1, m - 1)];
    }
  }
  const double f = 1.0 / (scale * scale);
  return {dxmidy.real() * f, -dxmidy.imag() * f, dz.real() * f};
}

}  // namespace amtfmm
