// Parity suite for the table-driven, half-spectrum merge-and-shift operators
// (math/planewave.hpp PlaneWaveOperators behind LaplaceKernel and
// YukawaKernel).  The oracle is the full-spectrum, per-element form of
// M->I, I->I and I->L: every alpha node stored, trigonometry and
// exponentials evaluated per term, complex power recurrences.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/laplace.hpp"
#include "kernels/yukawa.hpp"
#include "math/bessel.hpp"
#include "math/planewave.hpp"
#include "math/special.hpp"
#include "support/rng.hpp"

namespace amtfmm {
namespace {

constexpr double kDomain = 1.0;
constexpr int kDigits = 3;

double box_size(int level) { return kDomain / static_cast<double>(1 << level); }

/// The reference's arithmetic: the same chain in extended precision over
/// the same double inputs (quadrature nodes, radial factors, rotations).
/// Evaluated in double, the reference's own per-term rounding (I->I
/// phases reach ~50 rad) differs from the table-driven chain by up to
/// 8e-13 of max |L| at the most strongly screened Yukawa level below,
/// too close to the 1e-12 gate to judge the tables by.
using Real = long double;
using RComplex = std::complex<Real>;
using XVec = std::vector<RComplex>;

/// (-i)^m for signed m ((-i)^{-1} = i).
RComplex minus_i_pow(int m) {
  switch (((m % 4) + 4) & 3) {
    case 0: return {1, 0};
    case 1: return {0, -1};
    case 2: return {-1, 0};
    default: return {0, 1};
  }
}

// --- Reference operators ---------------------------------------------------

/// The kernel's quadrature with node j + M_k/2 placed at exactly
/// -(cos a_j, sin a_j).  The generated tables round cos/sin(a_j + pi)
/// independently, and at degree p the chain is sensitive enough to such
/// one-ulp node perturbations to move max |L| by ~1e-12; the half-spectrum
/// operators use the exact antipodes, so the reference must too.
PlaneWaveQuadrature antipodal(PlaneWaveQuadrature q) {
  for (int k = 0; k < q.count; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    const auto h = static_cast<std::size_t>(q.m_count[ku] / 2);
    for (std::size_t j = 0; j < h; ++j) {
      q.cos_alpha[q.offset[ku] + j + h] = -q.cos_alpha[q.offset[ku] + j];
      q.sin_alpha[q.offset[ku] + j + h] = -q.sin_alpha[q.offset[ku] + j];
    }
  }
  return q;
}

/// Full-spectrum reference for one kernel: per-element M->I / I->I / I->L
/// over all M_k alpha nodes, with the kernel's own rotations and radial
/// factors rebuilt from their defining formulas.
class ReferenceOps {
 public:
  virtual ~ReferenceOps() = default;
  virtual const PlaneWaveQuadrature& quad(int level) const = 0;
  virtual void m2i(const CoeffVec& m, int level, Axis d, XVec& out) const = 0;
  virtual void i2l_acc(const XVec& in, Axis d, int level,
                       CoeffVec& inout) const = 0;

  /// Diagonal translation, one sin/cos/exp per term (identical in both
  /// kernels).
  void i2i_acc(const XVec& in, Axis d, const Vec3& offset, int level,
               XVec& inout) const {
    const PlaneWaveQuadrature& q = quad(level);
    const Real w = box_size(level);
    const Vec3 o = axis_to_z(d) * offset;
    const Real dz = o.z / w, dx = o.x / w, dy = o.y / w;
    for (int k = 0; k < q.count; ++k) {
      const auto ku = static_cast<std::size_t>(k);
      const Real lam = q.lambda[ku];
      const Real damp = std::exp(-Real(q.mu[ku]) * dz);
      for (int j = 0; j < q.m_count[ku]; ++j) {
        const std::size_t t = q.offset[ku] + static_cast<std::size_t>(j);
        const Real phase = lam * (dx * Real(q.cos_alpha[t]) + dy * Real(q.sin_alpha[t]));
        inout[t] += in[t] * damp * RComplex{std::cos(phase), std::sin(phase)};
      }
    }
  }

 protected:
  void build_rotations(int p) {
    p_ = p;
    for (std::size_t d = 0; d < kAllAxes.size(); ++d) {
      const Mat3 q = axis_to_z(kAllAxes[d]);
      fwd_[d] = AngularTransform(p, q);
      inv_[d] = AngularTransform(p, q.transpose());
    }
  }

  /// out(k, j) = scale w_k / M_k sum_m g(k, m) e^{i m a_j}, full spectrum.
  void synthesize(const PlaneWaveQuadrature& q, int k, const XVec& g,
                  Real scale, XVec& out) const {
    const auto ku = static_cast<std::size_t>(k);
    const int mk = q.m_count[ku];
    const Real wk = scale * Real(q.weight[ku]) / Real(mk);
    for (int j = 0; j < mk; ++j) {
      const std::size_t t = q.offset[ku] + static_cast<std::size_t>(j);
      const RComplex e{Real(q.cos_alpha[t]), Real(q.sin_alpha[t])};
      RComplex acc = g[static_cast<std::size_t>(p_)];
      RComplex ep{1, 0};
      for (int mm = 1; mm <= p_; ++mm) {
        ep *= e;
        acc += g[static_cast<std::size_t>(p_ + mm)] * ep +
               g[static_cast<std::size_t>(p_ - mm)] * std::conj(ep);
      }
      out[t] = wk * acc;
    }
  }

  /// f(m) = sum_j W(k, j) e^{sign i m a_j}, full spectrum.
  void analyze(const PlaneWaveQuadrature& q, int k, const XVec& in, int sign,
               XVec& f) const {
    const auto ku = static_cast<std::size_t>(k);
    f.assign(static_cast<std::size_t>(2 * p_ + 1), RComplex{});
    for (int j = 0; j < q.m_count[ku]; ++j) {
      const std::size_t t = q.offset[ku] + static_cast<std::size_t>(j);
      const RComplex wkj = in[t];
      RComplex e{Real(q.cos_alpha[t]), Real(q.sin_alpha[t])};
      if (sign < 0) e = std::conj(e);
      f[static_cast<std::size_t>(p_)] += wkj;
      RComplex ep{1, 0};
      for (int mm = 1; mm <= p_; ++mm) {
        ep *= e;
        f[static_cast<std::size_t>(p_ + mm)] += wkj * ep;
        f[static_cast<std::size_t>(p_ - mm)] += wkj * std::conj(ep);
      }
    }
  }

  /// Rotated multipole (double, as the kernels compute it) widened to Real.
  XVec rotate_in(const CoeffVec& m, Axis d, const std::vector<double>& g) const {
    CoeffVec mrot;
    fwd_[static_cast<std::size_t>(d)].apply(m, g, 1, mrot);
    return XVec(mrot.begin(), mrot.end());
  }

  /// inout += rotate-back(lrot), narrowing lrot to double first.
  void rotate_out(const XVec& lrot, Axis d, const std::vector<double>& g,
                  int s, CoeffVec& inout) const {
    CoeffVec narrow(lrot.size()), lback;
    for (std::size_t i = 0; i < lrot.size(); ++i) {
      narrow[i] = {static_cast<double>(lrot[i].real()),
                   static_cast<double>(lrot[i].imag())};
    }
    inv_[static_cast<std::size_t>(d)].apply(narrow, g, s, lback);
    for (std::size_t i = 0; i < lback.size(); ++i) inout[i] += lback[i];
  }

  int p_ = 0;
  std::array<AngularTransform, 6> fwd_;
  std::array<AngularTransform, 6> inv_;
};

/// Laplace: radial lam_k^n, signed (-i)^m phases, solid-harmonic weights.
class LaplaceReference final : public ReferenceOps {
 public:
  explicit LaplaceReference(const LaplaceKernel& k)
      : q_(antipodal(k.quadrature())) {
    const int p = k.order();
    build_rotations(p);
    g_multipole_.assign(sq_count(p), 0.0);
    g_local_.assign(sq_count(p), 0.0);
    for (int n = 0; n <= p; ++n) {
      for (int m = -n; m <= n; ++m) {
        const double sign = (m < 0 && (m & 1)) ? -1.0 : 1.0;
        g_multipole_[sq_index(n, m)] = sign * factorial(n - std::abs(m));
        g_local_[sq_index(n, m)] = sign / factorial(n + std::abs(m));
      }
    }
  }

  const PlaneWaveQuadrature& quad(int) const override { return q_; }

  void m2i(const CoeffVec& m, int level, Axis d, XVec& out) const override {
    out.assign(q_.total, RComplex{});
    const XVec mrot = rotate_in(m, d, g_multipole_);
    XVec g(static_cast<std::size_t>(2 * p_ + 1));
    for (int k = 0; k < q_.count; ++k) {
      const Real lam = q_.lambda[static_cast<std::size_t>(k)];
      for (int mm = -p_; mm <= p_; ++mm) {
        RComplex acc{};
        Real ln = std::pow(lam, Real(std::abs(mm)));
        for (int n = std::abs(mm); n <= p_; ++n) {
          acc += ln * mrot[sq_index(n, mm)];
          ln *= lam;
        }
        g[static_cast<std::size_t>(mm + p_)] = acc * minus_i_pow(mm);
      }
      synthesize(q_, k, g, Real(1) / Real(box_size(level)), out);
    }
  }

  void i2l_acc(const XVec& in, Axis d, int, CoeffVec& inout) const override {
    XVec lrot(sq_count(p_), RComplex{});
    XVec f;
    for (int k = 0; k < q_.count; ++k) {
      analyze(q_, k, in, +1, f);
      const Real lam = q_.lambda[static_cast<std::size_t>(k)];
      for (int n = 0; n <= p_; ++n) {
        const Real radial = std::pow(-lam, Real(n));
        for (int mm = -n; mm <= n; ++mm) {
          lrot[sq_index(n, mm)] += radial * minus_i_pow(mm) *
                                   f[static_cast<std::size_t>(mm + p_)];
        }
      }
    }
    rotate_out(lrot, d, g_local_, -1, inout);
  }

 private:
  PlaneWaveQuadrature q_;
  std::vector<double> g_multipole_, g_local_;
};

/// Yukawa: per-level radial i_n(kappa w) P_n^|m|(mu_k / kappa w),
/// (-i)^|m| phases, conjugated analysis, gamma-weighted local basis.
class YukawaReference final : public ReferenceOps {
 public:
  YukawaReference(const YukawaKernel& k, int max_level) {
    const int p = k.order();
    build_rotations(p);
    g_unit_.assign(sq_count(p), 1.0);
    gamma_.assign(sq_count(p), 0.0);
    for (int n = 0; n <= p; ++n) {
      for (int m = -n; m <= n; ++m) {
        gamma_[sq_index(n, m)] =
            (2 * n + 1) * factorial(n - std::abs(m)) / factorial(n + std::abs(m));
      }
    }
    for (int l = 0; l <= max_level; ++l) {
      const double kt = k.lambda() * box_size(l);
      std::vector<double> iv;
      sph_bessel_i(p, kt, iv);
      inorm_.push_back(iv);
      quads_.push_back(antipodal(k.quadrature(l)));
      const PlaneWaveQuadrature& q = quads_.back();
      std::vector<std::vector<double>> leg(static_cast<std::size_t>(q.count));
      for (int kk = 0; kk < q.count; ++kk) {
        legendre_table(p, q.mu[static_cast<std::size_t>(kk)] / kt,
                       leg[static_cast<std::size_t>(kk)]);
      }
      phyp_.push_back(std::move(leg));
    }
  }

  const PlaneWaveQuadrature& quad(int level) const override {
    return quads_[static_cast<std::size_t>(level)];
  }

  void m2i(const CoeffVec& m, int level, Axis d, XVec& out) const override {
    const PlaneWaveQuadrature& q = quad(level);
    out.assign(q.total, RComplex{});
    if (q.count == 0) return;
    const XVec mrot = rotate_in(m, d, g_unit_);
    const auto& norm = inorm_[static_cast<std::size_t>(level)];
    XVec g(static_cast<std::size_t>(2 * p_ + 1));
    for (int k = 0; k < q.count; ++k) {
      const auto& leg = phyp_[static_cast<std::size_t>(level)]
                             [static_cast<std::size_t>(k)];
      for (int mm = -p_; mm <= p_; ++mm) {
        const int am = std::abs(mm);
        RComplex acc{};
        for (int n = am; n <= p_; ++n) {
          acc += mrot[sq_index(n, mm)] * Real(norm[static_cast<std::size_t>(n)]) *
                 Real(leg[tri_index(n, am)]);
        }
        g[static_cast<std::size_t>(mm + p_)] = acc * minus_i_pow(am);
      }
      synthesize(q, k, g, Real(1) / Real(box_size(level)), out);
    }
  }

  void i2l_acc(const XVec& in, Axis d, int level,
               CoeffVec& inout) const override {
    const PlaneWaveQuadrature& q = quad(level);
    if (q.count == 0) return;
    const auto& norm = inorm_[static_cast<std::size_t>(level)];
    XVec lrot(sq_count(p_), RComplex{});
    XVec f;
    for (int k = 0; k < q.count; ++k) {
      analyze(q, k, in, -1, f);
      const auto& leg = phyp_[static_cast<std::size_t>(level)]
                             [static_cast<std::size_t>(k)];
      for (int n = 0; n <= p_; ++n) {
        const Real par = (n & 1) ? -1 : 1;
        for (int mm = -n; mm <= n; ++mm) {
          const int am = std::abs(mm);
          lrot[sq_index(n, mm)] += par * Real(norm[static_cast<std::size_t>(n)]) *
                                   Real(leg[tri_index(n, am)]) *
                                   minus_i_pow(am) *
                                   f[static_cast<std::size_t>(mm + p_)];
        }
      }
    }
    rotate_out(lrot, d, gamma_, 1, inout);
  }

 private:
  std::vector<PlaneWaveQuadrature> quads_;
  std::vector<double> g_unit_, gamma_;
  std::vector<std::vector<double>> inorm_;
  std::vector<std::vector<std::vector<double>>> phyp_;
};

// --- The offsets the DAG can emit -------------------------------------------

/// Every rotated half-box offset of an I->I edge, from the list geometry
/// (DESIGN.md, "X operators"): list-2 offsets t are same-level with
/// t_x, t_y in [-3, 3] and t_z in {2, 3} once rotated into the direction's
/// frame; a child c sits at (+-1/2, +-1/2, +-1/2) boxes from its parent.
///   residual Is -> It:         2 t
///   merge    Is -> It(parent): 2 t - 2 (c - parent)
///   shift    It(parent) -> It: 2 (c - parent)
std::vector<std::array<int, 3>> dag_offsets() {
  std::set<std::array<int, 3>> s;
  for (int tz = 2; tz <= 3; ++tz) {
    for (int tx = -3; tx <= 3; ++tx) {
      for (int ty = -3; ty <= 3; ++ty) {
        s.insert({2 * tx, 2 * ty, 2 * tz});
        for (int cx : {-1, 1}) {
          for (int cy : {-1, 1}) {
            for (int cz : {-1, 1}) {
              s.insert({2 * tx - cx, 2 * ty - cy, 2 * tz - cz});
              s.insert({cx, cy, cz});
            }
          }
        }
      }
    }
  }
  return {s.begin(), s.end()};
}

/// Physical offset whose rotated half-box coordinates are `g`.
Vec3 physical_offset(Axis d, const std::array<int, 3>& g, int level) {
  const double h = 0.5 * box_size(level);
  return axis_to_z(d).transpose() * Vec3{g[0] * h, g[1] * h, g[2] * h};
}

template <typename V>
double max_abs(const V& v) {
  double m = 0.0;
  for (const auto& c : v) m = std::max(m, static_cast<double>(std::abs(c)));
  return m;
}

/// max_j |W(k, j + M_k/2) - conj W(k, j)| relative to max |W|.
double antisymmetry(const PlaneWaveQuadrature& q, const XVec& w) {
  double worst = 0.0;
  for (int k = 0; k < q.count; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    const auto h = static_cast<std::size_t>(q.m_count[ku] / 2);
    for (std::size_t j = 0; j < h; ++j) {
      const std::size_t t = q.offset[ku] + j;
      worst = std::max(worst, static_cast<double>(
                                  std::abs(w[t + h] - std::conj(w[t]))));
    }
  }
  return worst / std::max(max_abs(w), 1e-300);
}

/// Worst deviation of the stored half from the reference's first half,
/// relative to max |reference|.
double half_mismatch(const PlaneWaveQuadrature& q, const CoeffVec& half,
                     const XVec& full) {
  double worst = 0.0;
  std::size_t t = 0;
  for (int k = 0; k < q.count; ++k) {
    const auto ku = static_cast<std::size_t>(k);
    for (int j = 0; j < q.m_count[ku] / 2; ++j, ++t) {
      const RComplex h{half[t].real(), half[t].imag()};
      worst = std::max(worst, static_cast<double>(std::abs(
                                  h - full[q.offset[ku] +
                                           static_cast<std::size_t>(j)])));
    }
  }
  return worst / std::max(max_abs(full), 1e-300);
}

/// A multipole of real charges of both signs in a level-`level` box.
CoeffVec source_multipole(const Kernel& k, int level, std::uint64_t seed) {
  const double w = box_size(level);
  const Vec3 c{0.5 * w, 0.5 * w, 0.5 * w};
  Rng rng(seed);
  std::vector<Vec3> pts;
  std::vector<double> q;
  for (int i = 0; i < 25; ++i) {
    pts.push_back(c + Vec3{rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5),
                           rng.uniform(-0.5, 0.5)} *
                          w);
    q.push_back(rng.uniform(-1.0, 1.0));
  }
  CoeffVec m;
  k.s2m(pts, q, c, level, m);
  return m;
}

/// Runs the table-driven chain and the reference chain for every axis and
/// every DAG offset at `level`.  Each comparison is relative to the max
/// modulus of the reference vector: the stored X half after M->I and after
/// I->I, the L coefficients after I->L, and the reference's conjugate
/// symmetry W(a + pi) = conj W(a).  All within 1e-12.
void check_parity(const Kernel& k, const ReferenceOps& ref, int level) {
  const PlaneWaveQuadrature& q = ref.quad(level);
  ASSERT_EQ(k.x_count(level), q.total / 2);
  const CoeffVec m = source_multipole(k, level, 100 + level);
  const auto offsets = dag_offsets();
  double worst_l = 0.0, worst_x = 0.0, worst_sym = 0.0;
  std::string where;
  for (const Axis d : kAllAxes) {
    CoeffVec x;
    XVec xref;
    k.m2i(m, level, d, x);
    ref.m2i(m, level, d, xref);
    ASSERT_EQ(x.size(), q.total / 2);
    worst_x = std::max(worst_x, half_mismatch(q, x, xref));
    worst_sym = std::max(worst_sym, antisymmetry(q, xref));
    for (const auto& g : offsets) {
      const Vec3 off = physical_offset(d, g, level);
      CoeffVec xin(k.x_count(level), cdouble{});
      k.i2i_acc(x, d, off, level, xin);
      CoeffVec l(k.l_count(level), cdouble{});
      k.i2l_acc(xin, d, level, l);

      XVec xin_ref(q.total);
      ref.i2i_acc(xref, d, off, level, xin_ref);
      worst_sym = std::max(worst_sym, antisymmetry(q, xin_ref));
      worst_x = std::max(worst_x, half_mismatch(q, xin, xin_ref));
      CoeffVec lref(k.l_count(level), cdouble{});
      ref.i2l_acc(xin_ref, d, level, lref);

      double diff = 0.0;
      for (std::size_t i = 0; i < l.size(); ++i) {
        diff = std::max(diff, std::abs(l[i] - lref[i]));
      }
      const double rel = q.count == 0 ? diff : diff / max_abs(lref);
      if (rel > worst_l) {
        worst_l = rel;
        std::ostringstream os;
        os << "axis " << static_cast<int>(d) << " offset (" << g[0] << ","
           << g[1] << "," << g[2] << ")";
        where = os.str();
      }
    }
  }
  EXPECT_LE(worst_l, 1e-12) << k.name() << " level " << level << " at "
                            << where;
  EXPECT_LE(worst_x, 1e-12) << k.name() << " level " << level;
  EXPECT_LE(worst_sym, 1e-12) << k.name() << " level " << level;
}

TEST(XOperatorParity, DagOffsetsSpanTheDocumentedGrid) {
  int xy = 0, zmin = 0, zmax = 0;
  for (const auto& g : dag_offsets()) {
    xy = std::max({xy, std::abs(g[0]), std::abs(g[1])});
    zmin = std::min(zmin, g[2]);
    zmax = std::max(zmax, g[2]);
  }
  EXPECT_EQ(xy, kHalfBoxXYMax);
  EXPECT_EQ(zmin, kHalfBoxZMin);
  EXPECT_EQ(zmax, kHalfBoxZMax);
}

TEST(XOperatorParity, LaplaceMatchesFullSpectrumReference) {
  LaplaceKernel k;
  k.setup(kDomain, 3, kDigits);
  const LaplaceReference ref(k);
  EXPECT_EQ(k.x_count(3), k.quadrature().total / 2);
  check_parity(k, ref, 3);
}

TEST(XOperatorParity, YukawaMatchesFullSpectrumReference) {
  YukawaKernel k(2.0);
  k.setup(kDomain, 3, kDigits);
  const YukawaReference ref(k, 3);
  check_parity(k, ref, 3);
}

TEST(XOperatorParity, YukawaWithEmptyAndNonEmptyLevels) {
  // kappa w >= ln(100/eps) empties the quadrature: levels 0-1 here, while
  // levels 2-3 keep plane waves.
  YukawaKernel k(30.0);
  k.setup(kDomain, 3, kDigits);
  const YukawaReference ref(k, 3);
  for (int level = 0; level <= 3; ++level) {
    const bool empty = level <= 1;
    EXPECT_EQ(k.quadrature(level).count == 0, empty) << "level " << level;
    EXPECT_EQ(k.x_count(level) == 0, empty) << "level " << level;
    check_parity(k, ref, level);
  }
}

TEST(XOperatorParityDeathTest, OffGridTranslationAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char* name : {"laplace", "yukawa"}) {
    auto k = make_kernel(name, 2.0);
    k->setup(kDomain, 3, kDigits);
    const double w = box_size(3);
    const CoeffVec x(k->x_count(3), cdouble{});
    CoeffVec xin(k->x_count(3), cdouble{});
    EXPECT_DEATH(k->i2i_acc(x, Axis::kPlusZ, Vec3{0, 0, 1.3 * w}, 3, xin),
                 "off the half-box grid")
        << name;
    EXPECT_DEATH(k->i2i_acc(x, Axis::kPlusX, Vec3{2 * w, 0.25 * w, 0}, 3, xin),
                 "off the half-box grid")
        << name;
    EXPECT_DEATH(k->i2i_acc(x, Axis::kPlusZ, Vec3{0, 0, 4 * w}, 3, xin),
                 "outside the merge-and-shift grid")
        << name;
    EXPECT_DEATH(k->i2i_acc(x, Axis::kMinusY, Vec3{0, w, 0}, 3, xin),
                 "outside the merge-and-shift grid")
        << name;
  }
}

}  // namespace
}  // namespace amtfmm
