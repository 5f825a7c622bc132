#pragma once

#include <array>

#include "kernels/kernel.hpp"
#include "math/m2l_rotation.hpp"
#include "math/planewave.hpp"
#include "math/sphere.hpp"

namespace amtfmm {

/// Yukawa (screened Coulomb) kernel e^{-lambda r}/r — the paper's
/// scale-variant interaction with heavier per-operator grain size.
///
/// Expansions follow Greengard & Huang (2002): multipole expansions in the
/// singular radial functions k_n(kappa r), local expansions in the regular
/// i_n(kappa r), both rescaled per tree level by i_n(kappa w_l) so stored
/// coefficients stay O(q) at every depth.  Because kappa * box_size changes
/// with depth, the plane-wave quadrature — and hence the intermediate
/// expansion length — is level dependent, exactly the paper's observation
/// that "the length of the intermediate expansion depends on the depth in
/// the hierarchy".
///
/// M2M / M2L / L2L translations are generated numerically: the translated
/// expansion is evaluated on a sphere around the new center and projected
/// back onto the angular basis (exact for the truncated expansion up to
/// quadrature aliasing; see DESIGN.md).  This sidesteps the Gegenbauer/3j
/// recurrences while preserving the operator's accuracy and its heavier
/// cost relative to Laplace (Table II of the paper).
///
/// M2I / I2L use the analytic continuation of the Gegenbauer plane-wave
/// expansion: A_n^m evaluated at the complex direction
/// (-i lam cos a, -i lam sin a, mu)/kappa, which reduces to associated
/// Legendre functions at real argument mu/kappa > 1.  That is the kernel's
/// radial table R_k(n, m) = i_n(kappa w) P_n^m(mu_k / (kappa w)); the
/// angular synthesis/analysis and the I2I shift are the shared
/// half-spectrum PlaneWaveOperators of math/planewave.hpp, one per level.
class YukawaKernel final : public Kernel {
 public:
  explicit YukawaKernel(double lambda) : kappa_(lambda) {}

  std::string name() const override { return "yukawa"; }
  void setup(double domain_size, int max_level, int accuracy_digits) override;

  std::size_t m_count(int) const override { return sq_count(p_); }
  std::size_t l_count(int) const override { return sq_count(p_); }
  std::size_t x_count(int level) const override {
    if (pw_.empty()) return 0;  // not set up yet
    return pw_[static_cast<std::size_t>(clamped(level))].size();
  }
  std::size_t m_wire_bytes(int) const override { return wire_bytes(p_); }
  std::size_t l_wire_bytes(int) const override { return wire_bytes(p_); }
  bool supports_merge_and_shift() const override { return true; }

  // Gamma-weighted angular bases: c_n^{-m} = conj(c_n^m) on the wire.
  void pack_m(CoeffSpan full, int, std::byte* out) const override {
    pack_symmetric(p_, full, out);
  }
  void unpack_m(std::span<const std::byte> wire, int,
                CoeffVec& out) const override {
    unpack_symmetric(p_, /*condon_phase=*/false, wire, out);
  }
  void pack_l(CoeffSpan full, int, std::byte* out) const override {
    pack_symmetric(p_, full, out);
  }
  void unpack_l(std::span<const std::byte> wire, int,
                CoeffVec& out) const override {
    unpack_symmetric(p_, /*condon_phase=*/false, wire, out);
  }

  double direct(const Vec3& t, const Vec3& s) const override;
  void s2t_batch(const simd::P2PBatch& b) const override {
    simd::p2p_yukawa(b, kappa_);
  }

  void s2m(std::span<const Vec3> pts, std::span<const double> q,
           const Vec3& center, int level, CoeffVec& out) const override;
  void m2m_acc(CoeffSpan in, const Vec3& from, const Vec3& to,
               int from_level, CoeffVec& inout) const override;
  void m2l_acc(CoeffSpan in, const Vec3& from, const Vec3& to, int level,
               CoeffVec& inout) const override;
  void s2l_acc(std::span<const Vec3> pts, std::span<const double> q,
               const Vec3& center, int level, CoeffVec& inout) const override;
  double m2t(CoeffSpan in, const Vec3& center, int level,
             const Vec3& t) const override;
  void l2l_acc(CoeffSpan in, const Vec3& from, const Vec3& to,
               int to_level, CoeffVec& inout) const override;
  double l2t(CoeffSpan in, const Vec3& center, int level,
             const Vec3& t) const override;

  void m2i(CoeffSpan m, int level, Axis d, CoeffVec& out) const override;
  void i2i_acc(CoeffSpan in, Axis d, const Vec3& offset, int level,
               CoeffVec& inout) const override;
  void i2l_acc(CoeffSpan in, Axis d, int level,
               CoeffVec& inout) const override;

  int order() const { return p_; }
  double lambda() const { return kappa_; }
  const PlaneWaveQuadrature& quadrature(int level) const {
    return quads_[static_cast<std::size_t>(clamped(level))];
  }

 private:
  int clamped(int level) const;
  double box_size(int level) const;
  /// i_n(kappa * w_level) table for the level.
  const std::vector<double>& inorm(int level) const;
  void m2l_naive(CoeffSpan in, const Vec3& from, const Vec3& to,
                 int level, CoeffVec& inout) const;
  void m2l_rotated(const M2LDirection& dir, CoeffSpan in, int level,
                   CoeffVec& inout) const;
  /// Packed index of T^mu_{jn} inside a per-(level, dist) axial table.
  std::size_t axial_index(int mu, int j, int n) const {
    return mu_off_[static_cast<std::size_t>(mu)] +
           static_cast<std::size_t>(j - mu) *
               static_cast<std::size_t>(p_ + 1 - mu) +
           static_cast<std::size_t>(n - mu);
  }

  double kappa_;
  int p_ = 9;
  double domain_size_ = 1.0;
  int max_level_ = 0;
  double eps_ = 1e-4;
  std::vector<PlaneWaveQuadrature> quads_;       // per level
  std::vector<std::vector<double>> inorm_;       // per level: i_n(kappa w)
  std::vector<PlaneWaveOperators> pw_;           // per level: X-op tables
  std::vector<double> gamma_;                    // (2n+1)(n-|m|)!/(n+|m|)!
  std::array<AngularTransform, 6> fwd_;
  std::array<AngularTransform, 6> inv_;
  std::vector<double> g_unit_;   // all-ones basis weight (multipole basis)
  SphereRule proj_rule_{1};      // projection rule for numeric translations
  M2LRotationSet m2l_rot_;
  // Axial M2L translation matrices T^mu_{jn}, one packed table per
  // (level, distance class); kappa * box_size varies with depth so the
  // tables cannot be shared across levels as in the Laplace kernel.
  std::vector<std::vector<std::vector<double>>> yk_axial_;
  std::vector<std::size_t> mu_off_;  // packed offsets: sum_{a<mu} (p+1-a)^2
};

}  // namespace amtfmm
