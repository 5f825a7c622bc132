#pragma once

#include <array>

#include "kernels/kernel.hpp"
#include "math/m2l_rotation.hpp"
#include "math/planewave.hpp"

namespace amtfmm {

/// Laplace kernel 1/r: electrostatics / Newtonian gravity (the paper's
/// scale-invariant interaction).
///
/// Multipole/local expansions use the normalized solid harmonics of
/// math/solid.hpp with per-level scale equal to the box size, so all stored
/// coefficients stay O(q).  The intermediate expansions are plane-wave
/// (exponential) expansions on the numerically generated Sommerfeld
/// quadrature of math/planewave.hpp; because 1/r is scale invariant, a
/// single quadrature serves every tree level.
///
/// Operator algebra (derived and verified in tests/math/solid_test.cpp and
/// tests/kernels/laplace_test.cpp); hats denote per-level scaled bases:
///   S2M:  Mh_n^m = sum_s q_s conj(Rh_n^m(s - c))
///   M2M:  Mh'_v^u += sum conj(Rh_{v-n}^{u-m}(t; sp)) (sc/sp)^n Mh_n^m
///   M2L:  Lh_j^k += (-1)^j / s * sum Mh_n^m Sh_{n+j}^{m+k}(t; s)
///   S2L:  Lh_j^k += q (-1)^j Sh_j^k(c - p; s) / s
///   L2L:  Lh'_i^l += (sc/sp)^i sum conj(Rh_{j-i}^{k-l}(u; sp)) Lh_j^k
///   M2I / I2I / I2L: the shared half-spectrum operators of
///         math/planewave.hpp (PlaneWaveOperators) with the radial table
///         R_k(n, m) = lam_k^n, between rotations into and out of the
///         direction's +z frame.
class LaplaceKernel final : public Kernel {
 public:
  std::string name() const override { return "laplace"; }
  void setup(double domain_size, int max_level, int accuracy_digits) override;

  std::size_t m_count(int) const override { return sq_count(p_); }
  std::size_t l_count(int) const override { return sq_count(p_); }
  std::size_t x_count(int) const override { return pw_.size(); }
  std::size_t m_wire_bytes(int) const override { return wire_bytes(p_); }
  std::size_t l_wire_bytes(int) const override { return wire_bytes(p_); }
  bool supports_merge_and_shift() const override { return true; }

  // Solid-harmonic bases: c_n^{-m} = (-1)^m conj(c_n^m) on the wire.
  void pack_m(CoeffSpan full, int, std::byte* out) const override {
    pack_symmetric(p_, full, out);
  }
  void unpack_m(std::span<const std::byte> wire, int,
                CoeffVec& out) const override {
    unpack_symmetric(p_, /*condon_phase=*/true, wire, out);
  }
  void pack_l(CoeffSpan full, int, std::byte* out) const override {
    pack_symmetric(p_, full, out);
  }
  void unpack_l(std::span<const std::byte> wire, int,
                CoeffVec& out) const override {
    unpack_symmetric(p_, /*condon_phase=*/true, wire, out);
  }

  double direct(const Vec3& t, const Vec3& s) const override;
  bool supports_gradient() const override { return true; }
  Vec3 direct_grad(const Vec3& t, const Vec3& s) const override;
  void s2t_batch(const simd::P2PBatch& b) const override {
    simd::p2p_laplace(b);
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
  Vec3 l2t_grad(CoeffSpan in, const Vec3& center, int level,
                const Vec3& t) const override;

  void m2i(CoeffSpan m, int level, Axis d, CoeffVec& out) const override;
  void i2i_acc(CoeffSpan in, Axis d, const Vec3& offset, int level,
               CoeffVec& inout) const override;
  void i2l_acc(CoeffSpan in, Axis d, int level,
               CoeffVec& inout) const override;

  int order() const { return p_; }
  const PlaneWaveQuadrature& quadrature() const { return quad_; }

 private:
  double scale(int level) const;
  void m2l_naive(CoeffSpan in, const Vec3& from, const Vec3& to,
                 int level, CoeffVec& inout) const;
  void m2l_rotated(const M2LDirection& dir, CoeffSpan in, int level,
                   CoeffVec& inout) const;

  int p_ = 9;
  double domain_size_ = 1.0;
  PlaneWaveQuadrature quad_;
  PlaneWaveOperators pw_;
  M2LRotationSet m2l_rot_;
  // Per distance class: F_l = l! / |nu|^{l+1} for l = 0..2p, the axial
  // irregular-solid values (level independent in box units).
  std::vector<std::vector<double>> m2l_axial_;
  std::array<AngularTransform, 6> fwd_;  // indexed by Axis
  std::array<AngularTransform, 6> inv_;
  std::vector<double> g_multipole_;  // S-basis angular weights
  std::vector<double> g_local_;      // conj(R)-basis angular weights
};

}  // namespace amtfmm
