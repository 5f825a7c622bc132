#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "geom/vec3.hpp"
#include "math/coeffs.hpp"
#include "math/rotation.hpp"

namespace amtfmm {

/// Discretization of the Sommerfeld plane-wave representation
///
///   e^{-kappa R}/R = (1/2pi) int_0^inf (lam/mu) e^{-mu z}
///                    int_0^{2pi} e^{i lam (x cos a + y sin a)} da dlam,
///   mu = sqrt(lam^2 + kappa^2),  R = sqrt(x^2+y^2+z^2),  z > 0,
///
/// valid (to tolerance eps) over the merge-and-shift geometry z in [1, 4],
/// rho = sqrt(x^2+y^2) in [0, 4 sqrt 2], in units of the box size.  kappa = 0
/// gives the Laplace kernel 1/R.  This is the mathematical foundation of the
/// intermediate (exponential) expansions: the "I" nodes of the paper's DAG.
///
/// Nodes are generated at startup from panel Gauss-Legendre rules in lambda
/// with adaptively chosen trapezoid counts in alpha (see DESIGN.md: this is
/// our substitution for the published generalized-Gaussian tables; it meets
/// the same tolerance with more terms).
struct PlaneWaveQuadrature {
  int count = 0;                    ///< number of lambda nodes s
  std::vector<double> lambda;       ///< lambda_k (box-size units)
  std::vector<double> mu;           ///< sqrt(lambda_k^2 + kappa^2)
  std::vector<double> weight;      ///< w_k * lambda_k / mu_k  (combined weight)
  std::vector<int> m_count;        ///< angular counts M_k
  std::vector<std::size_t> offset; ///< start of node k's angular slots
  std::size_t total = 0;           ///< sum_k M_k = expansion length
  double kappa = 0.0;              ///< kappa in box-size units
  double eps = 0.0;                ///< target tolerance

  /// cos/sin tables of alpha_{k,j} = 2 pi j / M_k, laid out per offset.
  std::vector<double> cos_alpha;
  std::vector<double> sin_alpha;
};

/// Builds a quadrature for tolerance eps and (box-size-scaled) kappa.
/// kappa = 0 selects the Laplace kernel.  The Yukawa kernel calls this per
/// tree level (kappa * box_size changes with depth), which is exactly the
/// paper's "the length of the intermediate expansion depends on the depth".
PlaneWaveQuadrature make_planewave_quadrature(double eps, double kappa);

/// Direct evaluation of the discretized representation at (x, y, z) in
/// box-size units; used by tests to verify the quadrature against the
/// analytic kernel over the valid region.
double planewave_eval(const PlaneWaveQuadrature& q, double x, double y,
                      double z);

/// I->I translations live on a grid: in the frame where the direction is
/// +z, every source->target offset the DAG emits is an integer multiple of
/// half a box of the quadrature (finer) level.  List-2 offsets are
/// same-level with every component in [-3, 3] and the rotated z in {2, 3}
/// (direction classification), so in half-box units:
///   residual legs  Is -> It          (even, even, {4, 6})
///   merge legs     Is -> It(parent)  (odd, odd, {3, 5, 7})
///   shift legs     It(parent) -> It  (+-1, +-1, +-1)
/// hence |ix|, |iy| <= 7 and -1 <= iz <= 7.  An offset off this grid is an
/// invariant violation (AMTFMM_ASSERT), not a fallback path.
inline constexpr int kHalfBoxXYMax = 7;
inline constexpr int kHalfBoxZMin = -1;
inline constexpr int kHalfBoxZMax = 7;

/// Rotated half-box grid coordinates (ix, iy, iz) of a physical I->I
/// offset for direction `d` at box size `box`; asserts the grid invariant.
std::array<int, 3> halfbox_offset(Axis d, const Vec3& offset, double box);

/// Layout of a kernel's rotated local expansion, i.e. where PlaneWave-
/// Operators::i2l puts A_n^m (m >= 0) and the conjugate half.
enum class PlaneWaveLocal {
  kSolid,  ///< Laplace: Lrot_n^m = A_n^m, Lrot_n^-m = (-1)^m conj(A_n^m)
  kGamma,  ///< Yukawa:  Lrot_n^-m = A_n^m, Lrot_n^m = conj(A_n^m)
};

/// The merge-and-shift X operators (M->I, I->I, I->L) over one quadrature,
/// table driven and shared by the Laplace and Yukawa kernels: a kernel
/// supplies only its radial table R_k(n, m) and its own rotations into and
/// out of the +z frame.  Built once per quadrature in Kernel::setup; every
/// operator is const, allocation free and free of transcendental calls.
///
/// Half-spectrum layout.  For real charges the amplitudes obey
/// W(k, a + pi) = conj W(k, a), and every M_k is even, so only the nodes
/// a_{k,j} = 2 pi j / M_k with j < M_k / 2 are stored, node after node:
/// size() = total / 2.
///
/// Operators, in the +z frame (m >= 0; R_k(n, m) in tri_index layout):
///   M->I  W(k, j) = s (w_k / M_k) sum_{|m| <= p} G_k^m e^{i m a_j},
///         G_k^m = (-i)^m sum_{n >= m} R_k(n, m) Mrot_n^m.  Both kernels'
///         coefficient symmetries give G_k^-m = (-1)^m conj(G_k^m) for a
///         real field, so only m >= 0 is read.
///   I->I  W(k, j) *= zs_k[iz] xs_kj[ix] ys_kj[iy]: the separable CGR99
///         factors e^{-mu_k iz/2}, e^{i lam_k cos(a_j) ix/2},
///         e^{i lam_k sin(a_j) iy/2} on the half-box grid above.
///   I->L  A_n^m = (-1)^n sum_k R_k(n, m) (-i)^m F_k^m, with
///         F_k^m = sum_{all j} W(k, j) e^{i m a_j} and the dropped half
///         folded in as conj W.
class PlaneWaveOperators {
 public:
  /// Largest expansion order the stack-resident per-node scratch covers
  /// (10 digits -> p = 30).
  static constexpr int kMaxOrder = 30;

  PlaneWaveOperators() = default;
  /// `radial` holds R_k(n, m), q.count rows of tri_index(p, p) + 1.
  PlaneWaveOperators(const PlaneWaveQuadrature& q, int p,
                     std::vector<double> radial);

  /// Stored (half-spectrum) expansion length per direction.
  std::size_t size() const { return size_; }

  /// Rotated multipole (square layout) -> half-spectrum X, times `scale`.
  void m2i(CoeffSpan mrot, double scale, CoeffVec& out) const;
  /// inout += in translated by the physical `offset` for direction `d`.
  void i2i_acc(CoeffSpan in, Axis d, const Vec3& offset, double box,
               CoeffVec& inout) const;
  /// Half-spectrum X -> rotated local (square layout, overwritten).
  void i2l(CoeffSpan x, PlaneWaveLocal layout, CoeffVec& lrot) const;

 private:
  static constexpr std::size_t kXYRows = 2 * kHalfBoxXYMax + 1;
  static constexpr std::size_t kZRows = kHalfBoxZMax - kHalfBoxZMin + 1;

  int p_ = 0;
  std::size_t nodes_ = 0;  // lambda nodes
  std::size_t size_ = 0;   // sum_k M_k / 2
  std::size_t tri_ = 0;    // radial row length
  // Per node: first stored slot (nodes_ + 1 entries), w_k / M_k, and
  // R_k(n, m).
  std::vector<std::size_t> offset_;
  std::vector<double> weight_;
  std::vector<double> radial_;
  // Per stored slot t: cos(m a_t) and sin(m a_t), p + 1 each.
  std::vector<double> cos_m_;
  std::vector<double> sin_m_;
  // I->I factors: e^{-mu_k iz/2}, kZRows per node; (re, im) pairs of
  // e^{i lam cos(a) ix/2} and e^{i lam sin(a) iy/2}, kXYRows rows of size_.
  std::vector<double> zs_;
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace amtfmm
