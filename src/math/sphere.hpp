#pragma once

#include <span>

#include "geom/vec3.hpp"
#include "math/coeffs.hpp"

namespace amtfmm {

/// The raw angular basis used throughout the expansion math:
///   A_n^m(dir) = P_n^{|m|}(cos th) e^{i m phi},   0 <= n <= p, -n <= m <= n,
/// written in square layout (see coeffs.hpp).  Both the regular and the
/// irregular solid harmonics, and the Yukawa bases, are radial functions
/// times A_n^m times an (n, m)-dependent real weight.
void angular_basis(int p, const Vec3& dir, CoeffVec& out);

/// Product quadrature on the unit sphere (Gauss-Legendre in cos th, uniform
/// in phi) together with precomputable projection tables.  A rule of band B
/// integrates exactly any spherical polynomial of degree <= 2B+1, which
/// makes the projection of a degree-B-bandlimited field onto A_n^m exact.
///
/// This is the workhorse behind the Yukawa translation operators
/// (kernels/yukawa.cpp), which evaluate a translated expansion on a sphere
/// and project it back onto the basis (see DESIGN.md).
class SphereRule {
 public:
  /// Builds a rule exact for fields bandlimited to degree `band`.
  explicit SphereRule(int band);

  int band() const { return band_; }
  std::size_t size() const { return dirs_.size(); }
  const std::vector<Vec3>& directions() const { return dirs_; }
  const std::vector<double>& weights() const { return w_; }

  /// Builds the projection table for order pmax.  NOT thread safe; call
  /// once during setup.  project() afterwards is const and thread safe.
  void prepare(int pmax) const;

  /// Projects sampled field values f(dir_q) onto A_n^m for n <= pmax:
  ///   out[n,m] = (1/N_nm) sum_q w_q f_q conj(A_n^m(dir_q)),
  /// N_nm = 4 pi / (2n+1) * (n+|m|)!/(n-|m|)!.
  /// Exact when f is bandlimited to degree band().  Concurrent calls are
  /// safe once prepare(pmax) has run (it is invoked lazily otherwise).
  void project(std::span<const cdouble> samples, int pmax, CoeffVec& out) const;

 private:
  int band_;
  std::vector<Vec3> dirs_;
  std::vector<double> w_;
  // Lazily built projection table for the last pmax requested.
  mutable int table_p_ = -1;
  mutable std::vector<cdouble> table_;  // [q * sq_count(p) + idx]
};

}  // namespace amtfmm
