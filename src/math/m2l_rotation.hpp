#pragma once

#include <vector>

#include "geom/vec3.hpp"
#include "math/rotation.hpp"

namespace amtfmm {

/// One M2L interaction direction from the precomputed offset set.
struct M2LDirection {
  int theta_class;  ///< index of the shared polar-rotation pair
  int dist_class;   ///< index of the |nu| distance class
  cdouble phase;    ///< e^{i phi}, azimuth of the offset direction
};

/// Precomputed rotation plans for the rotation-based ("point-and-shoot")
/// M2L of both kernels.
///
/// In the advanced method every M2L edge connects same-level boxes of one
/// shared domain cube, so the translation vector is an exact integer
/// multiple nu of the box size with |nu_i| <= 3 and max_i |nu_i| >= 2 —
/// the 316 offsets enumerated here.  For each offset the rotation taking
/// nu to +z is factored as Q = R_y(-theta) R_z(-phi); the azimuthal part
/// acts as a diagonal phase on the coefficients, so only one
/// AngularTransform pair per *distinct polar angle* is stored
/// (~50 classes instead of ~290 directions), keyed by the exact rational
/// cos^2(theta) = nu_z^2 / |nu|^2.
///
/// Kernels use it as:
///   rotate_forward(dir, M, g, s, Mrot)   // multipole into the nu->z frame
///   ... kernel-specific axial translation, O(p^3) ...
///   rotate_inverse(dir, Lrot, g, s, L)   // local back into the grid frame
/// with the same (g, s) basis-weight conventions as AngularTransform.
class M2LRotationSet {
 public:
  M2LRotationSet() = default;
  /// Builds the transforms up to order p for all tabulated offsets.
  explicit M2LRotationSet(int p);

  int order() const { return p_; }

  /// Looks up the direction plan for the translation `to - from` between
  /// boxes of edge length `box_size`.  Dies on an offset that is not one
  /// of the tabulated integer offsets (off the box grid, adjacent, or
  /// beyond 3 boxes): no M2L edge of an FMM DAG takes one.
  const M2LDirection& find(const Vec3& to_minus_from, double box_size) const;

  std::size_t dist_class_count() const { return dists_.size(); }
  /// |nu| of the class, in box units.
  double dist(int dist_class) const {
    return dists_[static_cast<std::size_t>(dist_class)];
  }

  /// Rotates multipole-type coefficients into the frame where the offset
  /// direction is +z (diagonal pre-phase, then the polar block transform).
  void rotate_forward(const M2LDirection& dir, CoeffSpan in,
                      const std::vector<double>& g, int s,
                      CoeffVec& out) const;
  /// Rotates local-type coefficients back into the grid frame (polar block
  /// transform of the inverse rotation, then diagonal post-phase).
  void rotate_inverse(const M2LDirection& dir, CoeffSpan in,
                      const std::vector<double>& g, int s,
                      CoeffVec& out) const;

 private:
  int p_ = -1;
  // lut_[(x+3)*49 + (y+3)*7 + (z+3)] -> index into dirs_, or -1.
  std::vector<int> lut_;
  std::vector<M2LDirection> dirs_;
  // Per theta class: transforms for R_y(-theta) (forward) and R_y(theta)
  // (inverse).
  std::vector<std::pair<AngularTransform, AngularTransform>> thetas_;
  std::vector<double> dists_;
};

}  // namespace amtfmm
