#pragma once

#include <array>

#include "geom/vec3.hpp"
#include "math/coeffs.hpp"

namespace amtfmm {

/// 3x3 rotation matrix acting on Vec3 (row-major).
struct Mat3 {
  std::array<double, 9> a{1, 0, 0, 0, 1, 0, 0, 0, 1};

  Vec3 operator*(const Vec3& v) const {
    return {a[0] * v.x + a[1] * v.y + a[2] * v.z,
            a[3] * v.x + a[4] * v.y + a[5] * v.z,
            a[6] * v.x + a[7] * v.y + a[8] * v.z};
  }
  Mat3 transpose() const {
    return Mat3{{a[0], a[3], a[6], a[1], a[4], a[7], a[2], a[5], a[8]}};
  }
};

/// Per-degree angular transform matrices for a rotation Q:
///   A_n^m(Q^T dir) = sum_{m'} E^n_{m,m'} A_n^{m'}(dir).
/// Built in O(p^3) from the Wigner D-matrix of Q's ZYZ Euler angles,
///   E^n_{m,m'} = c_{n,|m|} sigma_m / (c_{n,|m'|} sigma_{m'}) D^n_{m'm}(Q),
/// c_{n,k} = sqrt((n+k)!/(n-k)!), sigma_m = (-1)^m for m >= 0 and 1 for
/// m < 0, with d^n(beta) from Risbo's recurrence (accurate to ~1e-14 in
/// the unit-normalized basis up to p = 30).  Only proper rotations
/// (det Q = +1) are accepted.
///
/// This is how the directional (merge-and-shift) operators reuse the
/// +z-cone exponential machinery for the other five directions: multipole
/// coefficients are rotated into a frame where the direction becomes +z,
/// the diagonal plane-wave work happens there, and local coefficients are
/// rotated back (CGR99 technique, as implemented in DASHMM).
class AngularTransform {
 public:
  AngularTransform() = default;

  /// Builds transforms up to degree p for the map Q.
  AngularTransform(int p, const Mat3& q);

  int order() const { return p_; }

  /// Transforms coefficients of a field expanded as
  ///   Phi = sum c_n^m f_n(rho) g(n,m) A_n^{s*m}(dir),   s = +1 or -1,
  /// into coefficients of Phi(Q^T x) in the same basis.  `g` is the basis
  /// weight in square layout (real), `s` selects the plain (+1, multipole /
  /// irregular) or conjugated (-1, local / conj-regular) azimuthal index.
  void apply(CoeffSpan in, const std::vector<double>& g, int s,
             CoeffVec& out) const;

 private:
  int p_ = -1;
  // blocks_[n] is a (2n+1) x (2n+1) row-major matrix, index (m+n, m'+n).
  std::vector<std::vector<cdouble>> blocks_;
};

/// Rotation about the y axis by the angle with the given cosine/sine:
/// (x, y, z) -> (x cos + z sin, y, -x sin + z cos).
Mat3 rotation_y(double cos_a, double sin_a);

/// The six axis directions of the merge-and-shift decomposition.
enum class Axis { kPlusZ, kMinusZ, kPlusY, kMinusY, kPlusX, kMinusX };

/// Orthogonal map taking the given axis direction to +z.
Mat3 axis_to_z(Axis d);

/// Unit vector of the axis.
Vec3 axis_vector(Axis d);

constexpr std::array<Axis, 6> kAllAxes = {Axis::kPlusZ,  Axis::kMinusZ,
                                          Axis::kPlusY,  Axis::kMinusY,
                                          Axis::kPlusX,  Axis::kMinusX};

}  // namespace amtfmm
