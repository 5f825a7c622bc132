#pragma once

#include <algorithm>
#include <span>

#include "geom/vec3.hpp"

namespace amtfmm {

/// Axis-aligned cube, described by its low corner and edge length.  Tree
/// boxes are always cubes (children divide the parent equally along each
/// dimension), matching the paper's partitioning.
struct Cube {
  Vec3 low;
  double size = 0.0;

  Vec3 center() const { return low + Vec3{size, size, size} * 0.5; }
  Vec3 high() const { return low + Vec3{size, size, size}; }

  /// Radius of the circumscribing sphere (half the diagonal).
  double radius() const { return 0.5 * size * std::sqrt(3.0); }

  /// Child cube for octant index in [0, 8): bit 0 = x-high, bit 1 = y-high,
  /// bit 2 = z-high.
  Cube child(int octant) const {
    const double h = 0.5 * size;
    return Cube{{low.x + ((octant & 1) ? h : 0.0),
                 low.y + ((octant & 2) ? h : 0.0),
                 low.z + ((octant & 4) ? h : 0.0)},
                h};
  }

  bool contains(const Vec3& p) const {
    const Vec3 h = high();
    return p.x >= low.x && p.x <= h.x && p.y >= low.y && p.y <= h.y &&
           p.z >= low.z && p.z <= h.z;
  }
};

/// Smallest cube containing every point of both spans: the computational
/// domain of a dual-tree evaluation.  Expanded by a small relative margin so
/// points on the boundary fall strictly inside.
inline Cube bounding_cube(std::span<const Vec3> a, std::span<const Vec3> b) {
  Vec3 lo{1e300, 1e300, 1e300};
  Vec3 hi{-1e300, -1e300, -1e300};
  auto absorb = [&](const Vec3& p) {
    lo.x = std::min(lo.x, p.x);
    lo.y = std::min(lo.y, p.y);
    lo.z = std::min(lo.z, p.z);
    hi.x = std::max(hi.x, p.x);
    hi.y = std::max(hi.y, p.y);
    hi.z = std::max(hi.z, p.z);
  };
  for (const auto& p : a) absorb(p);
  for (const auto& p : b) absorb(p);
  const double size =
      std::max({hi.x - lo.x, hi.y - lo.y, hi.z - lo.z, 1e-12});
  const double margin = 1e-6 * size;
  const Vec3 mid = (lo + hi) * 0.5;
  const double s = size + 2.0 * margin;
  return Cube{mid - Vec3{s, s, s} * 0.5, s};
}

}  // namespace amtfmm
