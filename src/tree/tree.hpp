#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "geom/box.hpp"
#include "geom/vec3.hpp"

namespace amtfmm {

using BoxIndex = std::uint32_t;
inline constexpr BoxIndex kNoBox = std::numeric_limits<BoxIndex>::max();

/// One box of an adaptive octree.  Boxes are stored contiguously in the
/// Tree; children hold contiguous Morton-sorted point ranges nested inside
/// the parent's range.
struct TreeBox {
  Cube cube;
  BoxIndex parent = kNoBox;
  std::array<BoxIndex, 8> child{kNoBox, kNoBox, kNoBox, kNoBox,
                                kNoBox, kNoBox, kNoBox, kNoBox};
  std::uint32_t first = 0;  ///< first point (index into sorted order)
  std::uint32_t count = 0;  ///< number of points under this box
  std::uint16_t level = 0;
  std::uint8_t num_children = 0;
  std::uint32_t locality = 0;  ///< owning locality (coarse Morton partition)

  bool is_leaf() const { return num_children == 0; }
};

/// One point relocation for Tree::update: the point's index in the caller's
/// original array and its new position.
struct PointMove {
  std::uint32_t index = 0;
  Vec3 position;
};

/// What an incremental Tree::update changed.
struct TreeUpdateStats {
  std::size_t dirty_leaves = 0;  ///< leaves whose point range was re-sorted
  std::size_t moved = 0;
  std::size_t inserted = 0;
  std::size_t erased = 0;
  /// Some box's point count changed; false when every move stayed inside
  /// its own leaf, so count-derived data (the DAG's byte and cost
  /// annotations) is still current.
  bool counts_changed = false;
};

/// Adaptive octree over one point ensemble (the paper's source or target
/// tree).  Construction mirrors DASHMM's three steps (section IV):
///  1. coarse Morton sort assigning contiguous chunks to localities,
///  2. adaptive partitioning (refine while count > threshold, prune empty
///     children),
///  3. a single compact array-of-boxes representation shared by all
///     localities (our in-process stand-in for the "compactly shared"
///     exchange).
class Tree {
 public:
  /// Builds the tree.  `domain` must contain every point (use
  /// bounding_cube over both ensembles so the dual trees share a domain).
  /// `threshold` is the paper's refinement threshold (60 in all their runs).
  static Tree build(std::span<const Vec3> points, const Cube& domain,
                    int threshold, int num_localities);

  const Cube& domain() const { return domain_; }
  const std::vector<TreeBox>& boxes() const { return boxes_; }
  const TreeBox& box(BoxIndex b) const { return boxes_[b]; }
  BoxIndex root() const { return 0; }
  int max_level() const { return max_level_; }
  std::size_t num_points() const { return sorted_.size(); }

  /// Points in Morton order; box point ranges index into this.
  const std::vector<Vec3>& sorted_points() const { return sorted_; }

  /// original_index[i] = index in the caller's array of sorted point i.
  const std::vector<std::uint32_t>& original_index() const { return perm_; }

  /// Morton key of sorted point i (stored for incremental updates).
  const std::vector<std::uint64_t>& sorted_keys() const { return skeys_; }

  /// Incrementally applies point updates while preserving the box
  /// structure: moved and inserted points are routed to their leaf by key
  /// descent, erased points are dropped, and only the affected (dirty)
  /// leaves are re-sorted — clean leaf ranges are block-copied.  Original
  /// indices follow vector-erase semantics: erasing index set E shifts
  /// every surviving index o to o - |{e in E : e < o}|, and inserted
  /// points are appended after the survivors.  `erased` must be sorted and
  /// unique.
  ///
  /// Returns nullopt — with the tree untouched — whenever the update would
  /// change the box structure a fresh build would produce: a leaf emptied
  /// or pushed over the refinement threshold, an internal box falling to
  /// the threshold, a point routed into a pruned (empty) region, or a new
  /// position outside the fixed domain (a rebuild would recompute the
  /// bounding cube).  Box localities are NOT reassigned: they stay on the
  /// build-time partition, which keeps placement deterministic across
  /// ranks.
  std::optional<TreeUpdateStats> update(std::span<const PointMove> moves,
                                        std::span<const std::uint32_t> erased,
                                        std::span<const Vec3> inserted);

  /// Locality owning sorted point i (contiguous chunks).
  std::uint32_t point_locality(std::uint32_t sorted_i) const;

 private:
  Cube domain_;
  std::vector<TreeBox> boxes_;
  std::vector<Vec3> sorted_;
  std::vector<std::uint64_t> skeys_;
  std::vector<std::uint32_t> perm_;
  std::uint32_t num_localities_ = 1;
  int max_level_ = 0;
  int threshold_ = 1;
};

/// Source and target trees over a common domain: the paper's "dual tree".
struct DualTree {
  Tree source;
  Tree target;
};

/// Convenience builder handling the shared bounding cube.  Throws
/// config_error for any non-finite source or target coordinate.
DualTree build_dual_tree(std::span<const Vec3> sources,
                         std::span<const Vec3> targets, int threshold,
                         int num_localities);

/// Throws config_error unless every coordinate in `pts` is finite; `what`
/// names the points in the message.
void require_finite(std::span<const Vec3> pts, const char* what);

}  // namespace amtfmm
