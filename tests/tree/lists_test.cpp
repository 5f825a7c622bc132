#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "geom/distributions.hpp"
#include "tree/lists.hpp"

namespace amtfmm {
namespace {

/// Geometric oracle for the adjacency build_lists decides on integer box
/// positions: true if the two cubes touch or overlap (share at least a
/// boundary point), i.e. they are NOT well separated.  Boxes of one domain
/// sit on a shared dyadic grid, so two of them either touch or are at
/// least one smaller-box width apart, while a face coordinate carries
/// ulp(|x|) of rounding that can exceed any fixed share of a deep box far
/// from the origin; a gap under 1e-3 of the smaller cube counts as
/// touching.
bool cubes_adjacent(const Cube& a, const Cube& b) {
  const double eps = 1e-3 * std::min(a.size, b.size);
  const Vec3 ahi = a.high(), bhi = b.high();
  const double dx = std::max({a.low.x - bhi.x, b.low.x - ahi.x, 0.0});
  const double dy = std::max({a.low.y - bhi.y, b.low.y - ahi.y, 0.0});
  const double dz = std::max({a.low.z - bhi.z, b.low.z - ahi.z, 0.0});
  return dx <= eps && dy <= eps && dz <= eps;
}

TEST(CubesAdjacent, BasicGeometry) {
  const Cube a{{0, 0, 0}, 1.0};
  EXPECT_TRUE(cubes_adjacent(a, a));
  EXPECT_TRUE(cubes_adjacent(a, Cube{{1.0, 0, 0}, 1.0}));     // face touch
  EXPECT_TRUE(cubes_adjacent(a, Cube{{1.0, 1.0, 1.0}, 1.0})); // corner touch
  EXPECT_FALSE(cubes_adjacent(a, Cube{{2.0, 0, 0}, 1.0}));    // one gap
  EXPECT_TRUE(cubes_adjacent(a, Cube{{0.25, 0.25, 0.25}, 0.25}));  // nested
  EXPECT_TRUE(cubes_adjacent(a, Cube{{1.0, 0.5, 0.5}, 0.125}));    // small touch
  EXPECT_FALSE(cubes_adjacent(a, Cube{{1.5, 0, 0}, 0.25}));
}

/// How a case reshapes both of its ensembles.
enum class Reshape : std::int32_t {
  kNone,
  kFar,         ///< translated by (1e5, 1e5, 1e5): face coordinates round
  kCoincident,  ///< every source and target at one point
};

struct ListsCase {
  Distribution src_dist;
  Distribution tgt_dist;
  Vec3 tgt_offset;  // shift making ensembles overlap partially or fully
  int threshold;
  Reshape reshape;
  std::uint64_t seed;
};
// gtest names each case by its parameter bytes.  `reshape` occupies the 4
// bytes between `threshold` and `seed` that were padding, so the struct has
// none and stays 48 bytes, and the existing cases keep their names.
static_assert(sizeof(ListsCase) == 48);

/// The case's two ensembles (4000 sources, 3000 targets).  Coincident
/// ensembles refine to the tree's level cap, 20.
DualTree make_case(const ListsCase& c, std::uint64_t seed, int localities) {
  Rng rng(seed);
  const Vec3 shift =
      c.reshape == Reshape::kFar ? Vec3{1e5, 1e5, 1e5} : Vec3{};
  auto src = generate_points(c.src_dist, 4000, rng, shift);
  auto tgt = generate_points(c.tgt_dist, 3000, rng, shift + c.tgt_offset);
  const bool coincident = c.reshape == Reshape::kCoincident;
  if (coincident) {
    const Vec3 p = src[0];
    std::fill(src.begin(), src.end(), p);
    std::fill(tgt.begin(), tgt.end(), p);
  }
  DualTree dt = build_dual_tree(src, tgt, c.threshold, localities);
  if (coincident) {
    EXPECT_EQ(dt.source.max_level(), 20);
    EXPECT_EQ(dt.target.max_level(), 20);
  }
  return dt;
}

class ListsProperty : public ::testing::TestWithParam<ListsCase> {};

/// The fundamental correctness property of the adaptive FMM decomposition:
/// for every target leaf, walking the root-to-leaf path and summing the
/// source points covered by l2/l4 at each ancestor plus l1/l3 at the leaf
/// accounts for every source point exactly once.
TEST_P(ListsProperty, EverySourceCoveredExactlyOnce) {
  const ListsCase c = GetParam();
  const DualTree dt = make_case(c, c.seed, 2);
  const InteractionLists lists = build_lists(dt);

  const auto& tb = dt.target.boxes();
  const auto& sb = dt.source.boxes();
  auto box_points = [&](const std::vector<BoxIndex>& v) {
    std::size_t n = 0;
    for (BoxIndex s : v) n += sb[s].count;
    return n;
  };

  std::size_t checked = 0;
  for (BoxIndex b = 0; b < tb.size(); ++b) {
    if (!tb[b].is_leaf()) continue;
    // Also verify that pruned interior boxes have no deeper lists.
    std::size_t covered = box_points(lists.l1[b]) + box_points(lists.l3[b]);
    for (BoxIndex a = b;; a = tb[a].parent) {
      covered += box_points(lists.l4[a]);
      for (const List2Entry& e : lists.l2[a]) covered += sb[e.src].count;
      if (a == dt.target.root()) break;
    }
    EXPECT_EQ(covered, dt.source.num_points()) << "target leaf " << b;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST_P(ListsProperty, GeometricConditionsHold) {
  const ListsCase c = GetParam();
  const DualTree dt = make_case(c, c.seed + 100, 1);
  const InteractionLists lists = build_lists(dt);
  const auto& tb = dt.target.boxes();
  const auto& sb = dt.source.boxes();

  for (BoxIndex b = 0; b < tb.size(); ++b) {
    for (const List2Entry& e : lists.l2[b]) {
      const TreeBox& s = sb[e.src];
      EXPECT_EQ(s.level, tb[b].level) << "l2 entries are same-level";
      EXPECT_FALSE(cubes_adjacent(s.cube, tb[b].cube));
      const int mx = std::max({std::abs(e.di), std::abs(e.dj), std::abs(e.dk)});
      EXPECT_GE(mx, 2);
      EXPECT_LE(mx, 3);
      // The offset encodes the actual center displacement.
      const Vec3 d = s.cube.center() - tb[b].cube.center();
      EXPECT_NEAR(d.x, e.di * tb[b].cube.size, 1e-9);
      EXPECT_NEAR(d.y, e.dj * tb[b].cube.size, 1e-9);
      EXPECT_NEAR(d.z, e.dk * tb[b].cube.size, 1e-9);
    }
    for (const BoxIndex s : lists.l1[b]) {
      EXPECT_TRUE(sb[s].is_leaf());
      EXPECT_TRUE(cubes_adjacent(sb[s].cube, tb[b].cube));
      EXPECT_TRUE(tb[b].is_leaf());
    }
    for (const BoxIndex s : lists.l3[b]) {
      EXPECT_TRUE(tb[b].is_leaf());
      EXPECT_FALSE(cubes_adjacent(sb[s].cube, tb[b].cube));
      // Parent of an l3 box is adjacent: the multipole is valid at b but
      // b's local expansion would not converge (that is why it is M->T).
      EXPECT_TRUE(cubes_adjacent(sb[sb[s].parent].cube, tb[b].cube));
      EXPECT_LT(sb[s].cube.size, tb[b].cube.size);
    }
    for (const BoxIndex s : lists.l4[b]) {
      EXPECT_TRUE(sb[s].is_leaf());
      EXPECT_FALSE(cubes_adjacent(sb[s].cube, tb[b].cube));
      if (b != dt.target.root()) {
        EXPECT_TRUE(cubes_adjacent(sb[s].cube, tb[tb[b].parent].cube));
      }
      EXPECT_GT(sb[s].cube.size, tb[b].cube.size);
    }
    if (!lists.dag_leaf[b] && !tb[b].is_leaf()) {
      // Non-pruned interior boxes must not carry leaf-only lists.
      EXPECT_TRUE(lists.l1[b].empty());
      EXPECT_TRUE(lists.l3[b].empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ListsProperty,
    ::testing::Values(
        // identical-style ensembles (same distribution, overlapping)
        ListsCase{Distribution::kCube, Distribution::kCube, {0, 0, 0}, 30, Reshape::kNone, 1},
        // partially overlapping
        ListsCase{Distribution::kCube, Distribution::kCube, {0.6, 0.2, 0}, 30, Reshape::kNone, 2},
        // disjoint ensembles (exercises dual-tree pruning)
        ListsCase{Distribution::kCube, Distribution::kCube, {2.5, 0, 0}, 30, Reshape::kNone, 3},
        // adaptive sphere data against cube targets
        ListsCase{Distribution::kSphere, Distribution::kCube, {0, 0, 0}, 60, Reshape::kNone, 4},
        ListsCase{Distribution::kSphere, Distribution::kSphere, {0, 0, 0}, 60, Reshape::kNone, 5},
        // tiny threshold -> deep trees
        ListsCase{Distribution::kPlummer, Distribution::kCube, {0.1, 0, 0}, 4, Reshape::kNone, 6},
        // deep trees far from the origin
        ListsCase{Distribution::kPlummer, Distribution::kPlummer, {0.01, -0.02, 0.005}, 4, Reshape::kFar, 7},
        // all points in one depth-20 leaf
        ListsCase{Distribution::kCube, Distribution::kCube, {0, 0, 0}, 30, Reshape::kCoincident, 8}));

TEST(Lists, DisjointFarEnsemblesPruneTargetTree) {
  Rng rng(9);
  const auto src = generate_points(Distribution::kCube, 3000, rng);
  const auto tgt = generate_points(Distribution::kCube, 3000, rng, {6, 0, 0});
  const DualTree dt = build_dual_tree(src, tgt, 30, 1);
  const InteractionLists lists = build_lists(dt);
  // Some interior target box must be marked as a dag leaf (pruned).
  bool pruned_interior = false;
  for (BoxIndex b = 0; b < dt.target.boxes().size(); ++b) {
    if (lists.dag_leaf[b] && !dt.target.box(b).is_leaf()) pruned_interior = true;
  }
  EXPECT_TRUE(pruned_interior);
}

}  // namespace
}  // namespace amtfmm
