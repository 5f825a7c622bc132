// Incremental Tree::update: structure-preserving point moves, balanced
// erase/insert, the empty fast path, and exact parity with a full rebuild
// of the patched ensemble — plus the guaranteed rebuild fallbacks.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

#include "geom/distributions.hpp"
#include "tree/tree.hpp"

namespace amtfmm {
namespace {

constexpr int kThreshold = 40;
constexpr int kLocalities = 4;

struct Ensemble {
  std::vector<Vec3> pts;
  Cube domain;
  Tree tree;
};

Ensemble make_ensemble(std::uint64_t seed, std::size_t n = 4000) {
  Rng rng(seed);
  Ensemble e{generate_points(Distribution::kCube, n, rng), {}, {}};
  e.domain = bounding_cube(e.pts, {});
  e.tree = Tree::build(e.pts, e.domain, kThreshold, kLocalities);
  return e;
}

/// Leaf box containing sorted point i.
BoxIndex leaf_of(const Tree& t, std::uint32_t sorted_i) {
  BoxIndex b = t.root();
  for (;;) {
    const TreeBox& box = t.box(b);
    if (box.is_leaf()) return b;
    BoxIndex next = kNoBox;
    for (const BoxIndex c : box.child) {
      if (c == kNoBox) continue;
      const TreeBox& cb = t.box(c);
      if (sorted_i >= cb.first && sorted_i < cb.first + cb.count) next = c;
    }
    if (next == kNoBox) return b;
    b = next;
  }
}

/// A jittered position strictly inside `cube` (same leaf by construction).
Vec3 inside(const Cube& cube, Rng& rng) {
  const Vec3 c = cube.center();
  const double h = 0.4 * cube.size;
  return {c.x + (rng.uniform() - 0.5) * h, c.y + (rng.uniform() - 0.5) * h,
          c.z + (rng.uniform() - 0.5) * h};
}

/// Applies the documented renumbering to an original-order point array.
std::vector<Vec3> patch(std::vector<Vec3> pts,
                        const std::vector<PointMove>& moves,
                        const std::vector<std::uint32_t>& erased,
                        const std::vector<Vec3>& inserted) {
  for (const PointMove& m : moves) pts[m.index] = m.position;
  for (std::size_t i = erased.size(); i-- > 0;) {
    pts.erase(pts.begin() + erased[i]);
  }
  pts.insert(pts.end(), inserted.begin(), inserted.end());
  return pts;
}

/// The updated tree must be indistinguishable from a fresh build of the
/// patched ensemble over the same fixed domain.
void expect_matches_fresh_build(const Tree& got,
                                const std::vector<Vec3>& patched,
                                const Cube& domain) {
  const Tree want = Tree::build(patched, domain, kThreshold, kLocalities);
  ASSERT_EQ(got.boxes().size(), want.boxes().size());
  for (BoxIndex b = 0; b < want.boxes().size(); ++b) {
    const TreeBox &g = got.box(b), &w = want.box(b);
    EXPECT_EQ(g.parent, w.parent) << "box " << b;
    EXPECT_EQ(g.child, w.child) << "box " << b;
    EXPECT_EQ(g.first, w.first) << "box " << b;
    EXPECT_EQ(g.count, w.count) << "box " << b;
    EXPECT_EQ(g.level, w.level) << "box " << b;
    EXPECT_EQ(g.num_children, w.num_children) << "box " << b;
  }
  ASSERT_EQ(got.num_points(), want.num_points());
  EXPECT_EQ(got.sorted_keys(), want.sorted_keys());
  // The permutation must map sorted positions back to the patched array.
  for (std::size_t i = 0; i < got.num_points(); ++i) {
    const Vec3 p = patched[got.original_index()[i]];
    EXPECT_EQ(got.sorted_points()[i].x, p.x);
    EXPECT_EQ(got.sorted_points()[i].y, p.y);
    EXPECT_EQ(got.sorted_points()[i].z, p.z);
  }
}

TEST(TreeUpdate, EmptyUpdateIsAFastPathNoOp) {
  Ensemble e = make_ensemble(1);
  const auto before = e.tree.sorted_keys();
  const auto r = e.tree.update({}, {}, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->dirty_leaves, 0u);
  EXPECT_EQ(r->moved, 0u);
  EXPECT_FALSE(r->counts_changed);
  EXPECT_EQ(e.tree.sorted_keys(), before);
  expect_matches_fresh_build(e.tree, e.pts, e.domain);
}

TEST(TreeUpdate, InLeafMovesPreserveStructure) {
  Ensemble e = make_ensemble(2);
  Rng rng(77);
  // Jitter ~5% of the points inside their current leaf cube: counts are
  // untouched, so the incremental path must always succeed.
  std::vector<PointMove> moves;
  for (std::uint32_t s = 0; s < e.tree.num_points(); s += 20) {
    const Cube leaf = e.tree.box(leaf_of(e.tree, s)).cube;
    moves.push_back({e.tree.original_index()[s], inside(leaf, rng)});
  }
  const auto r = e.tree.update(moves, {}, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->moved, moves.size());
  EXPECT_GT(r->dirty_leaves, 0u);
  EXPECT_FALSE(r->counts_changed);
  expect_matches_fresh_build(e.tree, patch(e.pts, moves, {}, {}), e.domain);
}

TEST(TreeUpdate, RandomizedMoveInsertEraseMatchesRebuild) {
  Ensemble e = make_ensemble(3);
  Rng rng(99);
  // Several rounds of mixed updates on the SAME tree: in-leaf moves plus
  // balanced erase/insert pairs within one leaf (leaf counts unchanged).
  auto pts = e.pts;
  for (int round = 0; round < 4; ++round) {
    std::vector<PointMove> moves;
    std::vector<std::uint32_t> erased;
    std::vector<Vec3> inserted;
    std::set<std::uint32_t> moved;
    for (int k = 0; k < 40; ++k) {
      const auto s =
          static_cast<std::uint32_t>(rng.below(e.tree.num_points()));
      const std::uint32_t o = e.tree.original_index()[s];
      if (!moved.insert(o).second) continue;  // one move per point
      const Cube leaf = e.tree.box(leaf_of(e.tree, s)).cube;
      moves.push_back({o, inside(leaf, rng)});
    }
    for (int k = 0; k < 10; ++k) {
      const auto s =
          static_cast<std::uint32_t>(rng.below(e.tree.num_points()));
      const std::uint32_t o = e.tree.original_index()[s];
      if (std::find(erased.begin(), erased.end(), o) != erased.end()) {
        continue;
      }
      // Drop moves aimed at an erased point: erase wins, and keeping both
      // would make the expected patch ambiguous.
      std::erase_if(moves, [o](const PointMove& m) { return m.index == o; });
      erased.push_back(o);
      inserted.push_back(inside(e.tree.box(leaf_of(e.tree, s)).cube, rng));
    }
    std::sort(erased.begin(), erased.end());
    const auto r = e.tree.update(moves, erased, inserted);
    ASSERT_TRUE(r.has_value()) << "round " << round;
    EXPECT_EQ(r->erased, erased.size());
    EXPECT_EQ(r->inserted, inserted.size());
    EXPECT_FALSE(r->counts_changed) << "round " << round;
    pts = patch(std::move(pts), moves, erased, inserted);
    expect_matches_fresh_build(e.tree, pts, e.domain);
  }
}

TEST(TreeUpdate, CrossLeafMoveReportsChangedCounts) {
  Ensemble e = make_ensemble(4);
  Rng rng(5);
  // One point moved between two sibling leaves: their parent's count stays,
  // so the update is incremental, but both leaf counts change.
  std::vector<PointMove> moves;
  for (BoxIndex b = 0; b < e.tree.boxes().size() && moves.empty(); ++b) {
    for (const BoxIndex from : e.tree.box(b).child) {
      for (const BoxIndex to : e.tree.box(b).child) {
        if (from == kNoBox || to == kNoBox || from == to || !moves.empty()) {
          continue;
        }
        const TreeBox& a = e.tree.box(from);
        const TreeBox& c = e.tree.box(to);
        if (!a.is_leaf() || !c.is_leaf() || a.count < 2 ||
            c.count >= static_cast<std::uint32_t>(kThreshold)) {
          continue;
        }
        moves.push_back(
            {e.tree.original_index()[a.first], inside(c.cube, rng)});
      }
    }
  }
  ASSERT_EQ(moves.size(), 1u);
  const auto r = e.tree.update(moves, {}, {});
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->counts_changed);
  expect_matches_fresh_build(e.tree, patch(e.pts, moves, {}, {}), e.domain);
}

TEST(TreeUpdate, OutOfDomainMoveFallsBackUntouched) {
  Ensemble e = make_ensemble(4);
  const auto keys_before = e.tree.sorted_keys();
  const std::size_t boxes_before = e.tree.boxes().size();
  const std::vector<PointMove> moves{
      {0, {e.domain.center().x + e.domain.size * 10, 0, 0}}};
  EXPECT_FALSE(e.tree.update(moves, {}, {}).has_value());
  // Failed updates must leave the tree exactly as it was.
  EXPECT_EQ(e.tree.sorted_keys(), keys_before);
  EXPECT_EQ(e.tree.boxes().size(), boxes_before);
}

TEST(TreeUpdate, OverfillingALeafFallsBack) {
  Ensemble e = make_ensemble(5);
  Rng rng(5);
  // Pour threshold+1 new points into one leaf: a fresh build would refine
  // it, so the structure-preserving path must refuse.
  const Cube leaf = e.tree.box(leaf_of(e.tree, 0)).cube;
  std::vector<Vec3> inserted;
  for (int k = 0; k < kThreshold + 1; ++k) inserted.push_back(inside(leaf, rng));
  EXPECT_FALSE(e.tree.update({}, {}, inserted).has_value());
}

TEST(TreeUpdate, EmptyingALeafFallsBack) {
  Ensemble e = make_ensemble(6);
  // Erase every point of the leaf holding sorted point 0: a fresh build
  // would prune the box.
  const TreeBox& leaf = e.tree.box(leaf_of(e.tree, 0));
  std::vector<std::uint32_t> erased;
  for (std::uint32_t s = leaf.first; s < leaf.first + leaf.count; ++s) {
    erased.push_back(e.tree.original_index()[s]);
  }
  std::sort(erased.begin(), erased.end());
  EXPECT_FALSE(e.tree.update({}, erased, {}).has_value());
}

}  // namespace
}  // namespace amtfmm
