#include "tree/lists.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace amtfmm {
namespace {

/// Integer position of a box on its level's grid: the box spans
/// [i, i + 1] x [j, j + 1] x [k, k + 1] in units of the level's box width.
/// Levels stop at 20, so every coordinate scaled to the finest level still
/// fits 32 bits.
struct Anchor {
  std::uint32_t i = 0, j = 0, k = 0;
  std::uint32_t level = 0;
};

/// Anchors of every box, derived from the child octants (bit 0 = x-high,
/// bit 1 = y-high, bit 2 = z-high, as in Cube::child).  A child is stored
/// after its parent, so one forward pass anchors every parent first.
std::vector<Anchor> box_anchors(const Tree& t) {
  std::vector<Anchor> a(t.boxes().size());
  for (BoxIndex p = 0; p < a.size(); ++p) {
    const Anchor ap = a[p];
    for (std::uint32_t oct = 0; oct < 8; ++oct) {
      const BoxIndex c = t.box(p).child[oct];
      if (c == kNoBox) continue;
      AMTFMM_ASSERT(c > p);
      a[c] = {2 * ap.i + (oct & 1u), 2 * ap.j + ((oct >> 1) & 1u),
              2 * ap.k + (oct >> 2), ap.level + 1};
    }
  }
  return a;
}

/// True if the two boxes touch or overlap (share at least a boundary
/// point), i.e. they are NOT well separated.  Exact: both closed extents
/// are compared on the finer box's grid.
bool touching(const Anchor& a, const Anchor& b) {
  const std::uint32_t level = std::max(a.level, b.level);
  const std::uint32_t sa = level - a.level, sb = level - b.level;
  auto axis = [&](std::uint32_t x, std::uint32_t y) {
    return (x << sa) <= ((y + 1) << sb) && (y << sb) <= ((x + 1) << sa);
  };
  return axis(a.i, b.i) && axis(a.j, b.j) && axis(a.k, b.k);
}

/// Traversal state: builds lists for every target box given, per box, the
/// set of source boxes adjacent to its parent.
class ListBuilder {
 public:
  ListBuilder(const DualTree& dt, InteractionLists& out)
      : src_(dt.source),
        tgt_(dt.target),
        out_(out),
        src_at_(box_anchors(dt.source)),
        tgt_at_(box_anchors(dt.target)),
        adj_(static_cast<std::size_t>(dt.target.max_level()) + 1) {
    const Cube& a = src_.domain();
    const Cube& b = tgt_.domain();
    AMTFMM_ASSERT_MSG(a.low.x == b.low.x && a.low.y == b.low.y &&
                          a.low.z == b.low.z && a.size == b.size,
                      "dual trees must share one domain cube");
  }

  void run() {
    const std::size_t nt = tgt_.boxes().size();
    out_.l1.resize(nt);
    out_.l2.resize(nt);
    out_.l3.resize(nt);
    out_.l4.resize(nt);
    out_.dag_leaf.assign(nt, 0);
    if (src_.num_points() == 0 || tgt_.num_points() == 0) {
      // Degenerate: everything is a dag leaf with empty lists.
      for (std::size_t b = 0; b < nt; ++b) out_.dag_leaf[b] = 1;
      return;
    }
    // Roots share the domain cube, hence are adjacent by construction.
    const TreeBox& tb = tgt_.box(tgt_.root());
    if (tb.is_leaf()) {
      out_.dag_leaf[tgt_.root()] = 1;
      descend_near(tgt_.root(), src_.root());
      return;
    }
    // The source root acts as the "parent-level adjacent" seed.
    adj_[0] = {src_.root()};
    for (const BoxIndex c : tb.child) {
      if (c != kNoBox) visit(c, adj_[0]);
    }
  }

 private:
  /// parent_adj: source boxes adjacent to parent(b), one level coarser than
  /// b (or coarser leaves deferred from higher up).  b's own adjacency set
  /// goes to the buffer of b's level, reused by every box of that level.
  void visit(BoxIndex b, const std::vector<BoxIndex>& parent_adj) {
    const TreeBox& box = tgt_.box(b);
    const Anchor& ta = tgt_at_[b];
    std::vector<BoxIndex>& my_adj = adj_[box.level];
    my_adj.clear();
    l2_.clear();
    for (const BoxIndex e : parent_adj) {
      const TreeBox& src = src_.box(e);
      if (src.is_leaf()) {
        // A coarser (or parent-level) source leaf: either still near (defer
        // to children) or resolved here through list 4.
        if (touching(src_at_[e], ta)) {
          my_adj.push_back(e);
        } else {
          out_.l4[b].push_back(e);
        }
        continue;
      }
      for (const BoxIndex c : src.child) {
        if (c == kNoBox) continue;
        const Anchor& sa = src_at_[c];
        if (touching(sa, ta)) {
          my_adj.push_back(c);
        } else {
          // A non-leaf source deeper than b can only appear when b is a
          // leaf, which is handled by descend_near; a coarser non-leaf is
          // expanded above.  Same-level is the only case here.
          AMTFMM_ASSERT(sa.level == ta.level);
          l2_.push_back(List2Entry{c, offset(sa.i, ta.i), offset(sa.j, ta.j),
                                   offset(sa.k, ta.k)});
        }
      }
    }
    out_.l2[b].assign(l2_.begin(), l2_.end());
    if (box.is_leaf()) {
      out_.dag_leaf[b] = 1;
      for (const BoxIndex e : my_adj) descend_near(b, e);
      return;
    }
    if (my_adj.empty()) {
      // Dual-tree pruning: no adjacent source at this level means every
      // deeper interaction is already resolved; stop refining the DAG here.
      out_.dag_leaf[b] = 1;
      return;
    }
    for (const BoxIndex c : box.child) {
      if (c != kNoBox) visit(c, my_adj);
    }
  }

  /// b is a target leaf; s is a source box adjacent to b (same level as b
  /// or deeper as we recurse).  Collects list 1 and list 3.
  void descend_near(BoxIndex b, BoxIndex s) {
    const TreeBox& src = src_.box(s);
    if (src.is_leaf()) {
      out_.l1[b].push_back(s);
      return;
    }
    for (const BoxIndex c : src.child) {
      if (c == kNoBox) continue;
      if (touching(src_at_[c], tgt_at_[b])) {
        descend_near(b, c);
      } else {
        out_.l3[b].push_back(c);
      }
    }
  }

  /// Source-minus-target offset in box widths along one axis.
  static std::int8_t offset(std::uint32_t s, std::uint32_t t) {
    return static_cast<std::int8_t>(static_cast<int>(s) - static_cast<int>(t));
  }

  const Tree& src_;
  const Tree& tgt_;
  InteractionLists& out_;
  std::vector<Anchor> src_at_;
  std::vector<Anchor> tgt_at_;
  std::vector<std::vector<BoxIndex>> adj_;  ///< adjacency set per level
  std::vector<List2Entry> l2_;              ///< list 2 of the visited box
};

}  // namespace

std::size_t InteractionLists::total_l2() const {
  std::size_t n = 0;
  for (const auto& v : l2) n += v.size();
  return n;
}

InteractionLists build_lists(const DualTree& dt) {
  InteractionLists out;
  ListBuilder(dt, out).run();
  return out;
}

}  // namespace amtfmm
