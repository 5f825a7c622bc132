#include "tree/lists.hpp"

#include <cmath>

#include "support/error.hpp"

namespace amtfmm {
namespace {

/// Traversal state: builds lists for every target box given, per box, the
/// set of source boxes adjacent to its parent.
class ListBuilder {
 public:
  ListBuilder(const DualTree& dt, InteractionLists& out)
      : src_(dt.source), tgt_(dt.target), out_(out) {}

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
    const BoxIndex sroot = src_.root();
    if (tb.is_leaf()) {
      out_.dag_leaf[tgt_.root()] = 1;
      descend_near(tgt_.root(), sroot);
    } else {
      std::vector<BoxIndex> adj{sroot};
      // The source root acts as the "parent-level adjacent" seed.
      for (const BoxIndex c : tb.child) {
        if (c != kNoBox) visit(c, adj);
      }
    }
  }

 private:
  /// parent_adj: source boxes adjacent to parent(b), one level coarser than
  /// b (or coarser leaves deferred from higher up).
  void visit(BoxIndex b, const std::vector<BoxIndex>& parent_adj) {
    const TreeBox& box = tgt_.box(b);
    std::vector<BoxIndex> my_adj;
    for (const BoxIndex e : parent_adj) {
      const TreeBox& src = src_.box(e);
      if (src.is_leaf()) {
        // A coarser (or parent-level) source leaf: either still near (defer
        // to children) or resolved here through list 4.
        if (cubes_adjacent(src.cube, box.cube)) {
          my_adj.push_back(e);
        } else {
          out_.l4[b].push_back(e);
        }
        continue;
      }
      for (const BoxIndex c : src.child) {
        if (c == kNoBox) continue;
        const TreeBox& cb = src_.box(c);
        if (cubes_adjacent(cb.cube, box.cube)) {
          my_adj.push_back(c);
        } else if (cb.level == box.level) {
          out_.l2[b].push_back(make_l2(c, b));
        } else {
          // A non-leaf source deeper than b can only appear when b is a
          // leaf, which is handled by descend_near; a coarser non-leaf is
          // expanded above.  Same-level is the only case here.
          AMTFMM_ASSERT(false);
        }
      }
    }
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
    const TreeBox& box = tgt_.box(b);
    if (src.is_leaf()) {
      out_.l1[b].push_back(s);
      return;
    }
    for (const BoxIndex c : src.child) {
      if (c == kNoBox) continue;
      if (cubes_adjacent(src_.box(c).cube, box.cube)) {
        descend_near(b, c);
      } else {
        out_.l3[b].push_back(c);
      }
    }
  }

  List2Entry make_l2(BoxIndex s, BoxIndex b) const {
    const TreeBox& src = src_.box(s);
    const TreeBox& tgt = tgt_.box(b);
    const double w = tgt.cube.size;
    const Vec3 d = src.cube.center() - tgt.cube.center();
    auto q = [&](double v) {
      return static_cast<std::int8_t>(std::lround(v / w));
    };
    return List2Entry{s, q(d.x), q(d.y), q(d.z)};
  }

  const Tree& src_;
  const Tree& tgt_;
  InteractionLists& out_;
};

}  // namespace

bool cubes_adjacent(const Cube& a, const Cube& b) {
  // Distance between the two axis-aligned cubes.  Boxes of one domain cube
  // sit on a shared dyadic grid, so two of them either touch or are at
  // least one smaller-box width apart, while a face coordinate carries
  // ulp(|x|) of rounding that can exceed any fixed share of a deep box far
  // from the origin.  Snapping at 1e-3 of the smaller box still tells
  // every gap from a touch and sits far above that noise.
  const double eps = 1e-3 * std::min(a.size, b.size);
  const Vec3 ahi = a.high(), bhi = b.high();
  const double dx = std::max({a.low.x - bhi.x, b.low.x - ahi.x, 0.0});
  const double dy = std::max({a.low.y - bhi.y, b.low.y - ahi.y, 0.0});
  const double dz = std::max({a.low.z - bhi.z, b.low.z - ahi.z, 0.0});
  return dx <= eps && dy <= eps && dz <= eps;
}

std::size_t InteractionLists::total_l1() const {
  std::size_t n = 0;
  for (const auto& v : l1) n += v.size();
  return n;
}
std::size_t InteractionLists::total_l2() const {
  std::size_t n = 0;
  for (const auto& v : l2) n += v.size();
  return n;
}
std::size_t InteractionLists::total_l3() const {
  std::size_t n = 0;
  for (const auto& v : l3) n += v.size();
  return n;
}
std::size_t InteractionLists::total_l4() const {
  std::size_t n = 0;
  for (const auto& v : l4) n += v.size();
  return n;
}

InteractionLists build_lists(const DualTree& dt) {
  InteractionLists out;
  ListBuilder(dt, out).run();
  return out;
}

}  // namespace amtfmm
