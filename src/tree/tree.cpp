#include "tree/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "geom/morton.hpp"
#include "support/error.hpp"

namespace amtfmm {
namespace {

constexpr int kMaxLevel = 20;  // Morton keys carry 21 levels; keep margin

/// Extracts the octant of a key at `level` (level 1 = children of root).
int octant_at(std::uint64_t key, int level) {
  return static_cast<int>((key >> (3 * (21 - level))) & 7u);
}

}  // namespace

Tree Tree::build(std::span<const Vec3> points, const Cube& domain,
                 int threshold, int num_localities) {
  AMTFMM_ASSERT(threshold >= 1);
  AMTFMM_ASSERT(num_localities >= 1);
  Tree t;
  t.domain_ = domain;
  t.num_localities_ = static_cast<std::uint32_t>(num_localities);
  t.threshold_ = threshold;

  const std::size_t n = points.size();
  std::vector<std::uint64_t> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = morton_key(points[i], domain);

  t.perm_.resize(n);
  std::iota(t.perm_.begin(), t.perm_.end(), 0u);
  std::sort(t.perm_.begin(), t.perm_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return keys[a] < keys[b]; });

  t.sorted_.resize(n);
  t.skeys_.resize(n);
  std::vector<std::uint64_t>& skeys = t.skeys_;
  for (std::size_t i = 0; i < n; ++i) {
    t.sorted_[i] = points[t.perm_[i]];
    skeys[i] = keys[t.perm_[i]];
  }

  // Iterative refinement with an explicit work stack.  Child point ranges
  // are found by binary search on the sorted keys.
  struct Work {
    BoxIndex box;
  };
  t.boxes_.push_back(TreeBox{});
  t.boxes_[0].cube = domain;
  t.boxes_[0].first = 0;
  t.boxes_[0].count = static_cast<std::uint32_t>(n);
  std::vector<Work> stack{{0}};
  while (!stack.empty()) {
    const BoxIndex bi = stack.back().box;
    stack.pop_back();
    // Copy the POD fields we need; boxes_ may reallocate below.
    const std::uint32_t first = t.boxes_[bi].first;
    const std::uint32_t count = t.boxes_[bi].count;
    const std::uint16_t level = t.boxes_[bi].level;
    const Cube cube = t.boxes_[bi].cube;
    t.max_level_ = std::max(t.max_level_, static_cast<int>(level));
    if (count <= static_cast<std::uint32_t>(threshold) || level >= kMaxLevel) {
      continue;  // leaf
    }
    const int child_level = level + 1;
    std::uint32_t begin = first;
    const std::uint32_t end = first + count;
    for (int oct = 0; oct < 8 && begin < end; ++oct) {
      // Range of keys whose octant at child_level equals oct.
      std::uint32_t stop = begin;
      if (octant_at(skeys[begin], child_level) == oct) {
        // Binary search for the end of this octant run.
        std::uint32_t lo = begin, hi = end;
        while (lo < hi) {
          const std::uint32_t mid = lo + (hi - lo) / 2;
          if (octant_at(skeys[mid], child_level) <= oct) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        stop = lo;
      }
      if (stop == begin) continue;  // empty child pruned
      TreeBox cb;
      cb.cube = cube.child(oct);
      cb.parent = bi;
      cb.first = begin;
      cb.count = stop - begin;
      cb.level = static_cast<std::uint16_t>(child_level);
      const BoxIndex ci = static_cast<BoxIndex>(t.boxes_.size());
      t.boxes_.push_back(cb);
      t.boxes_[bi].child[static_cast<std::size_t>(oct)] = ci;
      t.boxes_[bi].num_children++;
      stack.push_back({ci});
      begin = stop;
    }
    AMTFMM_ASSERT_MSG(begin == end, "child ranges must cover the parent");
  }

  // Locality assignment: contiguous Morton chunks of points; a box belongs
  // to the locality owning its median point (leaf expansions are thereby
  // pinned to the data distribution, the paper's placement constraint).
  for (auto& b : t.boxes_) {
    const std::uint32_t median = b.first + b.count / 2;
    b.locality = t.point_locality(b.count == 0 ? b.first : median);
  }
  return t;
}

std::optional<TreeUpdateStats> Tree::update(
    std::span<const PointMove> moves, std::span<const std::uint32_t> erased,
    std::span<const Vec3> inserted) {
  TreeUpdateStats stats;
  if (moves.empty() && erased.empty() && inserted.empty()) {
    return stats;  // empty dirty set: nothing to re-sort, structure intact
  }
  const std::uint32_t n = static_cast<std::uint32_t>(sorted_.size());
  for (std::size_t i = 0; i < erased.size(); ++i) {
    AMTFMM_ASSERT(erased[i] < n);
    AMTFMM_ASSERT_MSG(i == 0 || erased[i - 1] < erased[i],
                      "erased indices must be sorted and unique");
  }

  std::vector<std::uint32_t> slot_of(n);
  for (std::uint32_t i = 0; i < n; ++i) slot_of[perm_[i]] = i;

  // Leaf covering every slot (leaf ranges partition the sorted order).
  std::vector<BoxIndex> leaf_of(n);
  for (BoxIndex bi = 0; bi < boxes_.size(); ++bi) {
    const TreeBox& b = boxes_[bi];
    if (!b.is_leaf()) continue;
    for (std::uint32_t s = b.first; s < b.first + b.count; ++s) {
      leaf_of[s] = bi;
    }
  }

  // Root descent by octant; kNoBox when the path enters a pruned (empty)
  // region — a fresh build would create boxes there.
  auto descend = [&](std::uint64_t key) -> BoxIndex {
    BoxIndex bi = 0;
    while (!boxes_[bi].is_leaf()) {
      const int oct = octant_at(key, boxes_[bi].level + 1);
      const BoxIndex ci = boxes_[bi].child[static_cast<std::size_t>(oct)];
      if (ci == kNoBox) return kNoBox;
      bi = ci;
    }
    return bi;
  };

  // Vector-erase renumbering of a surviving original index.
  auto renumber = [&](std::uint32_t orig) {
    const auto it = std::lower_bound(erased.begin(), erased.end(), orig);
    return orig - static_cast<std::uint32_t>(it - erased.begin());
  };

  // Staging: nothing below mutates the tree until every feasibility check
  // has passed, so a nullopt return leaves the tree untouched.
  struct Arrival {
    std::uint64_t key;
    Vec3 pos;
    std::uint32_t orig;  ///< post-renumbering original index
  };
  std::vector<bool> gone(n, false);  ///< slot erased or moved away
  std::vector<std::vector<Arrival>> arrivals(boxes_.size());
  std::vector<std::int64_t> delta(boxes_.size(), 0);
  std::vector<bool> dirty(boxes_.size(), false);

  for (std::uint32_t o : erased) {
    const std::uint32_t s = slot_of[o];
    gone[s] = true;
    delta[leaf_of[s]] -= 1;
    dirty[leaf_of[s]] = true;
  }
  stats.erased = erased.size();

  for (const PointMove& m : moves) {
    AMTFMM_ASSERT(m.index < n);
    const std::uint32_t s = slot_of[m.index];
    AMTFMM_ASSERT_MSG(!gone[s], "point moved twice or erased-and-moved");
    if (!domain_.contains(m.position)) return std::nullopt;
    const std::uint64_t key = morton_key(m.position, domain_);
    const BoxIndex dst = descend(key);
    if (dst == kNoBox) return std::nullopt;
    gone[s] = true;
    delta[leaf_of[s]] -= 1;
    dirty[leaf_of[s]] = true;
    arrivals[dst].push_back({key, m.position, renumber(m.index)});
    delta[dst] += 1;
    dirty[dst] = true;
  }
  stats.moved = moves.size();

  const std::uint32_t base = n - static_cast<std::uint32_t>(erased.size());
  for (std::size_t j = 0; j < inserted.size(); ++j) {
    if (!domain_.contains(inserted[j])) return std::nullopt;
    const std::uint64_t key = morton_key(inserted[j], domain_);
    const BoxIndex dst = descend(key);
    if (dst == kNoBox) return std::nullopt;
    arrivals[dst].push_back(
        {key, inserted[j], base + static_cast<std::uint32_t>(j)});
    delta[dst] += 1;
    dirty[dst] = true;
  }
  stats.inserted = inserted.size();

  // Feasibility: the new counts must reproduce the classification a fresh
  // build would make — refine iff count > threshold below the level cap,
  // prune empty children.  Parents precede children in boxes_, so a
  // reverse walk sums bottom-up.
  std::vector<std::uint32_t> ncount(boxes_.size(), 0);
  for (BoxIndex bi = static_cast<BoxIndex>(boxes_.size()); bi-- > 0;) {
    const TreeBox& b = boxes_[bi];
    if (b.is_leaf()) {
      const std::int64_t c = static_cast<std::int64_t>(b.count) + delta[bi];
      if (c <= 0) return std::nullopt;  // leaf would be pruned
      if (c > threshold_ && b.level < kMaxLevel) return std::nullopt;
      ncount[bi] = static_cast<std::uint32_t>(c);
      // Internal counts are sums of leaf counts: they change only with one.
      if (delta[bi] != 0) stats.counts_changed = true;
    } else {
      std::uint64_t c = 0;
      for (BoxIndex ci : b.child) {
        if (ci != kNoBox) c += ncount[ci];
      }
      // An internal box at or below the threshold would be a leaf.
      if (c <= static_cast<std::uint64_t>(threshold_)) return std::nullopt;
      ncount[bi] = static_cast<std::uint32_t>(c);
    }
  }

  // Commit.  Rebuild the sorted arrays leaf by leaf in `first` order so
  // parent ranges stay contiguous and nested; within one leaf every key
  // shares the leaf's Morton prefix, so a per-leaf sort by full key
  // reproduces the global sorted order.
  std::vector<BoxIndex> leaves;
  for (BoxIndex bi = 0; bi < boxes_.size(); ++bi) {
    if (boxes_[bi].is_leaf()) leaves.push_back(bi);
  }
  std::sort(leaves.begin(), leaves.end(), [&](BoxIndex a, BoxIndex b) {
    return boxes_[a].first < boxes_[b].first;
  });

  const std::size_t n_new = base + inserted.size();
  std::vector<Vec3> nsorted;
  std::vector<std::uint64_t> nskeys;
  std::vector<std::uint32_t> nperm;
  nsorted.reserve(n_new);
  nskeys.reserve(n_new);
  nperm.reserve(n_new);

  struct Entry {
    std::uint64_t key;
    Vec3 pos;
    std::uint32_t orig;
  };
  std::vector<Entry> ents;
  for (BoxIndex bi : leaves) {
    TreeBox& b = boxes_[bi];
    ents.clear();
    for (std::uint32_t s = b.first; s < b.first + b.count; ++s) {
      if (!gone[s]) ents.push_back({skeys_[s], sorted_[s], renumber(perm_[s])});
    }
    for (const Arrival& a : arrivals[bi]) {
      ents.push_back({a.key, a.pos, a.orig});
    }
    if (dirty[bi]) {
      ++stats.dirty_leaves;
      std::sort(ents.begin(), ents.end(),
                [](const Entry& x, const Entry& y) { return x.key < y.key; });
    }
    b.first = static_cast<std::uint32_t>(nsorted.size());
    b.count = static_cast<std::uint32_t>(ents.size());
    for (const Entry& e : ents) {
      nsorted.push_back(e.pos);
      nskeys.push_back(e.key);
      nperm.push_back(e.orig);
    }
  }
  AMTFMM_ASSERT(nsorted.size() == n_new);
  sorted_ = std::move(nsorted);
  skeys_ = std::move(nskeys);
  perm_ = std::move(nperm);

  // Internal ranges from the new leaf ranges, bottom-up.
  for (BoxIndex bi = static_cast<BoxIndex>(boxes_.size()); bi-- > 0;) {
    TreeBox& b = boxes_[bi];
    if (b.is_leaf()) continue;
    std::uint32_t first = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t count = 0;
    for (BoxIndex ci : b.child) {
      if (ci == kNoBox) continue;
      first = std::min(first, boxes_[ci].first);
      count += boxes_[ci].count;
    }
    b.first = first;
    b.count = count;
  }
  return stats;
}

std::uint32_t Tree::point_locality(std::uint32_t sorted_i) const {
  if (sorted_.empty() || num_localities_ <= 1) return 0;
  const std::size_t chunk =
      (sorted_.size() + num_localities_ - 1) / num_localities_;
  return static_cast<std::uint32_t>(sorted_i / chunk);
}

void require_finite(std::span<const Vec3> pts, const char* what) {
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const Vec3& p = pts[i];
    if (!std::isfinite(p.x) || !std::isfinite(p.y) || !std::isfinite(p.z)) {
      throw config_error(std::string("non-finite ") + what + " coordinate (" +
                         std::to_string(p.x) + ", " + std::to_string(p.y) +
                         ", " + std::to_string(p.z) + ") at index " +
                         std::to_string(i));
    }
  }
}

DualTree build_dual_tree(std::span<const Vec3> sources,
                         std::span<const Vec3> targets, int threshold,
                         int num_localities) {
  // NaN would pass bounding_cube's min/max unnoticed and reach
  // morton_key's integer cast; an infinity blows the domain up.
  require_finite(sources, "source");
  require_finite(targets, "target");
  const Cube domain = bounding_cube(sources, targets);
  DualTree dt{Tree::build(sources, domain, threshold, num_localities),
              Tree::build(targets, domain, threshold, num_localities)};
  return dt;
}

}  // namespace amtfmm
