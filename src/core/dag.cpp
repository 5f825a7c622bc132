#include "core/dag.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdlib>
#include <utility>

#include "support/error.hpp"

namespace amtfmm {

const char* to_string(NodeKind k) {
  switch (k) {
    case NodeKind::kS: return "S";
    case NodeKind::kM: return "M";
    case NodeKind::kIs: return "Is";
    case NodeKind::kIt: return "It";
    case NodeKind::kL: return "L";
    case NodeKind::kT: return "T";
  }
  return "?";
}

Method parse_method(const std::string& name) {
  if (name == "fmm") return Method::kFmmBasic;
  if (name == "fmm-advanced") return Method::kFmmAdvanced;
  if (name == "bh") return Method::kBarnesHut;
  throw config_error("unknown method: " + name +
                     " (expected fmm|fmm-advanced|bh)");
}

const char* to_string(Method m) {
  switch (m) {
    case Method::kFmmBasic: return "fmm";
    case Method::kFmmAdvanced: return "fmm-advanced";
    case Method::kBarnesHut: return "bh";
  }
  return "?";
}

Axis classify_direction(int di, int dj, int dk) {
  // Offsets are source-minus-target; the propagation direction is the
  // dominant axis of target-minus-source, priority z, y, x (CGR99).
  const int tx = -di, ty = -dj, tz = -dk;
  if (tz >= 2) return Axis::kPlusZ;
  if (tz <= -2) return Axis::kMinusZ;
  if (ty >= 2) return Axis::kPlusY;
  if (ty <= -2) return Axis::kMinusY;
  if (tx >= 2) return Axis::kPlusX;
  AMTFMM_ASSERT_MSG(tx <= -2, "list-2 offset must be well separated");
  return Axis::kMinusX;
}

namespace {

/// classify_direction over the offset cube [-3, 3]^3, which every list-2
/// offset lies in: one lookup per entry instead of the branch chain.
class DirectionTable {
 public:
  DirectionTable() {
    for (int i = -3; i <= 3; ++i) {
      for (int j = -3; j <= 3; ++j) {
        for (int k = -3; k <= 3; ++k) {
          const bool near =
              std::max({std::abs(i), std::abs(j), std::abs(k)}) < 2;
          dir_[static_cast<std::size_t>(49 * (i + 3) + 7 * (j + 3) + k + 3)] =
              near ? kNear
                   : static_cast<std::uint8_t>(classify_direction(i, j, k));
        }
      }
    }
  }
  std::uint8_t operator()(const List2Entry& e) const {
    // Shifted to [0, 6]; a negative offset wraps far above 6.
    const unsigned i = static_cast<unsigned>(e.di + 3);
    const unsigned j = static_cast<unsigned>(e.dj + 3);
    const unsigned k = static_cast<unsigned>(e.dk + 3);
    AMTFMM_ASSERT_MSG(i <= 6 && j <= 6 && k <= 6,
                      "list-2 offset outside [-3, 3]^3");
    const std::uint8_t d = dir_[49 * i + 7 * j + k];
    AMTFMM_ASSERT_MSG(d != kNear, "list-2 offset must be well separated");
    return d;
  }

 private:
  static constexpr std::uint8_t kNear = 0xff;  ///< not well separated
  std::array<std::uint8_t, 343> dir_{};
};

/// Shared builder state.  Construction runs in two passes over a single
/// edge-enumeration routine: pass 1 counts per-node out- and in-degrees,
/// pass 2 fills the CSR arrays.
class Builder {
 public:
  Builder(const DualTree& dt, const InteractionLists& lists,
          const Kernel& kernel, const DagBuildConfig& cfg, int num_localities)
      : dt_(dt),
        lists_(lists),
        kernel_(kernel),
        cfg_(cfg),
        num_localities_(num_localities) {}

  Dag run() {
    decide_nodes();
    if (cfg_.method == Method::kFmmAdvanced) plan_merges();
    create_nodes();
    // Pass 1: count out- and in-degrees into compact per-node arrays.
    const std::size_t nn = dag_.nodes.size();
    cursor_.assign(nn, 0);
    in_degree_.assign(nn, 0);
    counting_ = true;
    enumerate_edges();
    std::uint32_t total = 0;
    for (std::size_t n = 0; n < nn; ++n) {
      DagNode& node = dag_.nodes[n];
      node.first_edge = total;
      node.num_edges = cursor_[n];
      node.in_degree = in_degree_[n];
      cursor_[n] = total;  // fill cursor
      total += node.num_edges;
    }
    dag_.edges.resize(total);
    // Pass 2: fill.
    counting_ = false;
    enumerate_edges();
    place_nodes();
    validate();
    return std::move(dag_);
  }

 private:
  // --- node existence ------------------------------------------------------
  void decide_nodes() {
    const auto& sb = dt_.source.boxes();
    const auto& tb = dt_.target.boxes();
    m_needed_.assign(sb.size(), 0);
    is_needed_.assign(sb.size(), 0);
    s_used_.assign(sb.size(), 0);
    l_active_.assign(tb.size(), 0);
    it_own_.assign(tb.size(), 0);
    it_fwd_.assign(tb.size(), 0);
    on_path_.assign(tb.size(), 0);

    if (cfg_.method == Method::kBarnesHut) {
      decide_nodes_bh();
      return;
    }

    // Mark multipole roots from lists, then close downward (a box's M is
    // built from its children's Ms).
    std::vector<BoxIndex> stack;
    auto mark_m = [&](BoxIndex b) {
      if (m_needed_[b]) return;
      m_needed_[b] = 1;
      stack.push_back(b);
    };
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      for (const List2Entry& e : lists_.l2[b]) {
        mark_m(e.src);
        if (cfg_.method == Method::kFmmAdvanced) is_needed_[e.src] = 1;
      }
      for (BoxIndex s : lists_.l3[b]) mark_m(s);
    }
    while (!stack.empty()) {
      const BoxIndex b = stack.back();
      stack.pop_back();
      for (const BoxIndex c : sb[b].child) {
        if (c != kNoBox) mark_m(c);
      }
    }
    for (BoxIndex b = 0; b < sb.size(); ++b) {
      if (sb[b].is_leaf() && m_needed_[b]) s_used_[b] = 1;
    }
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      for (BoxIndex s : lists_.l1[b]) s_used_[s] = 1;
      for (BoxIndex s : lists_.l4[b]) s_used_[s] = 1;
    }

    // Target side: walk the active path (root to dag leaves), propagating
    // local-expansion activity downward.
    walk_targets(dt_.target.root(), /*parent_l=*/false);
  }

  void walk_targets(BoxIndex b, bool parent_l) {
    on_path_[b] = 1;
    const bool own_content =
        (cfg_.method == Method::kFmmAdvanced
             ? !lists_.l2[b].empty()
             : !lists_.l2[b].empty()) ||
        !lists_.l4[b].empty();
    if (cfg_.method == Method::kFmmAdvanced && !lists_.l2[b].empty()) {
      it_own_[b] = 1;
    }
    l_active_[b] = (own_content || parent_l) ? 1 : 0;
    if (lists_.dag_leaf[b]) return;
    for (const BoxIndex c : dt_.target.box(b).child) {
      if (c != kNoBox) walk_targets(c, l_active_[b] != 0);
    }
  }

  void decide_nodes_bh() {
    // Barnes-Hut: every source box carries a multipole; targets are plain
    // leaves; edges come from the acceptance traversal in enumerate_edges.
    const auto& sb = dt_.source.boxes();
    const auto& tb = dt_.target.boxes();
    for (BoxIndex b = 0; b < sb.size(); ++b) {
      m_needed_[b] = 1;
      if (sb[b].is_leaf()) s_used_[b] = 1;
    }
    for (BoxIndex b = 0; b < tb.size(); ++b) on_path_[b] = 1;
  }

  // --- merge-and-shift planning -------------------------------------------
  /// Entries [dir_first_[6b + d], dir_first_[6b + d + 1]) of dir_src_.
  std::uint32_t group_begin(BoxIndex b, std::size_t d) const {
    return dir_first_[6 * b + d];
  }
  std::uint32_t group_end(BoxIndex b, std::size_t d) const {
    return dir_first_[6 * b + d + 1];
  }

  void plan_merges() {
    const auto& tb = dt_.target.boxes();
    // List 2 regrouped by (box, direction), one classification per entry.
    dir_first_.assign(6 * tb.size() + 1, 0);
    dir_src_.resize(lists_.total_l2());
    merged_.assign(dir_src_.size(), 0);
    const DirectionTable dir_of;
    std::vector<std::uint8_t> dirs;
    std::uint32_t next = 0;
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      const std::vector<List2Entry>& l2 = lists_.l2[b];
      dirs.resize(l2.size());
      std::array<std::uint32_t, 6> at{};
      for (std::size_t i = 0; i < l2.size(); ++i) {
        dirs[i] = dir_of(l2[i]);
        ++at[dirs[i]];
      }
      for (std::size_t d = 0; d < 6; ++d) {
        dir_first_[6 * b + d] = next;
        next += std::exchange(at[d], next);
      }
      for (std::size_t i = 0; i < l2.size(); ++i) {
        dir_src_[at[dirs[i]]++] = l2[i].src;
      }
    }
    dir_first_[6 * tb.size()] = next;

    // A source box is shared by the children of p in direction d when it
    // sits in every participating child's group.  Count its hits in the
    // low 4 bits of a per-source-box counter stamped with the round of
    // (p, d) above them, so a count left by an earlier round reads as
    // zero.  Each box's list 2 names a source at most once.
    const std::size_t ns = dt_.source.boxes().size();
    std::vector<std::uint32_t> hits(ns, 0);
    std::uint32_t round = 0;
    for (BoxIndex p = 0; p < tb.size(); ++p) {
      if (tb[p].is_leaf() || !on_path_[p] || lists_.dag_leaf[p]) continue;
      if (tb[p].level < 2) continue;  // no It node to merge at
      for (std::uint8_t d = 0; d < 6; ++d) {
        // Children participating in this direction.
        std::uint8_t kids = 0;
        int nkids = 0;
        for (std::size_t slot = 0; slot < 8; ++slot) {
          const BoxIndex c = tb[p].child[slot];
          if (c != kNoBox && on_path_[c] &&
              group_begin(c, d) < group_end(c, d)) {
            kids |= static_cast<std::uint8_t>(1u << slot);
            ++nkids;
          }
        }
        if (nkids < 2) continue;
        ++round;
        AMTFMM_ASSERT(round < (1u << 28));
        for_each_kid(p, kids, [&](BoxIndex c) {
          for (std::uint32_t k = group_begin(c, d); k < group_end(c, d); ++k) {
            std::uint32_t& h = hits[dir_src_[k]];
            h = ((h >> 4) == round ? h : round << 4) + 1;
          }
        });
        const std::uint32_t in_all = round << 4 | static_cast<unsigned>(nkids);
        bool shared = false;
        for_each_kid(p, kids, [&](BoxIndex c) {
          for (std::uint32_t k = group_begin(c, d); k < group_end(c, d); ++k) {
            if (hits[dir_src_[k]] == in_all) {
              merged_[k] = 1;
              shared = true;
            }
          }
        });
        if (!shared) continue;
        it_fwd_[p] = 1;
        for_each_kid(p, kids, [&](BoxIndex c) { it_own_[c] = 1; });
        merges_.push_back({p, d, kids});
      }
    }
  }

  /// Calls f(child) for the child slots set in `kids`, in slot order.
  template <class F>
  void for_each_kid(BoxIndex p, std::uint8_t kids, F&& f) const {
    for (unsigned m = kids; m != 0; m &= m - 1) {
      const auto slot = static_cast<std::size_t>(std::countr_zero(m));
      f(dt_.target.box(p).child[slot]);
    }
  }

  // --- node creation -------------------------------------------------------
  void create_nodes() {
    const auto& sb = dt_.source.boxes();
    const auto& tb = dt_.target.boxes();
    dag_.s_of_box.assign(sb.size(), kNoNode);
    dag_.m_of_box.assign(sb.size(), kNoNode);
    dag_.is_of_box.assign(sb.size(), kNoNode);
    dag_.it_of_box.assign(tb.size(), kNoNode);
    dag_.l_of_box.assign(tb.size(), kNoNode);
    dag_.t_of_box.assign(tb.size(), kNoNode);
    // At most three node kinds per box (S, M, Is or It, L, T).
    dag_.nodes.reserve(3 * (sb.size() + tb.size()));

    auto add = [&](NodeKind kind, BoxIndex box, std::uint8_t level,
                   std::uint32_t locality, std::uint64_t bytes) {
      DagNode n;
      n.kind = kind;
      n.box = box;
      n.level = level;
      n.locality = locality;
      n.payload_bytes = bytes;
      dag_.nodes.push_back(n);
      return static_cast<NodeIndex>(dag_.nodes.size() - 1);
    };

    for (BoxIndex b = 0; b < sb.size(); ++b) {
      const TreeBox& box = sb[b];
      const auto lvl = static_cast<std::uint8_t>(box.level);
      if (s_used_[b]) {
        dag_.s_of_box[b] = add(NodeKind::kS, b, lvl, box.locality,
                               box.count * 32ull);
      }
      if (m_needed_[b]) {
        dag_.m_of_box[b] = add(NodeKind::kM, b, lvl, box.locality,
                               kernel_.m_wire_bytes(box.level));
      }
      if (is_needed_[b]) {
        dag_.is_of_box[b] = add(NodeKind::kIs, b, lvl, box.locality,
                                6 * kernel_.x_wire_bytes(box.level));
      }
    }
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      const TreeBox& box = tb[b];
      const auto lvl = static_cast<std::uint8_t>(box.level);
      if (it_own_[b] || it_fwd_[b]) {
        const std::uint64_t own = 6 * kernel_.x_wire_bytes(box.level);
        const std::uint64_t fwd =
            it_fwd_[b] ? 6 * kernel_.x_wire_bytes(box.level + 1) : 0;
        dag_.it_of_box[b] =
            add(NodeKind::kIt, b, lvl, box.locality, own + fwd);
      }
      if (l_active_[b] && on_path_[b]) {
        dag_.l_of_box[b] = add(NodeKind::kL, b, lvl, box.locality,
                               kernel_.l_wire_bytes(box.level));
      }
      if (on_path_[b] && lists_.dag_leaf[b] && box.count > 0 &&
          cfg_.method != Method::kBarnesHut) {
        dag_.t_of_box[b] = add(NodeKind::kT, b, lvl, box.locality,
                               box.count * 40ull);
      }
      if (cfg_.method == Method::kBarnesHut && box.is_leaf()) {
        dag_.t_of_box[b] = add(NodeKind::kT, b, lvl, box.locality,
                               box.count * 40ull);
      }
    }
  }

  // --- edge enumeration ----------------------------------------------------
  void emit(NodeIndex from, NodeIndex to, Operator op, std::uint8_t dir,
            std::uint8_t slot, std::uint32_t bytes, float metric) {
    AMTFMM_ASSERT(from != kNoNode && to != kNoNode);
    if (counting_) {
      ++cursor_[from];
      ++in_degree_[to];
      return;
    }
    dag_.edges[cursor_[from]++] = DagEdge{to, op, dir, slot, bytes, metric};
  }

  void enumerate_edges() {
    if (cfg_.method == Method::kBarnesHut) {
      enumerate_edges_bh();
      return;
    }
    const auto& sb = dt_.source.boxes();
    const auto& tb = dt_.target.boxes();
    const bool advanced = cfg_.method == Method::kFmmAdvanced;

    // Source tree: S->M, M->M, M->I.
    for (BoxIndex b = 0; b < sb.size(); ++b) {
      if (!m_needed_[b]) continue;
      const int lvl = sb[b].level;
      if (sb[b].is_leaf()) {
        emit(dag_.s_of_box[b], dag_.m_of_box[b], Operator::kS2M, 0, 0,
             static_cast<std::uint32_t>(kernel_.m_wire_bytes(lvl)),
             static_cast<float>(sb[b].count));
      }
      const BoxIndex p = sb[b].parent;
      if (p != kNoBox && m_needed_[p]) {
        emit(dag_.m_of_box[b], dag_.m_of_box[p], Operator::kM2M, 0, 0,
             static_cast<std::uint32_t>(kernel_.m_wire_bytes(lvl)), 1.0f);
      }
      if (advanced && is_needed_[b]) {
        emit(dag_.m_of_box[b], dag_.is_of_box[b], Operator::kM2I, 0, 0,
             static_cast<std::uint32_t>(6 * kernel_.x_wire_bytes(lvl)), 1.0f);
      }
    }

    // Target lists: S->T, S->L, M->T, and (basic) M->L.
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      if (!on_path_[b]) continue;
      const int lvl = tb[b].level;
      for (const BoxIndex s : lists_.l1[b]) {
        emit(dag_.s_of_box[s], dag_.t_of_box[b], Operator::kS2T, 0, 0,
             sb[s].count * 32u,
             static_cast<float>(sb[s].count) * static_cast<float>(tb[b].count));
      }
      for (const BoxIndex s : lists_.l4[b]) {
        emit(dag_.s_of_box[s], dag_.l_of_box[b], Operator::kS2L, 0, 0,
             static_cast<std::uint32_t>(kernel_.l_wire_bytes(lvl)),
             static_cast<float>(sb[s].count));
      }
      for (const BoxIndex s : lists_.l3[b]) {
        emit(dag_.m_of_box[s], dag_.t_of_box[b], Operator::kM2T, 0, 0,
             static_cast<std::uint32_t>(kernel_.m_wire_bytes(sb[s].level)),
             static_cast<float>(tb[b].count));
      }
      if (!advanced) {
        for (const List2Entry& e : lists_.l2[b]) {
          emit(dag_.m_of_box[e.src], dag_.l_of_box[b], Operator::kM2L, 0, 0,
               static_cast<std::uint32_t>(kernel_.m_wire_bytes(lvl)), 1.0f);
        }
      }
    }

    if (advanced) {
      // Merge legs: Is(src) -> It(parent).fwd, then It(parent) -> It(child).
      // The shared sources are the merged entries of any participating
      // child's group; the lowest child slot's is read.
      for (const Merge& m : merges_) {
        const BoxIndex p = m.parent;
        const int child_level = tb[p].level + 1;
        const auto bytes =
            static_cast<std::uint32_t>(kernel_.x_wire_bytes(child_level));
        const auto metric = static_cast<float>(kernel_.x_count(child_level));
        const BoxIndex first =
            tb[p].child[static_cast<std::size_t>(std::countr_zero(m.kids))];
        for (std::uint32_t k = group_begin(first, m.dir);
             k < group_end(first, m.dir); ++k) {
          if (merged_[k]) {
            emit(dag_.is_of_box[dir_src_[k]], dag_.it_of_box[p],
                 Operator::kI2I, m.dir, 1, bytes, metric);
          }
        }
        for_each_kid(p, m.kids, [&](BoxIndex c) {
          emit(dag_.it_of_box[p], dag_.it_of_box[c], Operator::kI2I, m.dir,
               0, bytes, metric);
        });
      }
      // Residual direct legs and the I->L conversions.
      for (BoxIndex b = 0; b < tb.size(); ++b) {
        if (!on_path_[b]) continue;
        const int lvl = tb[b].level;
        if (it_own_[b]) {
          const auto bytes =
              static_cast<std::uint32_t>(kernel_.x_wire_bytes(lvl));
          const auto metric = static_cast<float>(kernel_.x_count(lvl));
          for (std::uint8_t d = 0; d < 6; ++d) {
            for (std::uint32_t k = group_begin(b, d); k < group_end(b, d);
                 ++k) {
              if (!merged_[k]) {
                emit(dag_.is_of_box[dir_src_[k]], dag_.it_of_box[b],
                     Operator::kI2I, d, 0, bytes, metric);
              }
            }
          }
          emit(dag_.it_of_box[b], dag_.l_of_box[b], Operator::kI2L, 0, 0,
               static_cast<std::uint32_t>(kernel_.l_wire_bytes(lvl)), 6.0f);
        }
      }
    }

    // Downward L chain.
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      if (dag_.l_of_box[b] == kNoNode) continue;
      const int lvl = tb[b].level;
      if (lists_.dag_leaf[b]) {
        emit(dag_.l_of_box[b], dag_.t_of_box[b], Operator::kL2T, 0, 0,
             static_cast<std::uint32_t>(kernel_.l_wire_bytes(lvl)),
             static_cast<float>(tb[b].count));
        continue;
      }
      for (const BoxIndex c : tb[b].child) {
        if (c != kNoBox && dag_.l_of_box[c] != kNoNode) {
          emit(dag_.l_of_box[b], dag_.l_of_box[c], Operator::kL2L, 0, 0,
               static_cast<std::uint32_t>(kernel_.l_wire_bytes(lvl)), 1.0f);
        }
      }
    }
  }

  void enumerate_edges_bh() {
    const auto& sb = dt_.source.boxes();
    const auto& tb = dt_.target.boxes();
    // Source chain as in the FMM.
    for (BoxIndex b = 0; b < sb.size(); ++b) {
      if (sb[b].is_leaf()) {
        emit(dag_.s_of_box[b], dag_.m_of_box[b], Operator::kS2M, 0, 0,
             static_cast<std::uint32_t>(kernel_.m_wire_bytes(sb[b].level)),
             static_cast<float>(sb[b].count));
      }
      const BoxIndex p = sb[b].parent;
      if (p != kNoBox) {
        emit(dag_.m_of_box[b], dag_.m_of_box[p], Operator::kM2M, 0, 0,
             static_cast<std::uint32_t>(kernel_.m_wire_bytes(sb[b].level)),
             1.0f);
      }
    }
    // Acceptance traversal per target leaf.
    for (BoxIndex b = 0; b < tb.size(); ++b) {
      if (!tb[b].is_leaf()) continue;
      bh_walk(b, dt_.source.root());
    }
  }

  void bh_walk(BoxIndex tgt, BoxIndex src) {
    const TreeBox& s = dt_.source.box(src);
    const TreeBox& t = dt_.target.box(tgt);
    if (s.is_leaf()) {
      emit(dag_.s_of_box[src], dag_.t_of_box[tgt], Operator::kS2T, 0, 0,
           s.count * 32u,
           static_cast<float>(s.count) * static_cast<float>(t.count));
      return;
    }
    // Conservative MAC: opening angle against the nearest point of the
    // target box.
    const Vec3 c = s.cube.center();
    const Vec3 lo = t.cube.low, hi = t.cube.high();
    const double dx = std::max({lo.x - c.x, c.x - hi.x, 0.0});
    const double dy = std::max({lo.y - c.y, c.y - hi.y, 0.0});
    const double dz = std::max({lo.z - c.z, c.z - hi.z, 0.0});
    const double dist = std::sqrt(dx * dx + dy * dy + dz * dz);
    if (dist > 0.0 && s.cube.size / dist < cfg_.bh_theta) {
      emit(dag_.m_of_box[src], dag_.t_of_box[tgt], Operator::kM2T, 0, 0,
           static_cast<std::uint32_t>(kernel_.m_wire_bytes(s.level)),
           static_cast<float>(t.count));
      return;
    }
    for (const BoxIndex ch : s.child) {
      if (ch != kNoBox) bh_walk(tgt, ch);
    }
  }

  // --- placement -----------------------------------------------------------
  void place_nodes() {
    if (cfg_.placement != Placement::kCommMin || num_localities_ <= 1) return;
    // Move each It node to the locality that sends it the most bytes
    // (approximating the paper's communication-minimizing policy; leaf M/L
    // stay pinned to the data distribution as required).  The tally reads
    // every sender at its owner, before any It node moves.  Only I->I
    // edges end at It nodes, and only Is and It nodes send them.
    const std::size_t nl = static_cast<std::size_t>(num_localities_);
    std::vector<std::uint32_t> row(dag_.nodes.size(), 0);
    std::vector<NodeIndex> its;
    for (NodeIndex n = 0; n < dag_.nodes.size(); ++n) {
      if (dag_.nodes[n].kind != NodeKind::kIt) continue;
      row[n] = static_cast<std::uint32_t>(its.size());
      its.push_back(n);
    }
    std::vector<std::uint64_t> tally(its.size() * nl, 0);
    for (const DagNode& n : dag_.nodes) {
      if (n.kind != NodeKind::kIs && n.kind != NodeKind::kIt) continue;
      for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges;
           ++e) {
        const DagEdge& edge = dag_.edges[e];
        if (edge.op == Operator::kI2I) {
          tally[row[edge.target] * nl + n.locality] += edge.bytes;
        }
      }
    }
    // An It node leaves its owner only for a locality sending it strictly
    // more bytes; among tied other localities the lowest index wins.
    for (std::size_t r = 0; r < its.size(); ++r) {
      DagNode& it = dag_.nodes[its[r]];
      const std::uint64_t* bytes = &tally[r * nl];
      std::uint32_t best = it.locality;
      for (std::uint32_t loc = 0; loc < nl; ++loc) {
        if (bytes[loc] > bytes[best]) best = loc;
      }
      it.locality = best;
    }
  }

  void validate() const {
    for (const DagNode& n : dag_.nodes) {
      if (n.kind != NodeKind::kS && n.kind != NodeKind::kT) {
        AMTFMM_ASSERT_MSG(n.in_degree > 0, "non-root DAG node without inputs");
      }
      if (n.kind == NodeKind::kS) {
        AMTFMM_ASSERT(n.in_degree == 0);
      }
    }
  }

  const DualTree& dt_;
  const InteractionLists& lists_;
  const Kernel& kernel_;
  DagBuildConfig cfg_;
  int num_localities_;

  Dag dag_;
  bool counting_ = true;
  std::vector<std::uint32_t> cursor_;     ///< out-degree, then fill cursor
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint8_t> m_needed_, is_needed_, s_used_;
  std::vector<std::uint8_t> l_active_, it_own_, it_fwd_, on_path_;

  /// List 2 grouped by (target box, direction); see group_begin.
  std::vector<std::uint32_t> dir_first_;
  std::vector<BoxIndex> dir_src_;
  /// merged_[k]: entry k is covered by a merge at its box's parent; the
  /// unmerged entries are the box's residual direct legs.
  std::vector<std::uint8_t> merged_;

  /// One merge at `parent` in direction `dir`; `kids` masks the child
  /// slots that share it.  Kept in (parent, direction) order.
  struct Merge {
    BoxIndex parent;
    std::uint8_t dir;
    std::uint8_t kids;
  };
  std::vector<Merge> merges_;
};

}  // namespace

Dag build_dag(const DualTree& dt, const InteractionLists& lists,
              const Kernel& kernel, const DagBuildConfig& cfg,
              int num_localities) {
  return Builder(dt, lists, kernel, cfg, num_localities).run();
}

std::vector<std::uint32_t> flatten_dag_edges(const Dag& dag) {
  std::vector<std::uint32_t> flat(2 * dag.edges.size());
  for (NodeIndex ni = 0; ni < dag.nodes.size(); ++ni) {
    const DagNode& n = dag.nodes[ni];
    for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges;
         ++e) {
      flat[2 * e] = ni;
      flat[2 * e + 1] = dag.edges[e].target;
    }
  }
  return flat;
}

void refresh_dag_metrics(Dag& dag, const DualTree& dt) {
  const auto& sb = dt.source.boxes();
  const auto& tb = dt.target.boxes();
  for (DagNode& n : dag.nodes) {
    // Point payload sizes (32 B/source point, 40 B/target point — the
    // engine's serialization constants).  Expansion payload sizes are
    // level-only and unchanged by a count update.
    if (n.kind == NodeKind::kS) {
      n.payload_bytes = sb[n.box].count * 32ull;
    } else if (n.kind == NodeKind::kT) {
      n.payload_bytes = tb[n.box].count * 40ull;
    }
    for (std::uint32_t ei = n.first_edge; ei < n.first_edge + n.num_edges;
         ++ei) {
      DagEdge& e = dag.edges[ei];
      switch (e.op) {
        case Operator::kS2M:
        case Operator::kS2L:
          e.cost_metric = static_cast<float>(sb[n.box].count);
          break;
        case Operator::kS2T:
          e.bytes = sb[n.box].count * 32u;
          e.cost_metric = static_cast<float>(sb[n.box].count) *
                          static_cast<float>(tb[dag.nodes[e.target].box].count);
          break;
        case Operator::kM2T:
        case Operator::kL2T:
          e.cost_metric =
              static_cast<float>(tb[dag.nodes[e.target].box].count);
          break;
        default:
          break;  // level-only bytes and metrics
      }
    }
  }
}

DagStats Dag::stats() const {
  DagStats s;
  s.total_nodes = nodes.size();
  s.total_edges = edges.size();
  for (const DagNode& n : nodes) {
    auto& cls = s.nodes[static_cast<std::size_t>(n.kind)];
    cls.count++;
    cls.min_bytes = std::min(cls.min_bytes, n.payload_bytes);
    cls.max_bytes = std::max(cls.max_bytes, n.payload_bytes);
    cls.din_min = std::min(cls.din_min, n.in_degree);
    cls.din_max = std::max(cls.din_max, n.in_degree);
    cls.dout_min = std::min(cls.dout_min, n.num_edges);
    cls.dout_max = std::max(cls.dout_max, n.num_edges);
    for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges; ++e) {
      const DagEdge& edge = edges[e];
      auto& ec = s.edges[static_cast<std::size_t>(edge.op)];
      ec.count++;
      ec.min_bytes = std::min<std::uint64_t>(ec.min_bytes, edge.bytes);
      ec.max_bytes = std::max<std::uint64_t>(ec.max_bytes, edge.bytes);
      ec.total_bytes += edge.bytes;
      if (nodes[edge.target].locality != n.locality) s.remote_edges++;
    }
  }
  return s;
}

}  // namespace amtfmm
