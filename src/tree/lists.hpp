#pragma once

#include <cstdint>
#include <vector>

#include "tree/tree.hpp"

namespace amtfmm {

/// Entry of list 2 (the "V" list): a same-level well-separated source box
/// together with its integer offset (in box widths) from the target box.
/// The offset drives the directional classification of the merge-and-shift
/// technique and the diagonal plane-wave translations.
struct List2Entry {
  BoxIndex src;
  std::int8_t di;
  std::int8_t dj;
  std::int8_t dk;
};

/// The four interaction lists of the adaptive FMM, per target box, for a
/// dual (source/target) tree — Figure 1b of the paper:
///  - l1 (U): leaf target only; adjacent source leaves  -> S->T
///  - l2 (V): same-level well-separated, parents adjacent -> M->L (basic)
///            or M->I -> I->I -> I->L (advanced)
///  - l3 (W): leaf target only; smaller source boxes whose parent is
///            adjacent but which are themselves well separated -> M->T
///  - l4 (X): coarser source leaves separated from the box but not from its
///            parent -> S->L
///
/// `dag_leaf[b]` marks where the downward (L) recursion terminates: true
/// for real leaves and for subtree roots pruned because no same-level
/// source box is adjacent (the dual-tree pruning of reference [11] that the
/// paper adopts for non-identical ensembles).
struct InteractionLists {
  std::vector<std::vector<BoxIndex>> l1;
  std::vector<std::vector<List2Entry>> l2;
  std::vector<std::vector<BoxIndex>> l3;
  std::vector<std::vector<BoxIndex>> l4;
  std::vector<std::uint8_t> dag_leaf;

  std::size_t total_l2() const;
};

/// Builds all lists by a dual-tree traversal.  Both trees must share one
/// domain cube (build_dual_tree guarantees it): adjacency and list-2
/// offsets are decided exactly on the boxes' integer grid positions.
InteractionLists build_lists(const DualTree& dt);

}  // namespace amtfmm
