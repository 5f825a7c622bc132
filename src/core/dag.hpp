#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "kernels/kernel.hpp"
#include "tree/lists.hpp"
#include "tree/tree.hpp"

namespace amtfmm {

/// DAG node classes, exactly the six of the paper's Table I.
enum class NodeKind : std::uint8_t { kS, kM, kIs, kIt, kL, kT };
inline constexpr int kNumNodeKinds = 6;
const char* to_string(NodeKind k);

using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNoNode = 0xffffffffu;

/// One node of the explicit DAG: the representation DASHMM uses for
/// partitioning/distribution before instantiating the implicit LCO graph.
struct DagNode {
  NodeKind kind;
  std::uint8_t level;
  BoxIndex box;            ///< index in the source or target tree
  std::uint32_t locality;  ///< placement chosen by the distribution policy
  std::uint32_t in_degree = 0;
  std::uint32_t first_edge = 0;  ///< CSR range into Dag::edges
  std::uint32_t num_edges = 0;
  std::uint64_t payload_bytes = 0;
};

/// One directed edge: an operator application moving data between nodes.
struct DagEdge {
  NodeIndex target;
  Operator op;
  std::uint8_t dir;   ///< Axis for the I-chain operators
  std::uint8_t slot;  ///< It accumulator: 0 = own (-> I2L), 1 = fwd (-> shift)
  std::uint32_t bytes;      ///< wire bytes transferred along the edge
  float cost_metric;        ///< work units for the cost model
};
// A one-byte Operator packs the edge into 16 bytes: at millions of edges
// per DAG the edge array is the largest resident structure after the tree.
static_assert(sizeof(DagEdge) == 16);

/// Method selection for DAG construction.
enum class Method {
  kFmmBasic,     ///< eight operators, M->L across list 2
  kFmmAdvanced,  ///< merge-and-shift: M->I, I->I, I->L (the paper's FMM)
  kBarnesHut,    ///< multipole-acceptance traversal (M->T / S->T only)
};
Method parse_method(const std::string& name);
const char* to_string(Method m);

/// Distribution policies (paper section IV): leaf expansions are always
/// pinned to the locality owning the box; the policies differ in where the
/// remaining nodes go.
enum class Placement {
  kOwner,    ///< every node at its box's owner
  kCommMin,  ///< It nodes moved to the locality sending them the most bytes
};

struct DagStats {
  struct NodeClass {
    std::size_t count = 0;
    std::uint64_t min_bytes = ~0ull, max_bytes = 0;
    std::uint32_t din_min = ~0u, din_max = 0;
    std::uint32_t dout_min = ~0u, dout_max = 0;
  };
  struct EdgeClass {
    std::size_t count = 0;
    std::uint64_t min_bytes = ~0ull, max_bytes = 0;
    std::uint64_t total_bytes = 0;
  };
  std::array<NodeClass, kNumNodeKinds> nodes;
  std::array<EdgeClass, kNumOperators> edges;
  std::size_t total_nodes = 0;
  std::size_t total_edges = 0;
  std::uint64_t remote_edges = 0;  ///< edges crossing localities
};

/// The explicit DAG.
struct Dag {
  std::vector<DagNode> nodes;
  std::vector<DagEdge> edges;

  // Node lookup per box (kNoNode where absent).
  std::vector<NodeIndex> s_of_box;   // source tree
  std::vector<NodeIndex> m_of_box;   // source tree
  std::vector<NodeIndex> is_of_box;  // source tree
  std::vector<NodeIndex> it_of_box;  // target tree
  std::vector<NodeIndex> l_of_box;   // target tree
  std::vector<NodeIndex> t_of_box;   // target tree

  DagStats stats() const;
};

struct DagBuildConfig {
  Method method = Method::kFmmAdvanced;
  Placement placement = Placement::kCommMin;
  double bh_theta = 0.5;  ///< Barnes-Hut opening angle
};

/// Builds the explicit DAG for the dual tree.  For the FMM methods `lists`
/// must be the InteractionLists of the dual tree; Barnes-Hut derives its
/// own edges from the multipole acceptance criterion.
Dag build_dag(const DualTree& dt, const InteractionLists& lists,
              const Kernel& kernel, const DagBuildConfig& cfg,
              int num_localities);

/// Dag::edges flattened to [src0, dst0, src1, dst1, ...] in edge-id order,
/// recovering the implicit CSR source from each node's edge range (trace
/// exports embed this for the critical-path analyzer).
std::vector<std::uint32_t> flatten_dag_edges(const Dag& dag);

/// Refreshes the point-count-dependent annotations of an existing DAG
/// after an incremental (structure-preserving) tree update: S/T node
/// payload bytes, S->T edge bytes, and the cost metrics derived from box
/// counts.  Level-only byte formulas (expansion wire sizes) are untouched
/// — in particular S2L/I2L edge bytes stay the level's L wire size, which
/// the engine's contribution-parcel arithmetic asserts.  The topology
/// (nodes, edges, in-degrees, placement) is reused as-is.
void refresh_dag_metrics(Dag& dag, const DualTree& dt);

/// Classifies the direction of a list-2 interaction: the dominant axis of
/// (target - source), with the CGR99 priority order z, y, x.  `di,dj,dk`
/// are the List2Entry offsets (source - target, in box widths).
Axis classify_direction(int di, int dj, int dk);

}  // namespace amtfmm
