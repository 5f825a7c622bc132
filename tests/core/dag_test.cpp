#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <iterator>
#include <span>
#include <tuple>
#include <vector>

#include "core/dag.hpp"
#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "math/planewave.hpp"

namespace amtfmm {
namespace {

TEST(ClassifyDirection, PartitionsWellSeparatedOffsets) {
  // Offsets are source-minus-target; direction is target-relative-to-source.
  EXPECT_EQ(classify_direction(0, 0, -2), Axis::kPlusZ);
  EXPECT_EQ(classify_direction(1, -1, -3), Axis::kPlusZ);
  EXPECT_EQ(classify_direction(0, 0, 2), Axis::kMinusZ);
  EXPECT_EQ(classify_direction(0, -2, 1), Axis::kPlusY);
  EXPECT_EQ(classify_direction(3, 2, -1), Axis::kMinusY);
  EXPECT_EQ(classify_direction(-2, 1, 0), Axis::kPlusX);
  EXPECT_EQ(classify_direction(3, -1, 1), Axis::kMinusX);
  // Every list-2 offset (max norm 2 or 3, outside the neighborhood) has a
  // class, and z takes priority over y over x.
  for (int i = -3; i <= 3; ++i) {
    for (int j = -3; j <= 3; ++j) {
      for (int k = -3; k <= 3; ++k) {
        if (std::max({std::abs(i), std::abs(j), std::abs(k)}) < 2) continue;
        const Axis d = classify_direction(i, j, k);
        (void)d;  // must not assert
      }
    }
  }
}

struct DagCase {
  const char* kernel;
  Method method;
  Distribution dist;
  Vec3 offset;
  int threshold;
  int localities;
};

/// Deterministic parameter printer (the default dumps the kernel-name
/// pointer, which varies under ASLR and breaks ctest name discovery).
void PrintTo(const DagCase& c, std::ostream* os) {
  *os << c.kernel << "_" << to_string(c.method) << "_" << to_string(c.dist)
      << "_t" << c.threshold << "_L" << c.localities;
}

class DagStructure : public ::testing::TestWithParam<DagCase> {};

TEST_P(DagStructure, IsAcyclicWithConsistentDegrees) {
  const DagCase c = GetParam();
  Rng rng(11);
  const auto src = generate_points(c.dist, 3000, rng);
  const auto tgt = generate_points(c.dist, 2500, rng, c.offset);
  const DualTree dt = build_dual_tree(src, tgt, c.threshold, c.localities);
  auto kernel = make_kernel(c.kernel);
  kernel->setup(dt.source.domain().size,
                std::max(dt.source.max_level(), dt.target.max_level()) + 1, 3);
  const InteractionLists lists = build_lists(dt);
  DagBuildConfig cfg;
  cfg.method = c.method;
  const Dag dag = build_dag(dt, lists, *kernel, cfg, c.localities);

  // In-degrees recomputed from edges must match the stored counts, and
  // topological peeling must consume every node (acyclicity).
  std::vector<std::uint32_t> indeg(dag.nodes.size(), 0);
  for (const DagEdge& e : dag.edges) indeg[e.target]++;
  std::vector<NodeIndex> ready;
  for (NodeIndex i = 0; i < dag.nodes.size(); ++i) {
    EXPECT_EQ(indeg[i], dag.nodes[i].in_degree) << "node " << i;
    if (indeg[i] == 0) {
      ready.push_back(i);
      EXPECT_TRUE(dag.nodes[i].kind == NodeKind::kS ||
                  dag.nodes[i].kind == NodeKind::kT);
    }
  }
  std::size_t seen = 0;
  while (!ready.empty()) {
    const NodeIndex n = ready.back();
    ready.pop_back();
    ++seen;
    const DagNode& node = dag.nodes[n];
    for (std::uint32_t e = node.first_edge; e < node.first_edge + node.num_edges;
         ++e) {
      if (--indeg[dag.edges[e].target] == 0) {
        ready.push_back(dag.edges[e].target);
      }
    }
  }
  EXPECT_EQ(seen, dag.nodes.size()) << "DAG must be acyclic and connected";

  const DagStats s = dag.stats();
  EXPECT_EQ(s.total_nodes, dag.nodes.size());
  EXPECT_EQ(s.total_edges, dag.edges.size());
  if (c.method != Method::kBarnesHut) {
    EXPECT_GT(s.nodes[static_cast<int>(NodeKind::kS)].count, 0u);
    EXPECT_GT(s.nodes[static_cast<int>(NodeKind::kT)].count, 0u);
  }
}

/// One I->I or I->L edge: (source node, target node, dir, slot, bytes).
using XEdge = std::tuple<NodeIndex, NodeIndex, int, int, std::uint32_t>;

/// The DAG's I->I and I->L edges, sorted.
std::vector<XEdge> x_edges(const Dag& dag) {
  std::vector<XEdge> out;
  for (NodeIndex ni = 0; ni < dag.nodes.size(); ++ni) {
    const DagNode& n = dag.nodes[ni];
    for (std::uint32_t ei = n.first_edge; ei < n.first_edge + n.num_edges;
         ++ei) {
      const DagEdge& e = dag.edges[ei];
      if (e.op == Operator::kI2I || e.op == Operator::kI2L) {
        out.emplace_back(ni, e.target, e.dir, e.slot, e.bytes);
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Oracle for the merge-and-shift plan, by set algebra over sorted
/// per-(box, direction) source vectors: each level >= 2 parent on the
/// active path merges, per direction, the sources common to all of its
/// participating children (std::set_intersection); each such child keeps
/// the rest as residual direct legs (std::set_difference).  Returns the
/// I->I and I->L edges the plan implies, sorted, with node ids read from
/// `dag`'s per-box maps.
std::vector<XEdge> set_algebra_plan(const DualTree& dt,
                                    const InteractionLists& lists,
                                    const Kernel& kernel, const Dag& dag) {
  const auto& tb = dt.target.boxes();
  const std::size_t nt = tb.size();
  // The active path: root down to the dag leaves.
  std::vector<std::uint8_t> on_path(nt, 0);
  std::vector<BoxIndex> stack{dt.target.root()};
  while (!stack.empty()) {
    const BoxIndex b = stack.back();
    stack.pop_back();
    on_path[b] = 1;
    if (lists.dag_leaf[b]) continue;
    for (const BoxIndex c : tb[b].child) {
      if (c != kNoBox) stack.push_back(c);
    }
  }
  std::vector<std::array<std::vector<BoxIndex>, 6>> dir(nt);
  std::vector<std::uint8_t> it_own(nt, 0);
  for (BoxIndex b = 0; b < nt; ++b) {
    for (const List2Entry& e : lists.l2[b]) {
      dir[b][static_cast<std::size_t>(classify_direction(e.di, e.dj, e.dk))]
          .push_back(e.src);
    }
    for (auto& v : dir[b]) std::sort(v.begin(), v.end());
    if (on_path[b] && !lists.l2[b].empty()) it_own[b] = 1;
  }
  auto node = [](const std::vector<NodeIndex>& of_box, BoxIndex b) {
    EXPECT_NE(of_box[b], kNoNode) << "box " << b;
    return of_box[b];
  };
  std::vector<XEdge> out;
  auto residual = dir;
  for (BoxIndex p = 0; p < nt; ++p) {
    if (tb[p].is_leaf() || !on_path[p] || lists.dag_leaf[p]) continue;
    if (tb[p].level < 2) continue;
    const auto bytes =
        static_cast<std::uint32_t>(kernel.x_wire_bytes(tb[p].level + 1));
    for (int d = 0; d < 6; ++d) {
      std::vector<BoxIndex> kids;
      for (const BoxIndex c : tb[p].child) {
        if (c != kNoBox && on_path[c] && !dir[c][d].empty()) {
          kids.push_back(c);
        }
      }
      if (kids.size() < 2) continue;
      std::vector<BoxIndex> inter = dir[kids[0]][d];
      for (std::size_t i = 1; i < kids.size(); ++i) {
        std::vector<BoxIndex> next;
        std::set_intersection(inter.begin(), inter.end(),
                              dir[kids[i]][d].begin(), dir[kids[i]][d].end(),
                              std::back_inserter(next));
        inter.swap(next);
      }
      if (inter.empty()) continue;
      for (const BoxIndex src : inter) {
        out.emplace_back(node(dag.is_of_box, src), node(dag.it_of_box, p), d,
                         1, bytes);
      }
      for (const BoxIndex c : kids) {
        out.emplace_back(node(dag.it_of_box, p), node(dag.it_of_box, c), d, 0,
                         bytes);
        it_own[c] = 1;
        std::vector<BoxIndex> rest;
        std::set_difference(residual[c][d].begin(), residual[c][d].end(),
                            inter.begin(), inter.end(),
                            std::back_inserter(rest));
        residual[c][d].swap(rest);
      }
    }
  }
  for (BoxIndex b = 0; b < nt; ++b) {
    if (!it_own[b]) continue;
    const auto bytes =
        static_cast<std::uint32_t>(kernel.x_wire_bytes(tb[b].level));
    for (int d = 0; d < 6; ++d) {
      for (const BoxIndex src : residual[b][d]) {
        out.emplace_back(node(dag.is_of_box, src), node(dag.it_of_box, b), d,
                         0, bytes);
      }
    }
    out.emplace_back(
        node(dag.it_of_box, b), node(dag.l_of_box, b), 0, 0,
        static_cast<std::uint32_t>(kernel.l_wire_bytes(tb[b].level)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Builds the DAG of (src, tgt) at each locality count and requires its
/// I->I and I->L edges to equal the set-algebra plan as multisets.
void expect_plan_matches_oracle(const std::vector<Vec3>& src,
                                const std::vector<Vec3>& tgt,
                                const char* kernel_name, Method method,
                                int threshold) {
  for (const int localities : {1, 2, 3, 8}) {
    SCOPED_TRACE(testing::Message() << localities << " localities");
    const DualTree dt = build_dual_tree(src, tgt, threshold, localities);
    auto kernel = make_kernel(kernel_name);
    kernel->setup(dt.source.domain().size,
                  std::max(dt.source.max_level(), dt.target.max_level()) + 1,
                  3);
    const InteractionLists lists = build_lists(dt);
    DagBuildConfig cfg;
    cfg.method = method;
    const Dag dag = build_dag(dt, lists, *kernel, cfg, localities);
    const std::vector<XEdge> got = x_edges(dag);
    if (method != Method::kFmmAdvanced) {
      EXPECT_TRUE(got.empty());
      continue;
    }
    const std::vector<XEdge> want = set_algebra_plan(dt, lists, *kernel, dag);
    EXPECT_GT(want.size(), 0u);
    ASSERT_EQ(got.size(), want.size());
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    EXPECT_TRUE(diff.first == got.end())
        << "first differing edge at sorted position "
        << (diff.first - got.begin());
  }
}

TEST_P(DagStructure, MergePlanMatchesSetAlgebraOracle) {
  const DagCase c = GetParam();
  Rng rng(11);
  const auto src = generate_points(c.dist, 3000, rng);
  const auto tgt = generate_points(c.dist, 2500, rng, c.offset);
  expect_plan_matches_oracle(src, tgt, c.kernel, c.method, c.threshold);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DagStructure,
    ::testing::Values(
        DagCase{"counting", Method::kFmmAdvanced, Distribution::kCube, {0, 0, 0}, 30, 1},
        DagCase{"counting", Method::kFmmAdvanced, Distribution::kSphere, {0, 0, 0}, 30, 4},
        DagCase{"counting", Method::kFmmBasic, Distribution::kCube, {0.4, 0, 0}, 20, 2},
        DagCase{"counting", Method::kBarnesHut, Distribution::kCube, {0, 0, 0}, 40, 2},
        DagCase{"laplace", Method::kFmmAdvanced, Distribution::kPlummer, {0.2, 0.1, 0}, 15, 3}));

/// Counts of the I->I leg families a DAG emits, per math/planewave.hpp.
struct XLegCounts {
  std::size_t residual = 0, merge = 0, shift = 0;
  int max_level = 0;
  double max_snap = 0;  ///< largest |offset - grid point|, half-box units
};

/// Snaps every I->I edge of the DAG over (src, tgt) onto the half-box grid
/// of its quadrature level with the engine's own offset (target centre
/// minus source centre), so halfbox_offset asserts the grid and its
/// bounds, and sorts each edge into a leg family: residual (even, even,
/// {4, 6}), merge (odd, odd, {3, 5, 7}) or shift (+-1, +-1, +-1).
XLegCounts classify_x_legs(const std::vector<Vec3>& src,
                           const std::vector<Vec3>& tgt, int threshold) {
  XLegCounts c;
  const DualTree dt = build_dual_tree(src, tgt, threshold, 2);
  c.max_level = std::max(dt.source.max_level(), dt.target.max_level());
  auto kernel = make_kernel("counting");
  kernel->setup(dt.source.domain().size, c.max_level + 1, 3);
  const InteractionLists lists = build_lists(dt);
  const Dag dag = build_dag(dt, lists, *kernel, DagBuildConfig{}, 2);
  for (const DagNode& n : dag.nodes) {
    for (std::uint32_t ei = n.first_edge; ei < n.first_edge + n.num_edges;
         ++ei) {
      const DagEdge& e = dag.edges[ei];
      if (e.op != Operator::kI2I) continue;
      const DagNode& to = dag.nodes[e.target];
      const Tree& from_tree = n.kind == NodeKind::kIs ? dt.source : dt.target;
      const Vec3 offset = dt.target.box(to.box).cube.center() -
                          from_tree.box(n.box).cube.center();
      const int qlevel = std::max(n.level, to.level);
      const double box =
          dt.source.domain().size / static_cast<double>(1 << qlevel);
      const auto g = halfbox_offset(kAllAxes[e.dir], offset, box);
      const Vec3 o = axis_to_z(kAllAxes[e.dir]) * offset * (2.0 / box);
      c.max_snap = std::max({c.max_snap, std::abs(o.x - g[0]),
                             std::abs(o.y - g[1]), std::abs(o.z - g[2])});
      const bool even = g[0] % 2 == 0 && g[1] % 2 == 0;
      const bool odd = g[0] % 2 != 0 && g[1] % 2 != 0 && g[2] % 2 != 0;
      if (even && (g[2] == 4 || g[2] == 6)) {
        ++c.residual;
      } else if (odd && g[2] >= 3) {
        ++c.merge;
      } else if (std::abs(g[0]) == 1 && std::abs(g[1]) == 1 &&
                 std::abs(g[2]) == 1) {
        ++c.shift;
      } else {
        ADD_FAILURE() << "offset (" << g[0] << "," << g[1] << "," << g[2]
                      << ") fits no leg family";
      }
    }
  }
  return c;
}

TEST(DagXOffsets, EveryIToIEdgeIsOnTheHalfBoxGrid) {
  XLegCounts total;
  for (const Distribution dist :
       {Distribution::kCube, Distribution::kSphere, Distribution::kPlummer}) {
    Rng rng(23);
    const auto src = generate_points(dist, 6000, rng);
    const auto tgt = generate_points(dist, 5000, rng, {0.1, -0.2, 0.05});
    const XLegCounts c = classify_x_legs(src, tgt, 20);
    total.residual += c.residual;
    total.merge += c.merge;
    total.shift += c.shift;
  }
  EXPECT_GT(total.residual, 0u);
  EXPECT_GT(total.merge, 0u);
  EXPECT_GT(total.shift, 0u);
}

/// Far from the origin a centre difference carries rounding of order
/// ulp(|centre|), which dividing by a deep box magnifies.  A clustered
/// ensemble translated by 1e4 puts that rounding in every snapped offset
/// and must still land each I->I edge on the grid.
TEST(DagXOffsets, DeepTranslatedClusterStaysOnTheHalfBoxGrid) {
  Rng rng(29);
  const Vec3 far{1e4, 1e4, 1e4};
  const auto src = generate_points(Distribution::kPlummer, 6000, rng, far);
  const auto tgt = generate_points(Distribution::kPlummer, 5000, rng,
                                   far + Vec3{0.01, -0.02, 0.005});
  const XLegCounts c = classify_x_legs(src, tgt, 4);
  EXPECT_GE(c.max_level, 8);
  EXPECT_GT(c.max_snap, 1e-12);  // the rounding is really there
  EXPECT_GT(c.residual, 0u);
  EXPECT_GT(c.merge, 0u);
  EXPECT_GT(c.shift, 0u);
}

/// The decisive structural test (see kernels/counting.hpp): through the
/// full pipeline — tree, lists, merge-and-shift DAG, LCO engine, parcels,
/// multiple localities — every target must receive exactly one
/// contribution per source.
struct CountCase {
  Method method;
  Distribution src_dist;
  Distribution tgt_dist;
  std::uint32_t zero0;  ///< always 0, see below
  Vec3 offset;
  int threshold;
  int localities;
  int cores;
  bool priority;
  std::uint8_t zero1[3] = {};
};
// gtest names each case by its parameter bytes.  The zero fields fill what
// was padding, whose bytes differed from one test discovery to the next;
// with every byte defined the names are stable and keep their old values.
static_assert(sizeof(CountCase) == 56);

class CountingEndToEnd : public ::testing::TestWithParam<CountCase> {};

TEST_P(CountingEndToEnd, EveryTargetCountsEverySource) {
  const CountCase c = GetParam();
  Rng rng(77);
  const std::size_t ns = 4000, nt = 3000;
  const auto src = generate_points(c.src_dist, ns, rng);
  const auto tgt = generate_points(c.tgt_dist, nt, rng, c.offset);
  const std::vector<double> q(ns, 1.0);

  EvalConfig cfg;
  cfg.method = c.method;
  cfg.threshold = c.threshold;
  cfg.localities = c.localities;
  cfg.cores_per_locality = c.cores;
  cfg.split_priority = c.priority;
  Evaluator eval(make_kernel("counting"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  ASSERT_EQ(r.potentials.size(), nt);
  for (std::size_t i = 0; i < nt; ++i) {
    ASSERT_NEAR(r.potentials[i], static_cast<double>(ns), 1e-6)
        << "target " << i << " (double counted or dropped interactions)";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CountingEndToEnd,
    ::testing::Values(
        CountCase{Method::kFmmAdvanced, Distribution::kCube, Distribution::kCube, 0, {0, 0, 0}, 60, 1, 2, false},
        CountCase{Method::kFmmAdvanced, Distribution::kCube, Distribution::kCube, 0, {0, 0, 0}, 9, 4, 2, false},
        CountCase{Method::kFmmAdvanced, Distribution::kSphere, Distribution::kSphere, 0, {0, 0, 0}, 35, 2, 2, true},
        CountCase{Method::kFmmAdvanced, Distribution::kSphere, Distribution::kCube, 0, {0.7, 0.3, 0}, 25, 3, 1, false},
        CountCase{Method::kFmmAdvanced, Distribution::kCube, Distribution::kCube, 0, {3.0, 0, 0}, 30, 2, 2, false},
        CountCase{Method::kFmmAdvanced, Distribution::kPlummer, Distribution::kPlummer, 0, {0, 0, 0}, 12, 2, 2, false},
        CountCase{Method::kFmmBasic, Distribution::kCube, Distribution::kCube, 0, {0, 0, 0}, 30, 2, 2, false},
        CountCase{Method::kFmmBasic, Distribution::kSphere, Distribution::kSphere, 0, {0, 0, 0}, 45, 1, 3, false},
        CountCase{Method::kBarnesHut, Distribution::kCube, Distribution::kCube, 0, {0, 0, 0}, 30, 2, 2, false}));

/// M and Is nodes index the source tree's points, so with ten times more
/// sources than targets their boxes reach far past the end of the target
/// points.  The engine slices target points for target-tree boxes only (a
/// checked-container build aborts on the stray slice otherwise).
TEST(CountingEndToEndSlices, TenTimesMoreSourcesThanTargets) {
  for (const Method method : {Method::kFmmAdvanced, Method::kFmmBasic}) {
    Rng rng(41);
    const std::size_t ns = 20000, nt = 2000;
    const auto src = generate_points(Distribution::kCube, ns, rng);
    const auto tgt = generate_points(Distribution::kSphere, nt, rng);
    const std::vector<double> q(ns, 1.0);
    EvalConfig cfg;
    cfg.method = method;
    cfg.threshold = 30;
    cfg.localities = 2;
    cfg.cores_per_locality = 2;
    Evaluator eval(make_kernel("counting"), cfg);
    const EvalResult r = eval.evaluate(src, q, tgt);
    ASSERT_EQ(r.potentials.size(), nt);
    for (std::size_t i = 0; i < nt; ++i) {
      ASSERT_NEAR(r.potentials[i], static_cast<double>(ns), 1e-6)
          << to_string(method) << " target " << i;
    }
  }
}

double rel_l2_error(std::span<const double> got, std::span<const double> ref) {
  double num = 0, den = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    num += (got[i] - ref[i]) * (got[i] - ref[i]);
    den += ref[i] * ref[i];
  }
  return std::sqrt(num / den);
}

/// A face coordinate far from the origin carries ulp(|x|) of rounding,
/// which on a deep tree exceeds any fixed share of the box size.  A
/// Plummer cloud moved by 1e5 must still find every adjacency (a missed
/// one becomes a list-2 offset that classify_direction rejects), build
/// its DAG, and evaluate to three digits with either FMM method.
class FarPlummerCloud : public ::testing::TestWithParam<Method> {};

TEST_P(FarPlummerCloud, BuildsListsAndDagAndMatchesDirect) {
  const Method method = GetParam();
  Rng rng(29);
  const Vec3 far{1e5, 1e5, 1e5};
  const auto src = generate_points(Distribution::kPlummer, 6000, rng, far);
  const auto tgt = generate_points(Distribution::kPlummer, 5000, rng,
                                   far + Vec3{0.01, -0.02, 0.005});
  const auto q = generate_charges(src.size(), rng, 0.1, 1.0);
  constexpr int kThreshold = 4;

  const DualTree dt = build_dual_tree(src, tgt, kThreshold, 2);
  EXPECT_GE(std::max(dt.source.max_level(), dt.target.max_level()), 8);
  auto counting = make_kernel("counting");
  counting->setup(dt.source.domain().size, dt.source.max_level() + 1, 3);
  const InteractionLists lists = build_lists(dt);
  EXPECT_GT(lists.total_l2(), 0u);
  DagBuildConfig dcfg;
  dcfg.method = method;
  const Dag dag = build_dag(dt, lists, *counting, dcfg, 2);
  EXPECT_GT(dag.edges.size(), 0u);

  EvalConfig cfg;
  cfg.method = method;
  cfg.threshold = kThreshold;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  const auto ref = direct_sum(eval.kernel(), src, q, tgt);
  EXPECT_LT(rel_l2_error(r.potentials, ref), 1e-3) << to_string(method);
}

INSTANTIATE_TEST_SUITE_P(Methods, FarPlummerCloud,
                         ::testing::Values(Method::kFmmAdvanced,
                                           Method::kFmmBasic),
                         [](const auto& info) {
                           return std::string(info.param == Method::kFmmBasic
                                                  ? "basic"
                                                  : "advanced");
                         });

/// The merge plan of a deep tree far from the origin, where the list-2
/// offsets come from boxes whose face coordinates round.
TEST(MergePlanOracle, FarPlummerCloudMatchesSetAlgebra) {
  Rng rng(29);
  const Vec3 far{1e5, 1e5, 1e5};
  const auto src = generate_points(Distribution::kPlummer, 6000, rng, far);
  const auto tgt = generate_points(Distribution::kPlummer, 5000, rng,
                                   far + Vec3{0.01, -0.02, 0.005});
  expect_plan_matches_oracle(src, tgt, "counting", Method::kFmmAdvanced, 4);
}

TEST(DagStatsTable, MatchesPaperShapeOnUniformCube) {
  // Qualitative Table I/II checks on uniform cube data: every Is has
  // in-degree exactly 1 (M->I), every L at most 2 inputs in the advanced
  // method with identical ensembles (I->L + L->L), S->L and M->L absent.
  Rng rng(5);
  const auto src = generate_points(Distribution::kCube, 20000, rng);
  const auto tgt = generate_points(Distribution::kCube, 20000, rng);
  const DualTree dt = build_dual_tree(src, tgt, 60, 1);
  auto kernel = make_kernel("counting");
  kernel->setup(dt.source.domain().size, dt.source.max_level() + 1, 3);
  const InteractionLists lists = build_lists(dt);
  DagBuildConfig cfg;
  const Dag dag = build_dag(dt, lists, *kernel, cfg, 1);
  const DagStats s = dag.stats();
  const auto& is = s.nodes[static_cast<int>(NodeKind::kIs)];
  EXPECT_EQ(is.din_min, 1u);
  EXPECT_EQ(is.din_max, 1u);
  // On the paper's 30M-point cube, list 4 is exactly empty; at this size a
  // few leaves end one level coarser, so merely require S->L to be rare.
  EXPECT_LT(s.edges[static_cast<int>(Operator::kS2L)].count,
            s.edges[static_cast<int>(Operator::kI2I)].count / 100);
  EXPECT_EQ(s.edges[static_cast<int>(Operator::kM2L)].count, 0u);
  EXPECT_EQ(s.edges[static_cast<int>(Operator::kM2I)].count,
            s.nodes[static_cast<int>(NodeKind::kIs)].count);
  EXPECT_EQ(s.edges[static_cast<int>(Operator::kI2L)].count,
            s.nodes[static_cast<int>(NodeKind::kIt)].count);
  // Merge-and-shift must beat the naive list-2 edge count.
  std::size_t l2 = lists.total_l2();
  EXPECT_LT(s.edges[static_cast<int>(Operator::kI2I)].count, l2);
}

}  // namespace
}  // namespace amtfmm
