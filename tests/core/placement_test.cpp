#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "tree/lists.hpp"

namespace amtfmm {
namespace {

/// The distribution policy of section IV: leaf expansions are pinned to the
/// data, but intermediate (It) nodes may move.  The comm-min policy must
/// never increase — and normally strictly decreases — the bytes crossing
/// localities, while leaving results bit-for-bit equivalent structurally.
TEST(Placement, CommMinReducesRemoteTraffic) {
  Rng rng(19);
  const std::size_t n = 40000;
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const int localities = 8;
  const DualTree dt = build_dual_tree(src, tgt, 60, localities);
  auto kernel = make_kernel("counting");
  kernel->setup(dt.source.domain().size, dt.source.max_level() + 1, 3);
  const InteractionLists lists = build_lists(dt);

  DagBuildConfig owner;
  owner.placement = Placement::kOwner;
  DagBuildConfig commmin;
  commmin.placement = Placement::kCommMin;
  const Dag d_owner = build_dag(dt, lists, *kernel, owner, localities);
  const Dag d_comm = build_dag(dt, lists, *kernel, commmin, localities);

  // Same DAG structure, different placement.
  ASSERT_EQ(d_owner.nodes.size(), d_comm.nodes.size());
  ASSERT_EQ(d_owner.edges.size(), d_comm.edges.size());

  auto remote_bytes = [](const Dag& d) {
    std::uint64_t total = 0;
    for (const DagNode& node : d.nodes) {
      for (std::uint32_t e = node.first_edge;
           e < node.first_edge + node.num_edges; ++e) {
        if (d.nodes[d.edges[e].target].locality != node.locality) {
          total += d.edges[e].bytes;
        }
      }
    }
    return total;
  };
  const std::uint64_t owner_bytes = remote_bytes(d_owner);
  const std::uint64_t comm_bytes = remote_bytes(d_comm);
  EXPECT_GT(owner_bytes, 0u);
  EXPECT_LT(comm_bytes, owner_bytes);

  // Leaf pinning invariant: S, T, leaf M and leaf L stay on their box's
  // locality under BOTH policies (the paper's hard constraint).
  for (const Dag* d : {&d_owner, &d_comm}) {
    for (const DagNode& node : d->nodes) {
      if (node.kind == NodeKind::kIt) continue;  // the movable class
      const TreeBox& box = (node.kind == NodeKind::kS ||
                            node.kind == NodeKind::kM ||
                            node.kind == NodeKind::kIs)
                               ? dt.source.box(node.box)
                               : dt.target.box(node.box);
      EXPECT_EQ(node.locality, box.locality);
    }
  }
}

/// The comm-min tie rule, checked against a tally rebuilt from each It
/// node's in-edges with every sender counted at its box's owner (the
/// builder tallies before any It node moves): an It node leaves its owner
/// only for a locality sending it strictly more bytes than the owner does,
/// and among tied other localities the lowest index wins.
TEST(Placement, CommMinMovesItNodesByTheStrictByteRule) {
  Rng rng(31);
  const auto src = generate_points(Distribution::kSphere, 20000, rng);
  const auto tgt = generate_points(Distribution::kSphere, 20000, rng);
  std::size_t moved = 0, tied = 0;
  for (const int localities : {2, 3, 4, 8}) {
    SCOPED_TRACE(testing::Message() << localities << " localities");
    const DualTree dt = build_dual_tree(src, tgt, 30, localities);
    auto kernel = make_kernel("counting");
    kernel->setup(dt.source.domain().size,
                  std::max(dt.source.max_level(), dt.target.max_level()) + 1,
                  3);
    const Dag dag = build_dag(dt, build_lists(dt), *kernel, DagBuildConfig{},
                              localities);
    auto owner = [&](const DagNode& n) {
      const bool source_tree = n.kind == NodeKind::kS ||
                               n.kind == NodeKind::kM ||
                               n.kind == NodeKind::kIs;
      return (source_tree ? dt.source : dt.target).box(n.box).locality;
    };
    std::vector<std::vector<std::uint64_t>> tally(dag.nodes.size());
    for (const DagNode& n : dag.nodes) {
      for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges;
           ++e) {
        const DagEdge& edge = dag.edges[e];
        if (dag.nodes[edge.target].kind != NodeKind::kIt) continue;
        auto& t = tally[edge.target];
        t.resize(static_cast<std::size_t>(localities), 0);
        t[owner(n)] += edge.bytes;
      }
    }
    for (NodeIndex ni = 0; ni < dag.nodes.size(); ++ni) {
      const DagNode& n = dag.nodes[ni];
      if (n.kind != NodeKind::kIt) {
        // Leaf pinning: every other node stays at its box's owner.
        EXPECT_EQ(n.locality, owner(n)) << "node " << ni;
        continue;
      }
      const std::vector<std::uint64_t>& t = tally[ni];
      ASSERT_EQ(t.size(), static_cast<std::size_t>(localities));
      const std::uint32_t own = owner(n);
      const std::uint64_t top = *std::max_element(t.begin(), t.end());
      if (std::count(t.begin(), t.end(), top) > 1) ++tied;
      if (n.locality == own) {
        EXPECT_EQ(t[own], top) << "It node " << ni << " kept by its owner";
        continue;
      }
      ++moved;
      EXPECT_GT(t[n.locality], t[own]) << "It node " << ni;
      EXPECT_EQ(t[n.locality], top) << "It node " << ni;
      for (std::uint32_t loc = 0; loc < n.locality; ++loc) {
        EXPECT_LT(t[loc], top) << "It node " << ni << ": lower tied locality";
      }
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_GT(tied, 0u) << "the geometry must exercise the tie rule";
}

/// Barnes-Hut accuracy must improve monotonically as theta shrinks, with
/// the usual theta ~ error tradeoff.
class BhTheta : public ::testing::TestWithParam<double> {};

TEST_P(BhTheta, AccuracyTracksOpeningAngle) {
  const double theta = GetParam();
  Rng rng(23);
  const std::size_t n = 3000;
  const auto pts = generate_points(Distribution::kPlummer, n, rng);
  const std::vector<double> mass(n, 1.0 / static_cast<double>(n));
  EvalConfig cfg;
  cfg.method = Method::kBarnesHut;
  cfg.bh_theta = theta;
  cfg.threshold = 30;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(pts, mass, pts);
  const auto exact = direct_sum(eval.kernel(), pts, mass, pts);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (r.potentials[i] - exact[i]) * (r.potentials[i] - exact[i]);
    den += exact[i] * exact[i];
  }
  const double err = std::sqrt(num / den);
  // p = 9 multipoles: even theta = 0.9 stays well under a percent.
  EXPECT_LT(err, 0.01 * theta + 1e-6) << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(Sweep, BhTheta, ::testing::Values(0.3, 0.5, 0.7, 0.9));

/// Larger-scale counting run exercising deep adaptive trees end to end
/// (sphere data, small threshold) — the structural stress test.
TEST(CountingAtScale, DeepAdaptiveTree) {
  Rng rng(29);
  const std::size_t ns = 20000, nt = 15000;
  const auto src = generate_points(Distribution::kSphere, ns, rng);
  const auto tgt = generate_points(Distribution::kSphere, nt, rng);
  const std::vector<double> q(ns, 1.0);
  EvalConfig cfg;
  cfg.threshold = 8;
  cfg.localities = 4;
  cfg.cores_per_locality = 2;
  Evaluator eval(make_kernel("counting"), cfg);
  const EvalResult r = eval.evaluate(src, q, tgt);
  for (std::size_t i = 0; i < nt; ++i) {
    ASSERT_NEAR(r.potentials[i], static_cast<double>(ns), 1e-5) << i;
  }
}

}  // namespace
}  // namespace amtfmm
