// The resident evaluation pipeline: steady-state epochs reuse the tree +
// DAG + LCO arena with no new nodes, repeat evaluations are
// bit-identical on a deterministic schedule, batched requests demux
// exactly, and incremental geometry updates match a full rebuild.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"

namespace amtfmm {
namespace {

double max_rel_err(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]) / std::max(1.0, std::abs(b[i])));
  }
  return m;
}

struct Problem {
  std::vector<Vec3> sources, targets;
  std::vector<double> charges;
};

Problem make_problem(std::size_t n, std::uint64_t seed) {
  Rng rs(seed), rt(seed + 1), rq(seed + 2);
  return {generate_points(Distribution::kCube, n, rs),
          generate_points(Distribution::kCube, n, rt),
          generate_charges(n, rq, 0.1, 1.0)};
}

EvalConfig small_cfg() {
  EvalConfig cfg;
  cfg.threshold = 40;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  return cfg;
}

// The pipeline, not its caller, applies EvalConfig::m2l_mode to the kernel
// it borrows.
TEST(EvalPipeline, AppliesConfiguredM2LMode) {
  const Problem p = make_problem(500, 29);
  EvalConfig cfg = small_cfg();
  cfg.m2l_mode = M2LMode::kNaive;
  auto kernel = make_kernel("laplace");
  ASSERT_EQ(kernel->m2l_mode(), M2LMode::kRotation);
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);
  EXPECT_EQ(kernel->m2l_mode(), M2LMode::kNaive);
}

TEST(EvalPipeline, ResidentReuseIsAllocationFreeAndExact) {
  const Problem p = make_problem(3000, 21);
  const EvalConfig cfg = small_cfg();
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);

  const EvalResult first = pipe.evaluate(p.charges);
  EXPECT_EQ(pipe.epochs(), 1u);
  EXPECT_GT(first.wire_bytes, 0u);
  EXPECT_EQ(first.wire_bytes, first.bytes_sent);

  for (int e = 2; e <= 4; ++e) {
    const EvalResult r = pipe.evaluate(p.charges);
    EXPECT_EQ(pipe.epochs(), static_cast<std::uint64_t>(e));
    // Steady state: the resident arena is re-armed, never grown, and the
    // re-arm is a measurable but tiny fraction of the epoch.
    EXPECT_EQ(pipe.gas_allocs_last_epoch(), 0u) << "epoch " << e;
    EXPECT_GT(pipe.last_reset_seconds(), 0.0);
    // Per-epoch transport identity and parity with epoch 1.
    EXPECT_EQ(r.wire_bytes, first.wire_bytes) << "epoch " << e;
    EXPECT_EQ(r.bytes_sent, first.bytes_sent) << "epoch " << e;
    EXPECT_EQ(r.parcels_sent, first.parcels_sent) << "epoch " << e;
    EXPECT_LT(max_rel_err(r.potentials, first.potentials), 1e-12);
  }

  // A fresh one-shot build of the identical problem agrees at 1e-12.
  Evaluator fresh(make_kernel("laplace"), cfg);
  const EvalResult f = fresh.evaluate(p.sources, p.charges, p.targets);
  EXPECT_LT(max_rel_err(first.potentials, f.potentials), 1e-12);
  EXPECT_EQ(first.wire_bytes, f.wire_bytes);
}

// A caller's own parcel between two epochs of a pipeline on a borrowed
// executor (a serve gather, say) is not the next epoch's traffic: each
// epoch's transport deltas start from the executor's counters at that
// epoch's start.
TEST(EvalPipeline, ParcelSentBetweenEpochsStaysOutOfTheNextEpoch) {
  const Problem p = make_problem(2000, 31);
  ThreadExecutor ex(2, 1);
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, small_cfg(), p.sources, p.targets, ex);
  const EvalResult first = pipe.evaluate(p.charges);
  ASSERT_GT(first.wire_bytes, 0u);
  ex.register_net_handler(kNetKindUser, [](const std::vector<std::byte>&) {});
  Task gather;
  gather.net_kind = kNetKindUser;
  gather.net_payload = std::make_shared<const std::vector<std::byte>>(64);
  ex.send(0, 1, 64, std::move(gather));
  const EvalResult second = pipe.evaluate(p.charges);
  EXPECT_EQ(second.wire_bytes, first.wire_bytes);
  EXPECT_EQ(second.bytes_sent, first.bytes_sent);
  EXPECT_EQ(second.parcels_sent, first.parcels_sent);
  EXPECT_LT(max_rel_err(second.potentials, first.potentials), 1e-12);
}

TEST(EvalPipeline, RepeatEpochsAreBitIdenticalOnOneWorker) {
  // One locality, one core: a deterministic schedule, so 100 resident
  // epochs must reproduce epoch 1 bit for bit (same sums in same order).
  const Problem p = make_problem(800, 22);
  EvalConfig cfg = small_cfg();
  cfg.localities = 1;
  cfg.cores_per_locality = 1;
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);

  const EvalResult first = pipe.evaluate(p.charges);
  std::uint64_t allocs = 0;
  for (int e = 2; e <= 100; ++e) {
    const EvalResult r = pipe.evaluate(p.charges);
    allocs += pipe.gas_allocs_last_epoch();
    ASSERT_EQ(r.potentials.size(), first.potentials.size());
    ASSERT_EQ(std::memcmp(r.potentials.data(), first.potentials.data(),
                          r.potentials.size() * sizeof(double)),
              0)
        << "epoch " << e << " drifted";
  }
  EXPECT_EQ(pipe.epochs(), 100u);
  EXPECT_EQ(allocs, 0u);
}

TEST(EvalPipeline, BatchedRequestsDemuxExactly) {
  const Problem p = make_problem(2000, 23);
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, small_cfg(), p.sources, p.targets);

  Rng rng(5);
  std::vector<EvalRequest> reqs(3);
  for (auto& r : reqs) {
    const std::size_t len = 1 + rng.below(p.targets.size() / 2);
    for (std::size_t j = 0; j < len; ++j) {
      r.targets.push_back(
          static_cast<std::uint32_t>(rng.below(p.targets.size())));
    }
  }
  reqs.push_back({});  // an empty request demuxes to an empty slice

  const BatchEvalResult b = pipe.evaluate_batch(p.charges, reqs);
  ASSERT_EQ(b.per_request.size(), reqs.size());
  for (std::size_t r = 0; r < reqs.size(); ++r) {
    ASSERT_EQ(b.per_request[r].size(), reqs[r].targets.size());
    for (std::size_t j = 0; j < reqs[r].targets.size(); ++j) {
      EXPECT_EQ(b.per_request[r][j],
                b.combined.potentials[reqs[r].targets[j]]);
    }
  }
  // The batched epoch is one ordinary traversal.
  EXPECT_EQ(pipe.epochs(), 1u);
}

TEST(EvalPipeline, EmptyUpdateKeepsArenaAndAnswer) {
  const Problem p = make_problem(1500, 24);
  // One worker: a deterministic schedule makes bit-identity meaningful.
  EvalConfig cfg = small_cfg();
  cfg.localities = 1;
  cfg.cores_per_locality = 1;
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);
  const EvalResult before = pipe.evaluate(p.charges);

  const PipelineUpdateStats st = pipe.update_sources({});
  EXPECT_FALSE(st.rebuilt);
  EXPECT_EQ(st.dirty_leaves, 0u);
  EXPECT_EQ(pipe.rebuilds(), 0u);

  const EvalResult after = pipe.evaluate(p.charges);
  EXPECT_EQ(pipe.gas_allocs_last_epoch(), 0u);
  ASSERT_EQ(std::memcmp(after.potentials.data(), before.potentials.data(),
                        after.potentials.size() * sizeof(double)),
            0);
}

TEST(EvalPipeline, IncrementalUpdateMatchesFreshBuild) {
  const Problem p = make_problem(2500, 25);
  const EvalConfig cfg = small_cfg();
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);
  (void)pipe.evaluate(p.charges);

  // Nudge interior source points by a fraction of their leaf size: tiny
  // enough to stay in-leaf for most, and any structure change falls back
  // to a rebuild — either way the answer must match a fresh build.
  const Tree& st = pipe.model().tree.source;
  PipelineUpdate u;
  const Cube dom = st.domain();
  for (std::uint32_t s = 0; s < st.num_points(); s += 37) {
    Vec3 pos = st.sorted_points()[s];
    const double h = dom.size / (1 << st.max_level());
    pos.x += 0.05 * h;
    // Interior points only: hull points would change the bounding cube a
    // fresh build computes, making 1e-12 parity meaningless.
    const Vec3 c = dom.center();
    if (std::abs(pos.x - c.x) > 0.45 * dom.size ||
        std::abs(pos.y - c.y) > 0.45 * dom.size ||
        std::abs(pos.z - c.z) > 0.45 * dom.size) {
      continue;
    }
    u.moves.push_back({st.original_index()[s], pos});
  }
  ASSERT_FALSE(u.moves.empty());
  const PipelineUpdateStats stx = pipe.update_sources(u);

  std::vector<Vec3> patched = p.sources;
  for (const PointMove& m : u.moves) patched[m.index] = m.position;
  const EvalResult inc = pipe.evaluate(p.charges);
  if (!stx.rebuilt) {
    EXPECT_GT(stx.dirty_leaves, 0u);
    EXPECT_EQ(pipe.gas_allocs_last_epoch(), 0u)
        << "incremental update must keep the resident arena";
  }

  Evaluator fresh(make_kernel("laplace"), cfg);
  const EvalResult f = fresh.evaluate(patched, p.charges, p.targets);
  EXPECT_LT(max_rel_err(inc.potentials, f.potentials), 1e-12);
}

TEST(EvalPipeline, StructureChangingUpdateRebuildsAndStaysCorrect) {
  const Problem p = make_problem(1500, 26);
  const EvalConfig cfg = small_cfg();
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);
  (void)pipe.evaluate(p.charges);

  // Move one source far outside the tree domain: the incremental path
  // must refuse and the pipeline must transparently rebuild.
  const Cube dom = pipe.model().tree.source.domain();
  PipelineUpdate u;
  u.moves.push_back({0, {dom.center().x + dom.size * 4.0,
                         dom.center().y, dom.center().z}});
  const PipelineUpdateStats st = pipe.update_sources(u);
  EXPECT_TRUE(st.rebuilt);
  EXPECT_EQ(pipe.rebuilds(), 1u);

  std::vector<Vec3> patched = p.sources;
  patched[0] = u.moves[0].position;
  const EvalResult inc = pipe.evaluate(p.charges);
  EXPECT_EQ(pipe.epochs(), 1u) << "rebuild starts a fresh resident engine";

  Evaluator fresh(make_kernel("laplace"), cfg);
  const EvalResult f = fresh.evaluate(patched, p.charges, p.targets);
  EXPECT_LT(max_rel_err(inc.potentials, f.potentials), 1e-12);
  EXPECT_EQ(inc.wire_bytes, f.wire_bytes);
}

void expect_same_stats(const DagStats& got, const DagStats& want) {
  EXPECT_EQ(got.total_nodes, want.total_nodes);
  EXPECT_EQ(got.total_edges, want.total_edges);
  EXPECT_EQ(got.remote_edges, want.remote_edges);
  for (std::size_t k = 0; k < got.nodes.size(); ++k) {
    SCOPED_TRACE(to_string(static_cast<NodeKind>(k)));
    const DagStats::NodeClass& g = got.nodes[k];
    const DagStats::NodeClass& w = want.nodes[k];
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.min_bytes, w.min_bytes);
    EXPECT_EQ(g.max_bytes, w.max_bytes);
    EXPECT_EQ(g.din_min, w.din_min);
    EXPECT_EQ(g.din_max, w.din_max);
    EXPECT_EQ(g.dout_min, w.dout_min);
    EXPECT_EQ(g.dout_max, w.dout_max);
  }
  for (std::size_t op = 0; op < got.edges.size(); ++op) {
    SCOPED_TRACE(to_string(static_cast<Operator>(op)));
    const DagStats::EdgeClass& g = got.edges[op];
    const DagStats::EdgeClass& w = want.edges[op];
    EXPECT_EQ(g.count, w.count);
    EXPECT_EQ(g.min_bytes, w.min_bytes);
    EXPECT_EQ(g.max_bytes, w.max_bytes);
    EXPECT_EQ(g.total_bytes, w.total_bytes);
  }
}

/// The DAG statistics an epoch reports are cached with the model and
/// recomputed after each change of the DAG: build, incremental refresh
/// and rebuild.
TEST(EvalPipeline, EpochDagStatsFollowEveryDagChange) {
  const Problem p = make_problem(3000, 27);
  const EvalConfig cfg = small_cfg();
  auto kernel = make_kernel("counting");
  EvalPipeline pipe(*kernel, cfg, p.sources, p.targets);
  {
    SCOPED_TRACE("after the build");
    expect_same_stats(pipe.evaluate(p.charges).dag, pipe.model().dag.stats());
  }
  const std::uint64_t s2t_bytes =
      pipe.model().dag.stats().edges[static_cast<int>(Operator::kS2T)]
          .total_bytes;

  // Move one point between two sibling source leaves whose S nodes feed
  // different numbers of S->T edges: their parents' counts stay put, so
  // the update is incremental, and the S->T bytes change.
  const Tree& st = pipe.model().tree.source;
  const Dag& dag = pipe.model().dag;
  auto s2t_degree = [&](BoxIndex b) {
    const DagNode& n = dag.nodes[dag.s_of_box[b]];
    std::size_t k = 0;
    for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges; ++e) {
      k += dag.edges[e].op == Operator::kS2T ? 1 : 0;
    }
    return k;
  };
  PipelineUpdate u;
  for (BoxIndex b = 0; b < st.boxes().size() && u.moves.empty(); ++b) {
    const TreeBox& parent = st.box(b);
    for (const BoxIndex from : parent.child) {
      for (const BoxIndex to : parent.child) {
        if (from == kNoBox || to == kNoBox || from == to) continue;
        const TreeBox& a = st.box(from);
        const TreeBox& c = st.box(to);
        if (!a.is_leaf() || !c.is_leaf() || a.count < 2 ||
            c.count >= static_cast<std::uint32_t>(cfg.threshold) ||
            dag.s_of_box[from] == kNoNode || dag.s_of_box[to] == kNoNode ||
            s2t_degree(from) == s2t_degree(to) || !u.moves.empty()) {
          continue;
        }
        u.moves.push_back(
            {st.original_index()[a.first], st.sorted_points()[c.first]});
      }
    }
  }
  ASSERT_EQ(u.moves.size(), 1u);
  const PipelineUpdateStats up = pipe.update_sources(u);
  ASSERT_FALSE(up.rebuilt);
  {
    SCOPED_TRACE("after an incremental source move");
    const EvalResult r = pipe.evaluate(p.charges);
    expect_same_stats(r.dag, pipe.model().dag.stats());
    EXPECT_NE(r.dag.edges[static_cast<int>(Operator::kS2T)].total_bytes,
              s2t_bytes);
  }

  // A point moved outside the domain forces a rebuild.
  const Cube dom = pipe.model().tree.source.domain();
  PipelineUpdate far;
  far.moves.push_back({0, {dom.center().x + dom.size * 4.0, dom.center().y,
                           dom.center().z}});
  ASSERT_TRUE(pipe.update_sources(far).rebuilt);
  {
    SCOPED_TRACE("after a rebuild");
    expect_same_stats(pipe.evaluate(p.charges).dag, pipe.model().dag.stats());
  }
}

/// A move that keeps every box's point count leaves the DAG's annotations
/// current: the update skips their re-walk and keeps the cached stats.
TEST(EvalPipeline, InLeafMoveKeepsCachedDagStats) {
  const Problem p = make_problem(3000, 31);
  auto kernel = make_kernel("counting");
  EvalPipeline pipe(*kernel, small_cfg(), p.sources, p.targets);
  pipe.evaluate(p.charges);
  ASSERT_TRUE(pipe.model().dag_stats.has_value());

  // The midpoint of two points of one leaf lies in that leaf's cube.
  const Tree& st = pipe.model().tree.source;
  PipelineUpdate u;
  for (const TreeBox& b : st.boxes()) {
    if (!b.is_leaf() || b.count < 2) continue;
    const Vec3 a = st.sorted_points()[b.first];
    const Vec3 c = st.sorted_points()[b.first + 1];
    u.moves.push_back({st.original_index()[b.first],
                       {(a.x + c.x) / 2, (a.y + c.y) / 2, (a.z + c.z) / 2}});
    break;
  }
  ASSERT_EQ(u.moves.size(), 1u);
  const PipelineUpdateStats up = pipe.update_sources(u);
  ASSERT_FALSE(up.rebuilt);
  EXPECT_TRUE(pipe.model().dag_stats.has_value());
  const EvalResult r = pipe.evaluate(p.charges);
  expect_same_stats(r.dag, pipe.model().dag.stats());
}

}  // namespace
}  // namespace amtfmm
