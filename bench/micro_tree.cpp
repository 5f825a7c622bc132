// Micro-benchmarks of the setup phase: dual-tree construction, interaction
// lists, and explicit-DAG construction (the paper amortizes these over many
// evaluations; they bound the first-iteration cost).  Lists and DAG are
// timed on two geometries: the paper's (threshold 60) and fmmbench's
// dataflow_counting (Counting kernel, threshold 10, 2 localities: 206k DAG
// nodes at n = 1e5).

#include <benchmark/benchmark.h>

#include <algorithm>

#include "core/dag.hpp"
#include "geom/distributions.hpp"
#include "tree/lists.hpp"

namespace {

using namespace amtfmm;

void BM_TreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const auto pts = generate_points(Distribution::kCube, n, rng);
  const Cube domain = bounding_cube(pts, {});
  for (auto _ : state) {
    Tree t = Tree::build(pts, domain, 60, 4);
    benchmark::DoNotOptimize(t.boxes().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_TreeBuild)->Arg(10000)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

/// Setup geometry of uniform-cube sources and targets.
struct Geometry {
  const char* kernel;
  int threshold;
  int localities;
};
constexpr Geometry kPaper{"laplace", 60, 4};
constexpr Geometry kDataflowCounting{"counting", 10, 2};

void BM_InteractionLists(benchmark::State& state, Geometry g) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const DualTree dt = build_dual_tree(src, tgt, g.threshold, g.localities);
  for (auto _ : state) {
    InteractionLists lists = build_lists(dt);
    benchmark::DoNotOptimize(lists.l2.data());
  }
}
BENCHMARK_CAPTURE(BM_InteractionLists, paper, kPaper)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_InteractionLists, dataflow_counting, kDataflowCounting)
    ->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_DagBuild(benchmark::State& state, Geometry g) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  const auto src = generate_points(Distribution::kCube, n, rng);
  const auto tgt = generate_points(Distribution::kCube, n, rng);
  const DualTree dt = build_dual_tree(src, tgt, g.threshold, g.localities);
  auto kernel = make_kernel(g.kernel);
  kernel->setup(dt.source.domain().size,
                std::max(dt.source.max_level(), dt.target.max_level()) + 1, 3);
  const InteractionLists lists = build_lists(dt);
  for (auto _ : state) {
    Dag dag = build_dag(dt, lists, *kernel, DagBuildConfig{}, g.localities);
    benchmark::DoNotOptimize(dag.nodes.data());
  }
}
BENCHMARK_CAPTURE(BM_DagBuild, paper, kPaper)
    ->Arg(10000)->Arg(100000)->Arg(1000000)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_DagBuild, dataflow_counting, kDataflowCounting)
    ->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_SphereTreeDepth(benchmark::State& state) {
  // Sphere-surface data: the adaptive worst case of the paper's inputs.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(4);
  const auto pts = generate_points(Distribution::kSphere, n, rng);
  const Cube domain = bounding_cube(pts, {});
  for (auto _ : state) {
    Tree t = Tree::build(pts, domain, 60, 1);
    benchmark::DoNotOptimize(t.max_level());
  }
}
BENCHMARK(BM_SphereTreeDepth)->Arg(100000)->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
