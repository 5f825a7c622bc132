// Grain-size ablation.  The paper (section I) notes that DASHMM stresses
// the runtime along independent axes: "Adjusting the required accuracy
// adjusts the grain size (FLOPS and bytes transferred per task)" and the
// refinement threshold trades leaf work (S->T) against tree work.  This
// bench sweeps both knobs at a fixed core count and reports the simulated
// evaluation time, task grain, and efficiency — the mechanism behind the
// Yukawa-scales-better-than-Laplace observation of Figure 3.

#include "../bench/common.hpp"
#include "tree/lists.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("ablation_grainsize: threshold and accuracy vs scaling (paper sec. I)");
  cli.add_flag("n", static_cast<std::int64_t>(300000), "points per ensemble");
  cli.add_flag("cores", static_cast<std::int64_t>(1024), "total cores");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const int cores = static_cast<int>(cli.i64("cores"));
  Ensembles e = make_ensembles(Distribution::kCube, n, 13);

  print_header("Grain-size ablation at " + std::to_string(cores) + " cores");
  std::printf("%zu points cube; grain multiplier scales every operator cost "
              "(1x = paper Laplace, 3x = paper Yukawa)\n\n", n);
  std::printf("%10s %8s | %12s %12s %12s | %12s\n", "threshold", "grain",
              "t_32 [s]", "t_n [s]", "efficiency", "tasks");

  for (int threshold : {20, 60, 150}) {
    for (double grain : {1.0, 3.0, 9.0}) {
      EvalConfig cfg;
      cfg.threshold = threshold;
      Evaluator eval(make_kernel("laplace"), cfg);
      SimConfig sim;
      sim.cores_per_locality = 32;
      sim.cost = CostModel::paper("laplace");
      for (auto& b : sim.cost.base) b *= grain;
      for (auto& u : sim.cost.per_unit) u *= grain;

      sim.localities = 1;
      const EvalResult base = eval.simulate(e.sources, e.targets, sim);
      sim.localities = cores / 32;
      const EvalResult r = eval.simulate(e.sources, e.targets, sim);
      const double eff = base.makespan / r.makespan / (cores / 32.0);
      std::printf("%10d %7.0fx | %12.4f %12.4f %11.1f%% | %12zu\n", threshold,
                  grain, base.makespan, r.makespan, 100.0 * eff,
                  r.dag.total_nodes);
    }
  }
  std::printf("\nheavier grains scale better at fixed concurrency (the "
              "paper's Laplace-vs-Yukawa contrast); larger thresholds\n"
              "shift work into S->T leaves and shrink the DAG.\n");
  return 0;
}
