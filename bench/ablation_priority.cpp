// Ablation for the paper's section VI estimate: "If this could be addressed
// by the introduction of priorities for the tasks, even so simple a system
// as a binary choice between low and high priority, this underutilization
// could largely be eliminated ... The effect is to increase the scaling
// efficiency by 10% or more."
//
// We implement exactly that binary priority (upward-pass S->M / M->M / M->I
// tasks high, everything else low) and compare against the plain
// work-stealing schedule on the same DAG, plus a FIFO baseline.  Both gain
// columns are scaling-efficiency differences against work stealing.

#include "../bench/common.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("ablation_priority: section VI priority-hint estimate");
  cli.add_flag("n", static_cast<std::int64_t>(500000), "points per ensemble");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  Ensembles e = make_ensembles(Distribution::kCube, n, 11);
  EvalConfig cfg;
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  Evaluator plain(make_kernel("laplace"), cfg);
  cfg.split_priority = true;  // engine splits tasks; scheduler honours them
  Evaluator prio(make_kernel("laplace"), cfg);

  print_header("Priority ablation: scaling efficiency with and without the "
               "binary priority extension");
  std::printf("%zu points cube Laplace; efficiency relative to the same "
              "scheduler at 32 cores\n\n", n);
  std::printf("%8s %16s %16s %16s %14s %14s\n", "cores", "t work-steal [s]",
              "t priority [s]", "t fifo [s]", "eff gain", "fifo gain");

  double base_ws = -1, base_prio = -1, base_fifo = -1;
  for (int cores = 32; cores <= 2048; cores *= 2) {
    SimConfig sim;
    sim.localities = cores / 32;
    sim.cores_per_locality = 32;
    sim.cost = CostModel::paper("laplace");

    sim.policy = SchedPolicy::kWorkStealing;
    const double t_ws = plain.simulate(e.sources, e.targets, sim).makespan;
    const double t_prio = prio.simulate(e.sources, e.targets, sim).makespan;

    sim.policy = SchedPolicy::kFifo;
    const double t_fifo = plain.simulate(e.sources, e.targets, sim).makespan;

    if (base_ws < 0) {
      base_ws = t_ws;
      base_prio = t_prio;
      base_fifo = t_fifo;
    }
    const double eff_ws = base_ws / t_ws / (cores / 32.0);
    const double eff_prio = base_prio / t_prio / (cores / 32.0);
    const double eff_fifo = base_fifo / t_fifo / (cores / 32.0);
    std::printf("%8d %16.4f %16.4f %16.4f %12.1f%% %12.1f%%\n", cores, t_ws,
                t_prio, t_fifo, 100.0 * (eff_prio - eff_ws),
                100.0 * (eff_fifo - eff_ws));
  }
  std::printf("\npaper estimate: priorities recover >= 10%% scaling "
              "efficiency at high core counts.\n");
  return 0;
}
