// Reproduces Figure 5 of the paper: per-class utilization fractions f_k^(i)
// for the 128-core cube/Laplace run, in the paper's three panels:
//   (top)    operations up the source tree:          S->M, M->M
//   (middle) operations bridging source -> target:   M->I, I->I, I->L
//   (bottom) operations finishing at the targets:    S->T, L->L, L->T
// The diagnostic the paper draws from this figure: without priorities, the
// cheap-but-critical upward work is scheduled throughout the run (top
// panel), starving the bridge/downward phases near the end.

#include "../bench/common.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("fig5_class_utilization: paper Figure 5 (utilization by class)");
  cli.add_flag("n", static_cast<std::int64_t>(500000),
               "points per ensemble (paper: 30M)");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.add_flag("cores", static_cast<std::int64_t>(128), "total cores");
  cli.add_flag("intervals", static_cast<std::int64_t>(100), "time intervals M");
  add_trace_out_flag(cli);
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const int intervals = static_cast<int>(cli.i64("intervals"));
  Ensembles e = make_ensembles(Distribution::kCube, n, 11);

  EvalConfig cfg;
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.trace = true;
  cfg.counters = true;
  Evaluator eval(make_kernel("laplace"), cfg);
  SimConfig sim;
  sim.localities = static_cast<int>(cli.i64("cores")) / 32;
  sim.cores_per_locality = 32;
  sim.cost = CostModel::paper("laplace");
  const EvalResult r = eval.simulate(e.sources, e.targets, sim);
  const UtilizationProfile p =
      utilization(r.trace, 0.0, r.makespan, intervals,
                  sim.localities * sim.cores_per_locality);

  print_header("Figure 5: utilization fraction by operator class, " +
               std::to_string(cli.i64("cores")) + "-core run");
  std::printf("%zu points cube Laplace; evaluation time %.3f s (paper: 17.6 s "
              "at 30M points)\n\n", n, r.makespan);
  auto cls = [&](Operator op) {
    return p.by_class[static_cast<std::size_t>(op)];
  };
  std::printf("%4s | %8s %8s | %8s %8s %8s | %8s %8s %8s\n", "k", "S->M",
              "M->M", "M->I", "I->I", "I->L", "S->T", "L->L", "L->T");
  for (int k = 0; k < intervals; ++k) {
    const auto i = static_cast<std::size_t>(k);
    std::printf("%4d | %8.4f %8.4f | %8.4f %8.4f %8.4f | %8.4f %8.4f %8.4f\n",
                k, cls(Operator::kS2M)[i], cls(Operator::kM2M)[i],
                cls(Operator::kM2I)[i], cls(Operator::kI2I)[i],
                cls(Operator::kI2L)[i], cls(Operator::kS2T)[i],
                cls(Operator::kL2L)[i], cls(Operator::kL2T)[i]);
  }

  // The paper's headline observation: the last interval in which upward
  // (S->M / M->M) work still runs, as a fraction of the execution.
  int last_up = 0;
  for (int k = 0; k < intervals; ++k) {
    const auto i = static_cast<std::size_t>(k);
    if (cls(Operator::kS2M)[i] + cls(Operator::kM2M)[i] > 1e-4) last_up = k;
  }
  std::printf("\nupward-pass work still scheduled at %d%% of the execution "
              "(paper: \"up to 83%%\" without priorities)\n",
              100 * last_up / intervals);
  if (!export_trace_if_requested(cli, r, 32)) return 1;
  return 0;
}
