// Scaling explorer: an interactive front end to the discrete-event cluster
// simulation.  Pick a distribution, kernel, core count and scheduler policy
// and get the predicted evaluation time, parallel efficiency, utilization
// summary, and network traffic — the tool version of the paper's section V
// methodology.
//
//   ./examples/scaling_explorer --dist sphere --kernel yukawa --cores 1024
//   ./examples/scaling_explorer --policy priority   # section VI's fix

#include <cstdio>

#include "../bench/common.hpp"
#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "support/cli.hpp"

using namespace amtfmm;

int main(int argc, char** argv) {
  Cli cli("scaling_explorer: predict FMM scaling on a simulated cluster");
  cli.add_flag("n", static_cast<std::int64_t>(500000), "points per ensemble");
  cli.add_flag("dist", std::string("cube"), "cube|sphere|plummer");
  cli.add_flag("kernel", std::string("laplace"), "laplace|yukawa");
  cli.add_flag("cores", static_cast<std::int64_t>(512), "total cores (32/locality)");
  cli.add_flag("policy", std::string("worksteal"), "worksteal|fifo|priority");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.add_flag("cost-profile", std::string("paper"), "paper|host");
  bench::add_trace_out_flag(cli);
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const int cores = static_cast<int>(cli.i64("cores"));
  Rng rs(1), rt(2);
  const auto dist = parse_distribution(cli.str("dist"));
  const auto sources = generate_points(dist, n, rs);
  const auto targets = generate_points(dist, n, rt);

  EvalConfig cfg;
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.trace = true;
  cfg.counters = true;
  cfg.split_priority = cli.str("policy") == "priority";
  Evaluator eval(make_kernel(cli.str("kernel"), 2.0), cfg);

  SimConfig sim;
  sim.cores_per_locality = 32;
  if (cli.str("policy") == "fifo") sim.policy = SchedPolicy::kFifo;
  if (cli.str("cost-profile") == "host") {
    auto probe = make_kernel(cli.str("kernel"), 2.0);
    probe->setup(1.0, 8, 3);
    sim.cost = CostModel::measured(*probe);
  } else {
    sim.cost = CostModel::paper(cli.str("kernel"));
  }

  std::printf("simulating %s/%s, %zu points, threshold %ld, policy %s\n",
              cli.str("dist").c_str(), cli.str("kernel").c_str(), n,
              cli.i64("threshold"), cli.str("policy").c_str());

  // Reference run at one locality, then the requested core count.
  sim.localities = 1;
  const EvalResult base = eval.simulate(sources, targets, sim);
  double t32 = base.makespan;
  EvalResult r = base;
  if (cores > 32) {
    sim.localities = cores / 32;
    r = eval.simulate(sources, targets, sim);
  }

  std::printf("\n  predicted evaluation time: %10.4f s on %d cores\n",
              r.makespan, cores);
  std::printf("  speedup vs 32 cores:       %10.2f  (efficiency %.1f%%)\n",
              t32 / r.makespan, 100.0 * t32 / r.makespan / (cores / 32.0));
  std::printf("  DAG:                       %zu nodes, %zu edges "
              "(%.1f%% remote)\n",
              r.dag.total_nodes, r.dag.total_edges,
              100.0 * static_cast<double>(r.dag.remote_edges) /
                  static_cast<double>(std::max<std::size_t>(1, r.dag.total_edges)));
  std::printf("  network:                   %.2f GB in %llu parcels\n",
              static_cast<double>(r.bytes_sent) / 1e9,
              static_cast<unsigned long long>(r.parcels_sent));

  const UtilizationProfile u =
      utilization(r.trace, 0.0, r.makespan, 20,
                  sim.localities * sim.cores_per_locality);
  std::printf("  utilization (20 intervals):");
  for (double f : u.total) std::printf(" %3.0f%%", 100.0 * f);
  std::printf("\n");
  if (!bench::export_trace_if_requested(cli, r, 32)) return 1;
  return 0;
}
