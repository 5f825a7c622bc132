// Reproduces Figure 3 of the paper: strong scaling of the DAG evaluation for
// the four configurations (cube/sphere x Laplace/Yukawa) from 32 to
// --max-cores cores, 32 cores per locality (Big Red II node shape).
//
// The evaluation runs on the discrete-event simulator with the paper's
// Table II operator-cost profile by default (see DESIGN.md for the
// substitution rationale); --cost-profile=host uses operator times measured
// on this machine instead.  Problem sizes are scaled to this host's memory
// (--n to raise them; the paper used 60M cube / 42M sphere points).

#include "../bench/common.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("fig3_strong_scaling: paper Figure 3 (time-to-completion and speedup)");
  cli.add_flag("n", static_cast<std::int64_t>(1000000),
               "points per ensemble (cube; sphere uses 0.7x, as 42/60)");
  cli.add_flag("max-cores", static_cast<std::int64_t>(4096), "largest core count");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.add_flag("cost-profile", std::string("paper"), "paper|host operator costs");
  cli.add_flag("seed", static_cast<std::int64_t>(1), "rng seed");
  cli.parse(argc, argv);

  const auto n_cube = static_cast<std::size_t>(cli.i64("n"));
  const auto n_sphere = static_cast<std::size_t>(0.7 * n_cube);
  const int max_cores = static_cast<int>(cli.i64("max-cores"));

  struct Config {
    const char* name;
    Distribution dist;
    const char* kernel;
    std::size_t n;
  };
  const Config configs[] = {
      {"cube   Laplace", Distribution::kCube, "laplace", n_cube},
      {"cube   Yukawa ", Distribution::kCube, "yukawa", n_cube},
      {"sphere Laplace", Distribution::kSphere, "laplace", n_sphere},
      {"sphere Yukawa ", Distribution::kSphere, "yukawa", n_sphere},
  };

  print_header("Figure 3: strong scaling t_n and speedup t_32/t_n "
               "(simulated cluster, 32 cores/locality)");
  std::printf("points: cube %zu, sphere %zu; threshold %ld; cost profile %s\n",
              n_cube, n_sphere, cli.i64("threshold"),
              cli.str("cost-profile").c_str());
  std::printf("paper reference at 4096 cores: efficiency 60%% (cube Laplace), "
              "74%% (cube Yukawa), 62%% (sphere Laplace), 69%% (sphere Yukawa)\n");

  for (const Config& c : configs) {
    Ensembles e = make_ensembles(c.dist, c.n, static_cast<std::uint64_t>(cli.i64("seed")));
    EvalConfig cfg;
    cfg.threshold = static_cast<int>(cli.i64("threshold"));
    Evaluator eval(make_kernel(c.kernel, 2.0), cfg);

    SimConfig sim;
    sim.cores_per_locality = 32;
    if (cli.str("cost-profile") == "host") {
      auto probe = make_kernel(c.kernel, 2.0);
      probe->setup(1.0, 8, 3);
      sim.cost = CostModel::measured(*probe);
    } else {
      sim.cost = CostModel::paper(c.kernel);
    }

    std::printf("\n%s\n", c.name);
    std::printf("  %8s %12s %10s %12s %12s\n", "cores", "t_n [s]", "speedup",
                "efficiency", "GB sent");
    double t32 = -1.0;
    for (int cores = 32; cores <= max_cores; cores *= 2) {
      sim.localities = cores / 32;
      const EvalResult r = eval.simulate(e.sources, e.targets, sim);
      if (t32 < 0) t32 = r.makespan;
      const double speedup = t32 / r.makespan;
      const double eff = speedup / (cores / 32.0);
      std::printf("  %8d %12.4f %10.2f %11.1f%% %12.3f\n", cores,
                  r.makespan, speedup, 100.0 * eff,
                  static_cast<double>(r.bytes_sent) / 1e9);
    }
  }
  std::printf("\nNote: the knee moves left relative to the paper when --n is "
              "far below the paper's 60M points (fewer tasks per core).\n");
  return 0;
}
