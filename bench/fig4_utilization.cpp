// Reproduces Figure 4 of the paper: total utilization fraction f_k over 100
// uniform intervals of the evaluation, for 64-, 128- and 512-core runs of
// cube data with the Laplace kernel (2, 4 and 16 localities).  Shows the
// ramp-up, the ~90% plateau, and the under-utilization dip (a mid-run
// trough at 512 cores, not only a tail) whose relative width grows with
// core count — the paper's primary scaling diagnosis.

#include <algorithm>
#include <cmath>

#include "../bench/common.hpp"

int main(int argc, char** argv) {
  using namespace amtfmm;
  using namespace amtfmm::bench;
  Cli cli("fig4_utilization: paper Figure 4 (total utilization fraction)");
  cli.add_flag("n", static_cast<std::int64_t>(500000),
               "points per ensemble (paper: 30M)");
  cli.add_flag("threshold", static_cast<std::int64_t>(60), "refinement threshold");
  cli.add_flag("intervals", static_cast<std::int64_t>(100), "time intervals M");
  cli.add_flag("json", std::string(),
               "write a machine-readable summary (incl. counters) to FILE");
  add_trace_out_flag(cli);
  cli.parse(argc, argv);

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const int intervals = static_cast<int>(cli.i64("intervals"));
  if (intervals < 2) {
    std::fprintf(stderr, "fig4_utilization: --intervals must be >= 2\n");
    return 1;
  }
  Ensembles e = make_ensembles(Distribution::kCube, n, 11);

  EvalConfig cfg;
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  EvalConfig traced = cfg;
  traced.coalesce.enabled = true;  // HPX-5 coalesces parcels per locality
  traced.trace = true;
  traced.counters = true;
  Evaluator eval(make_kernel("laplace"), traced);

  const int core_counts[] = {64, 128, 512};
  std::vector<UtilizationProfile> profiles;
  std::vector<double> times;
  std::vector<CommStats> comms;
  std::vector<CounterSnapshot> snaps;
  EvalResult largest;  // 512-core run kept for the --trace-out export
  for (const int cores : core_counts) {
    SimConfig sim;
    sim.localities = cores / 32;
    sim.cores_per_locality = 32;
    sim.cost = CostModel::paper("laplace");
    EvalResult r = eval.simulate(e.sources, e.targets, sim);
    profiles.push_back(utilization(r.trace, 0.0, r.makespan, intervals,
                                   cores));
    times.push_back(r.makespan);
    comms.push_back(r.comm);
    snaps.push_back(r.counters);
    if (cores == core_counts[2]) largest = std::move(r);
  }

  print_header("Figure 4: total utilization fraction f_k per time interval k");
  std::printf("%zu source + %zu target points, cube, Laplace; intervals of "
              "the total evaluation time\n", n, n);
  std::printf("evaluation times: %.3f s (64 cores), %.3f s (128), %.3f s (512)\n",
              times[0], times[1], times[2]);
  std::printf("paper: 34.6 s / 17.6 s / 4.55 s for 30M points\n\n");
  std::printf("%6s %12s %12s %12s\n", "k", "f_k n=64", "f_k n=128", "f_k n=512");
  for (int k = 0; k < intervals; ++k) {
    std::printf("%6d %12.3f %12.3f %12.3f\n", k,
                profiles[0].total[static_cast<std::size_t>(k)],
                profiles[1].total[static_cast<std::size_t>(k)],
                profiles[2].total[static_cast<std::size_t>(k)]);
  }

  // Summary figures of merit matching the paper's narrative.
  std::printf("\n%10s %10s %12s %16s\n", "cores", "mean f_k", "plateau f_k",
              "dip width [%]");
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const auto& f = profiles[i].total;
    double mean = 0;
    for (double v : f) mean += v;
    mean /= static_cast<double>(f.size());
    // Plateau: the 90th percentile (nearest rank) of f_k, which a trough
    // cannot lower; dip width: every interval below 60% of the plateau,
    // wherever it lies.  Both exclude the final wind-down interval.
    std::vector<double> body(f.begin(), f.end() - 1);
    const auto rank = static_cast<std::size_t>(
        std::ceil(0.9 * static_cast<double>(body.size())) - 1);
    std::nth_element(body.begin(), body.begin() + rank, body.end());
    const double plateau = body[rank];
    const auto dip = std::count_if(f.begin(), f.end() - 1, [plateau](double v) {
      return v < 0.6 * plateau;
    });
    std::printf("%10d %10.3f %12.3f %15d%%\n", core_counts[i], mean, plateau,
                static_cast<int>(100 * dip / intervals));
  }
  std::printf("\npaper: ~90%% plateau; the dip's relative width grows with "
              "locality count (the predominant scaling inefficiency).\n");

  // Interconnect traffic behind each run: how much the per-locality parcel
  // coalescing compressed the wire-message stream.
  std::printf("\n%10s %12s %12s %10s %14s\n", "cores", "parcels", "batches",
              "factor", "bytes [MB]");
  for (std::size_t i = 0; i < comms.size(); ++i) {
    const CommStats& c = comms[i];
    std::printf("%10d %12llu %12llu %10.2f %14.2f\n", core_counts[i],
                static_cast<unsigned long long>(c.parcels),
                static_cast<unsigned long long>(c.batches),
                c.coalescing_factor(),
                static_cast<double>(c.bytes) / 1e6);
  }

  // One coalescing-off run at the largest configuration: the network-time
  // cost of sending every parcel as its own message.
  {
    Evaluator plain(make_kernel("laplace"), cfg);
    SimConfig sim;
    sim.localities = core_counts[2] / 32;
    sim.cores_per_locality = 32;
    sim.cost = CostModel::paper("laplace");
    const EvalResult r = plain.simulate(e.sources, e.targets, sim);
    std::printf("\n512 cores without coalescing: %.3f s (vs %.3f s; "
                "%llu wire messages vs %llu)\n",
                r.makespan, times[2],
                static_cast<unsigned long long>(r.comm.batches),
                static_cast<unsigned long long>(comms[2].batches));
  }

  if (!export_trace_if_requested(cli, largest, 32)) return 1;

  if (!cli.str("json").empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("bench", "fig4_utilization");
    w.kv("n", static_cast<std::uint64_t>(n));
    w.kv("threshold", cli.i64("threshold"));
    w.kv("intervals", intervals);
    w.key("runs");
    w.begin_array();
    for (std::size_t i = 0; i < profiles.size(); ++i) {
      w.begin_object();
      w.kv("cores", core_counts[i]);
      w.kv("virtual_time", times[i]);
      w.key("utilization");
      w.begin_array();
      for (double f : profiles[i].total) w.value(f);
      w.end_array();
      w.key("comm");
      append_comm_json(w, comms[i]);
      w.key("counters");
      snaps[i].append_json(w);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    if (!w.write_file(cli.str("json"))) {
      std::fprintf(stderr, "cannot write %s\n", cli.str("json").c_str());
      return 1;
    }
    std::printf("summary written to %s\n", cli.str("json").c_str());
  }
  return 0;
}
