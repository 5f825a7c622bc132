// amtfmm_serve: resident FMM-as-a-service driver, and the SPMD driver of
// socket worlds.
//
// Stands up one EvalPipeline and evaluates it for many epochs on the SAME
// tree + DAG + LCO arena: epoch 1 pays the build + instantiate cost,
// every later epoch re-arms the arena in place.  Runs either in-process
// (ThreadExecutor, --localities x --cores) or as one SPMD rank of a
// socket world under tools/amtfmm_launch (net_config_from_env): every rank
// builds the identical problem from the same seed, and its potentials are
// that rank's partial sums.  The driver measures and checks:
//
//   1. steady state instantiates no node: gas_allocs_last_epoch() == 0
//      for every epoch >= 2;
//   2. epoch-2 setup cost (arena re-arm) is a small fraction of the
//      epoch-1 build (reported as reset_ratio; gated by
//      scripts/check_bench_serve.py at 5%);
//   3. repeat evaluations agree with epoch 1 at 1e-12 relative with the
//      same wire bytes; on a socket world, so does a fresh one-shot
//      pipeline on the same mesh (a second engine taking over the net
//      handlers);
//   4. request batching demuxes correctly: every per-request slice of a
//      batched epoch matches the combined potentials;
//   5. on rank 0, the global answer — on a socket world, the sum of every
//      rank's epoch-1 partials, which ranks != 0 send to rank 0 as one
//      kNetKindUser parcel right after epoch 1 — equals an in-process run
//      of the same problem with one locality per rank at 1e-12 relative;
//      the summed wire bytes equal the summed bytes sent, the in-process
//      run's and the DES simulation's wire bytes exactly, and the summed
//      parcels equal theirs; and on a socket world the net.* counters are
//      live.
//
// Any failed check prints "SERVE FAIL: ..." and exits 1.  Steady-state
// throughput (evals/s) and latency (p50/p99) go to --json as a BENCH row:
// "serve_inproc" or "serve_net" (rank 0 only).  --trace-out writes one
// Chrome trace per rank, PREFIX.<rank>, with the epoch start times and the
// rank's clock anchor, for trace_report --merge.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "runtime/flight_recorder.hpp"
#include "runtime/net/net_executor.hpp"
#include "runtime/telemetry.hpp"
#include "runtime/trace_export.hpp"
#include "runtime/watchdog.hpp"
#include "support/cli.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"

namespace {

using namespace amtfmm;

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto k = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(k == 0 ? 0 : k - 1, v.size() - 1)];
}

double max_rel_err(std::span<const double> a, std::span<const double> b) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]) / std::max(1.0, std::abs(b[i])));
  }
  return m;
}

/// Rank 0's sum of the other ranks' epoch-1 results.  Each rank != 0
/// sends one parcel: wire_bytes, bytes_sent, parcels_sent and the
/// potential count as u64s, then its partial potentials.
struct Gather {
  static constexpr std::size_t kHeader = 4 * sizeof(std::uint64_t);

  std::mutex mu;
  std::vector<double> potentials;
  std::uint64_t wire_bytes = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t parcels = 0;
  std::uint32_t ranks = 0;
  bool bad = false;

  static std::vector<std::byte> encode(const EvalResult& r) {
    const std::uint64_t head[4] = {r.wire_bytes, r.bytes_sent,
                                   r.parcels_sent, r.potentials.size()};
    std::vector<std::byte> buf(kHeader + r.potentials.size() * sizeof(double));
    std::memcpy(buf.data(), head, kHeader);
    std::memcpy(buf.data() + kHeader, r.potentials.data(),
                r.potentials.size() * sizeof(double));
    return buf;
  }

  void add(const std::vector<std::byte>& buf) {
    std::lock_guard<std::mutex> lk(mu);
    std::uint64_t head[4] = {};
    if (buf.size() >= kHeader) std::memcpy(head, buf.data(), kHeader);
    const std::uint64_t npot = head[3];
    if (buf.size() < kHeader ||
        buf.size() != kHeader + npot * sizeof(double) ||
        (!potentials.empty() && potentials.size() != npot)) {
      bad = true;
      return;
    }
    potentials.resize(npot, 0.0);
    for (std::uint64_t i = 0; i < npot; ++i) {
      double v;
      std::memcpy(&v, buf.data() + kHeader + i * sizeof(double), sizeof(v));
      potentials[i] += v;
    }
    wire_bytes += head[0];
    bytes_sent += head[1];
    parcels += head[2];
    ++ranks;
  }
};

int run(int argc, char** argv) {
  Cli cli(
      "Resident FMM-as-a-service driver: steady-state epochs on one "
      "pipeline.\n  amtfmm_serve --n=8000 --epochs=8 --json=BENCH.json\n"
      "  amtfmm_launch --np=2 -- amtfmm_serve --n=8000 --epochs=6");
  cli.add_flag("n", std::int64_t{8000}, "source and target count");
  cli.add_flag("distribution", std::string("cube"),
               "point distribution (cube | sphere | plummer)");
  cli.add_flag("kernel", std::string("laplace"), "kernel name");
  cli.add_flag("digits", std::int64_t{3}, "accuracy digits");
  cli.add_flag("threshold", std::int64_t{60}, "refinement threshold");
  cli.add_flag("localities", std::int64_t{2},
               "in-process localities (ignored under a socket world)");
  cli.add_flag("cores", std::int64_t{2}, "worker threads per locality/rank");
  cli.add_flag("epochs", std::int64_t{8}, "total evaluation epochs (>= 2)");
  cli.add_flag("batch", std::int64_t{4},
               "independent target-query sets in the batched epoch");
  cli.add_flag("coalesce", true, "enable parcel coalescing");
  cli.add_flag("seed", std::int64_t{1}, "problem seed (identical on all ranks)");
  cli.add_flag("json", std::string(""),
               "BENCH_serve row output path (rank 0; empty = off)");
  cli.add_flag("telemetry", std::string(""),
               "live-metrics dir: every rank samples its counters, rank 0 "
               "aggregates into DIR/telemetry.json for amtfmm_top (empty = "
               "off)");
  cli.add_flag("telemetry-interval", 0.25,
               "seconds between telemetry samples");
  cli.add_flag("watchdog", 0.0,
               "serve-epoch watchdog timeout in seconds (0 = off); a "
               "stalled epoch dumps the flight recorder");
  cli.add_flag("stall", 0.0,
               "inject an artificial stall of this many seconds before the "
               "final epoch (exercises the watchdog)");
  cli.add_flag("trace-out", std::string(""),
               "per-rank Chrome trace path prefix: writes PREFIX.<rank> "
               "(empty = off)");
  cli.parse(argc, argv);

  net::NetConfig ncfg;  // standalone default: world of one
  bool net_mode = false;
  if (auto env = net::net_config_from_env()) {
    ncfg = *env;
    net_mode = ncfg.world > 1;
  }

  if (cli.i64("n") < 1) throw config_error("--n must be >= 1");
  if (cli.i64("batch") < 0) throw config_error("--batch must be >= 0");
  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  const int epochs = std::max(2, static_cast<int>(cli.i64("epochs")));
  const Distribution dist = parse_distribution(cli.str("distribution"));

  Rng rs(seed), rt(seed + 1), rq(seed + 2);
  const auto sources = generate_points(dist, n, rs);
  const auto targets = generate_points(dist, n, rt);
  const auto charges = generate_charges(n, rq);

  EvalConfig cfg;
  cfg.digits = static_cast<int>(cli.i64("digits"));
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.localities = static_cast<int>(cli.i64("localities"));
  cfg.cores_per_locality = static_cast<int>(cli.i64("cores"));
  cfg.coalesce.enabled = cli.flag("coalesce");
  cfg.counters = true;
  const std::string trace_out = cli.str("trace-out");
  cfg.trace = !trace_out.empty();

  auto kernel = make_kernel(cli.str("kernel"));

  std::unique_ptr<net::NetExecutor> nex;
  std::unique_ptr<EvalPipeline> pipeline;
  if (net_mode) {
    nex = std::make_unique<net::NetExecutor>(
        ncfg, cfg.cores_per_locality, cfg.coalesce);
    pipeline = std::make_unique<EvalPipeline>(*kernel, cfg, sources, targets,
                                              *nex);
  } else {
    pipeline =
        std::make_unique<EvalPipeline>(*kernel, cfg, sources, targets);
  }
  const std::uint32_t rank = net_mode ? nex->rank() : 0;
  const std::uint32_t world = net_mode ? nex->world() : 1;
  Executor& ex = pipeline->executor();

  // Flight recorder: always on in serve mode.  Workers stream their last
  // few thousand events into per-worker rings (one relaxed load + branch
  // when nothing else is enabled); a fatal signal, a net-failure teardown,
  // or the epoch watchdog dumps them as a Chrome trace for post-mortems.
  const std::string tel_dir = cli.str("telemetry");
  std::string flight_dir = tel_dir;
  if (flight_dir.empty()) {
    const char* net_dir = std::getenv("AMTFMM_NET_DIR");
    flight_dir = net_dir != nullptr ? net_dir : ".";
  }
  FlightRecorder flight(ex.total_workers());
  flight.set_dump_path(flight_dir + "/flight." + std::to_string(rank) +
                       ".json");
  flight.set_meta(rank, cfg.cores_per_locality, ex.trace_clock());
  ex.trace().set_flight(&flight);
  flight_install_crash_handler();

  // Live telemetry: every rank runs a sampler shipping window deltas of
  // its CounterRegistry; rank 0 aggregates all ranks (its own sampler
  // feeds the aggregator directly, peers arrive over the transport's
  // telemetry side channel) into an atomically-replaced snapshot file
  // that amtfmm_top polls.
  std::unique_ptr<TelemetryAggregator> aggregator;
  std::unique_ptr<TelemetrySampler> sampler;
  if (!tel_dir.empty()) {
    if (rank == 0) {
      aggregator = std::make_unique<TelemetryAggregator>(
          world, tel_dir + "/telemetry.json");
      if (net_mode) {
        TelemetryAggregator* agg = aggregator.get();
        nex->set_on_telemetry(
            [agg](std::uint32_t, std::vector<std::byte>&& payload) {
              agg->enqueue(std::string(
                  reinterpret_cast<const char*>(payload.data()),
                  payload.size()));
            });
      }
    }
    TelemetrySampler::ShipFn ship;
    if (rank == 0) {
      TelemetryAggregator* agg = aggregator.get();
      ship = [agg](std::string&& s) { agg->enqueue(std::move(s)); };
    } else {
      net::NetExecutor* x = nex.get();
      ship = [x](std::string&& s) {
        x->post_telemetry(
            0, std::span<const std::byte>(
                   reinterpret_cast<const std::byte*>(s.data()), s.size()));
      };
    }
    sampler = std::make_unique<TelemetrySampler>(
        ex.counters(), rank, cli.f64("telemetry-interval"), std::move(ship));
  }

  // Epoch watchdog: armed around every evaluation; an epoch that goes
  // `--watchdog` seconds without completing dumps the flight recorder —
  // a wedged drain leaves an artifact instead of a silent hang.
  std::unique_ptr<Watchdog> watchdog;
  if (cli.f64("watchdog") > 0.0) {
    watchdog = std::make_unique<Watchdog>(
        cli.f64("watchdog"), [rank](double stalled_s) {
          std::fprintf(stderr,
                       "SERVE WATCHDOG: rank %u epoch stalled %.2f s, "
                       "dumping flight recorder\n",
                       rank, stalled_s);
          flight_dump_all("serve epoch watchdog");
        });
  }

  // Rank 0 collects the other ranks' epoch-1 partials; its handler must
  // exist before any peer can send one.
  Gather gather;
  if (net_mode && rank == 0) {
    nex->register_net_handler(kNetKindUser,
                              [&gather](const std::vector<std::byte>& buf) {
                                gather.add(buf);
                              });
  }

  // Epoch 1: instantiates the resident arena (build cost is separate —
  // pipeline.setup_seconds() — so epoch 1's latency is instantiate+run).
  if (watchdog) watchdog->arm();
  Timer t1;
  const EvalResult first = pipeline->evaluate(charges);
  const double epoch1_s = t1.seconds() + pipeline->setup_seconds();
  double max_makespan = first.makespan;
  if (net_mode) {
    // The gather: one parcel per rank != 0, then a collective drain that
    // delivers them.  Epoch 2's transport deltas start after it.
    if (rank != 0) {
      Task t;
      t.locality = 0;
      t.net_kind = kNetKindUser;
      t.net_payload =
          std::make_shared<const std::vector<std::byte>>(Gather::encode(first));
      const std::size_t bytes = t.net_payload->size();
      nex->send(rank, 0, bytes, std::move(t));
    }
    nex->drain();
    if (rank == 0) nex->unregister_net_handler(kNetKindUser);
  }
  if (watchdog) watchdog->beat();

  // Steady state: epochs 2..E re-arm in place.
  std::vector<double> lat;
  double reset_s = 0.0;
  std::uint64_t steady_allocs = 0;
  double repeat_rel = 0.0;
  std::uint64_t wire = first.wire_bytes;
  bool ok = true;
  for (int e = 2; e <= epochs; ++e) {
    if (e == epochs && cli.f64("stall") > 0.0) {
      // Injected stall: the epoch is armed but makes no progress, so the
      // watchdog (if configured) must fire and leave a flight dump.
      std::this_thread::sleep_for(std::chrono::duration<double>(
          cli.f64("stall")));
    }
    Timer te;
    const EvalResult r = pipeline->evaluate(charges);
    lat.push_back(te.seconds());
    max_makespan = std::max(max_makespan, r.makespan);
    if (watchdog) watchdog->beat();
    if (e == 2) reset_s = pipeline->last_reset_seconds();
    steady_allocs += pipeline->gas_allocs_last_epoch();
    repeat_rel =
        std::max(repeat_rel, max_rel_err(r.potentials, first.potentials));
    if (r.wire_bytes != wire) {
      std::fprintf(stderr,
                   "SERVE FAIL: rank %u epoch %d wire_bytes %" PRIu64
                   " != epoch-1 %" PRIu64 "\n",
                   rank, e, r.wire_bytes, wire);
      ok = false;
    }
  }
  if (watchdog) watchdog->disarm();
  if (steady_allocs != 0) {
    std::fprintf(stderr,
                 "SERVE FAIL: rank %u steady state instantiated %" PRIu64
                 " DAG nodes (want 0)\n",
                 rank, steady_allocs);
    ok = false;
  }
  if (repeat_rel > 1e-12) {
    std::fprintf(stderr,
                 "SERVE FAIL: rank %u repeat epochs drift from epoch 1 "
                 "(max rel err %.3e > 1e-12)\n",
                 rank, repeat_rel);
    ok = false;
  }

  // Batched epoch: many independent target-query sets, one traversal.
  const auto nreq = static_cast<std::size_t>(cli.i64("batch"));
  std::vector<EvalRequest> requests(nreq);
  Rng rr(seed + 3);
  for (std::size_t r = 0; r < nreq; ++r) {
    const std::size_t len = 1 + rr.below(std::max<std::size_t>(n / 4, 1));
    requests[r].targets.reserve(len);
    for (std::size_t j = 0; j < len; ++j) {
      requests[r].targets.push_back(static_cast<std::uint32_t>(rr.below(n)));
    }
  }
  const BatchEvalResult batch = pipeline->evaluate_batch(charges, requests);
  max_makespan = std::max(max_makespan, batch.combined.makespan);
  for (std::size_t r = 0; r < nreq && ok; ++r) {
    for (std::size_t j = 0; j < requests[r].targets.size(); ++j) {
      if (batch.per_request[r][j] !=
          batch.combined.potentials[requests[r].targets[j]]) {
        std::fprintf(stderr, "SERVE FAIL: rank %u batch demux mismatch\n",
                     rank);
        ok = false;
        break;
      }
    }
  }

  if (!trace_out.empty()) {
    // Every resident epoch on one timeline, cut by the epoch start times;
    // the rank identity and clock anchor let trace_report --merge shift
    // this file onto rank 0's timeline.
    const EvalResult& last = batch.combined;
    ChromeTraceOptions topt;
    topt.cores_per_locality = cfg.cores_per_locality;
    topt.makespan = max_makespan;
    topt.dag_edges = last.dag_edges;
    topt.epochs = pipeline->epoch_start_times();
    topt.counters = &last.counters;
    topt.rank = rank;
    topt.world = world;
    topt.clock = ex.trace_clock();
    if (!trace_export_chrome(trace_out + "." + std::to_string(rank),
                             last.trace, last.comm_trace, last.instants,
                             topt)) {
      std::fprintf(stderr, "SERVE FAIL: cannot write %s.%u\n",
                   trace_out.c_str(), rank);
      ok = false;
    }
  }

  // Fresh-build parity on a socket world: a brand-new one-shot pipeline on
  // the same mesh must match the multi-epoch resident answer at 1e-12.
  // (In process, rank 0's in-process reference below is the fresh build.)
  double fresh_rel = 0.0;
  if (net_mode) {
    const auto fresh_kernel = make_kernel(cli.str("kernel"));
    const EvalResult fresh =
        EvalPipeline(*fresh_kernel, cfg, sources, targets, *nex)
            .evaluate(charges);
    fresh_rel = max_rel_err(first.potentials, fresh.potentials);
    if (fresh_rel > 1e-12) {
      std::fprintf(stderr,
                   "SERVE FAIL: rank %u resident vs fresh-build parity "
                   "(max rel err %.3e > 1e-12)\n",
                   rank, fresh_rel);
      ok = false;
    }
  }
  // Orderly telemetry teardown: the local sampler's final flush must land
  // before the transport callback is cleared, so the aggregator strictly
  // outlives any frame the progress thread may still deliver.
  if (sampler) sampler->stop();
  if (aggregator) {
    if (net_mode) nex->set_on_telemetry(nullptr);
    aggregator->stop();
  }
  if (watchdog && watchdog->fired() && cli.f64("stall") <= 0.0) {
    std::fprintf(stderr,
                 "SERVE FAIL: rank %u watchdog fired without an injected "
                 "stall\n", rank);
    ok = false;
  }

  // Rank 0 checks the global answer after the watchdog is disarmed, so the
  // reference run is never inside an armed window or a timed epoch.
  if (rank == 0) {
    std::vector<double> global = first.potentials;
    std::uint64_t wire_sum = first.wire_bytes;
    std::uint64_t sent_sum = first.bytes_sent;
    std::uint64_t parcel_sum = first.parcels_sent;
    if (net_mode) {
      std::lock_guard<std::mutex> lk(gather.mu);
      if (gather.bad || gather.ranks != world - 1 ||
          gather.potentials.size() != global.size()) {
        std::fprintf(stderr,
                     "SERVE FAIL: gather saw %u of %u ranks (bad=%d)\n",
                     gather.ranks, world - 1, gather.bad ? 1 : 0);
        return 1;
      }
      for (std::size_t i = 0; i < global.size(); ++i) {
        global[i] += gather.potentials[i];
      }
      wire_sum += gather.wire_bytes;
      sent_sum += gather.bytes_sent;
      parcel_sum += gather.parcels;
    }
    // Same DAG, same placement and same arithmetic on one locality per
    // rank: the answers agree to rounding noise and the bytes exactly.
    EvalConfig rcfg = cfg;
    rcfg.trace = false;
    rcfg.counters = false;
    if (net_mode) rcfg.localities = static_cast<int>(world);
    Evaluator ref_eval(make_kernel(cli.str("kernel")), rcfg);
    const EvalResult ref = ref_eval.evaluate(sources, charges, targets);
    SimConfig scfg;
    scfg.localities = rcfg.localities;
    scfg.cores_per_locality = rcfg.cores_per_locality;
    const EvalResult sim = ref_eval.simulate(sources, targets, scfg);
    const double global_rel = max_rel_err(global, ref.potentials);
    if (!net_mode) fresh_rel = global_rel;
    if (global_rel > 1e-12) {
      std::fprintf(stderr,
                   "SERVE FAIL: potentials diverge from the in-process run "
                   "(max rel err %.3e > 1e-12)\n",
                   global_rel);
      ok = false;
    }
    if (wire_sum != sent_sum || wire_sum != ref.wire_bytes ||
        wire_sum != sim.wire_bytes || parcel_sum != ref.parcels_sent ||
        parcel_sum != sim.parcels_sent) {
      std::fprintf(stderr,
                   "SERVE FAIL: wire bytes disagree: summed %" PRIu64
                   ", bytes sent %" PRIu64 ", in-process %" PRIu64
                   ", sim %" PRIu64 "; parcels summed %" PRIu64
                   ", in-process %" PRIu64 ", sim %" PRIu64 "\n",
                   wire_sum, sent_sum, ref.wire_bytes, sim.wire_bytes,
                   parcel_sum, ref.parcels_sent, sim.parcels_sent);
      ok = false;
    }
    if (net_mode) {
      const std::uint64_t msgs = first.counters.value("net.msgs_sent");
      const std::uint64_t iters = first.counters.value("net.progress_iters");
      if (msgs == 0 || iters == 0) {
        std::fprintf(stderr,
                     "SERVE FAIL: net counters dead (msgs_sent=%" PRIu64
                     " progress_iters=%" PRIu64 ")\n",
                     msgs, iters);
        ok = false;
      }
    }
  }
  if (!ok) return 1;

  const double steady_sum =
      std::accumulate(lat.begin(), lat.end(), 0.0);
  const double evals_per_s =
      steady_sum > 0.0 ? static_cast<double>(lat.size()) / steady_sum : 0.0;
  const double p50 = percentile(lat, 0.50);
  const double p99 = percentile(lat, 0.99);
  std::size_t gas_objects = 0;
  for (std::uint32_t l = 0; l < static_cast<std::uint32_t>(
                                    pipeline->executor().num_localities());
       ++l) {
    gas_objects += pipeline->gas_objects_on(l);
  }

  if (rank == 0) {
    std::printf("SERVE OK %s world=%u n=%zu epochs=%d setup=%.3fs "
                "reset=%.1fus ratio=%.5f evals/s=%.2f p50=%.1fms p99=%.1fms "
                "gas_hw=%zu wire=%" PRIu64 "\n",
                net_mode ? "net" : "inproc", world, n, epochs,
                pipeline->setup_seconds(), reset_s * 1e6,
                epoch1_s > 0.0 ? reset_s / epoch1_s : 0.0, evals_per_s,
                p50 * 1e3, p99 * 1e3, gas_objects, wire);
    if (!cli.str("json").empty()) {
      JsonWriter w;
      w.begin_array();
      w.begin_object();
      w.kv("name", net_mode ? std::string("serve_net")
                            : std::string("serve_inproc"));
      w.kv("n", static_cast<std::uint64_t>(n));
      w.kv("world", world);
      w.kv("localities",
           static_cast<std::uint64_t>(pipeline->executor().num_localities()));
      w.kv("cores", static_cast<std::uint64_t>(cfg.cores_per_locality));
      w.kv("epochs", static_cast<std::uint64_t>(epochs));
      w.kv("epoch1_s", epoch1_s);
      w.kv("setup_s", pipeline->setup_seconds());
      w.kv("reset_s", reset_s);
      w.kv("reset_ratio", epoch1_s > 0.0 ? reset_s / epoch1_s : 0.0);
      w.kv("evals_per_s", evals_per_s);
      w.kv("p50_s", p50);
      w.kv("p99_s", p99);
      w.kv("gas_allocs_steady", steady_allocs);
      w.kv("gas_objects_hw", static_cast<std::uint64_t>(gas_objects));
      w.kv("repeat_rel_err", repeat_rel);
      w.kv("fresh_rel_err", fresh_rel);
      w.kv("wire_bytes", wire);
      w.kv("batch_requests", static_cast<std::uint64_t>(nreq));
      w.end_object();
      w.end_array();
      if (!w.write_file(cli.str("json"))) {
        std::fprintf(stderr, "SERVE FAIL: cannot write %s\n",
                     cli.str("json").c_str());
        return 1;
      }
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amtfmm_serve: %s\n", e.what());
    return 1;
  }
}
