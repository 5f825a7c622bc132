// amtfmm_loopback: end-to-end self-test for socket localities.
//
// Run under tools/amtfmm_launch (or standalone, where it degenerates to a
// world of one).  Every rank builds the identical problem from the same
// seed, runs one SPMD distributed evaluation over the socket transport,
// and then ranks != 0 ship their partial potentials and byte counters to
// rank 0 as kNetKindUser parcels (exercising drain() re-arming across
// epochs).  Rank 0 element-wise sums the partials — each target box has
// exactly one home rank, so the sum is exact, not averaged — and checks:
//
//   1. multi-process potentials == in-process multi-locality potentials
//      at 1e-12 relative (same DAG, same placement, same arithmetic);
//   2. summed per-rank wire_bytes == the in-process run's wire_bytes ==
//      the DES simulation's wire_bytes, EXACTLY (the PR 4 transport
//      identity extended across real process boundaries);
//   3. when the world is real (np > 1), the net.* counters are live.
//
// Exit 0 on success; any mismatch or transport failure is nonzero, so the
// launcher (and CI) fail loudly.

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/evaluator.hpp"
#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "runtime/net/net_executor.hpp"
#include "runtime/trace_export.hpp"
#include "support/cli.hpp"
#include "support/rng.hpp"

namespace {

using namespace amtfmm;

constexpr std::size_t kGatherHeader = 5 * sizeof(std::uint64_t);

std::uint64_t load_u64(const std::byte* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void store_u64(std::byte* p, std::uint64_t v) {
  std::memcpy(p, &v, sizeof(v));
}

/// Rank-0 accumulator for the per-rank gather parcels.
struct Gather {
  std::mutex mu;
  std::vector<double> sum;  ///< element-wise sum of remote partials
  std::uint64_t wire_bytes = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t parcels = 0;
  int ranks_seen = 0;
  bool bad = false;
};

int run(int argc, char** argv) {
  Cli cli(
      "Socket-locality loopback self-test: run under amtfmm_launch, e.g.\n"
      "  amtfmm_launch --np=2 --transport=unix -- amtfmm_loopback --n=4000");
  cli.add_flag("n", std::int64_t{4000}, "source and target count");
  cli.add_flag("distribution", std::string("cube"),
               "point distribution (cube | sphere | plummer)");
  cli.add_flag("kernel", std::string("laplace"), "kernel name");
  cli.add_flag("digits", std::int64_t{3}, "accuracy digits");
  cli.add_flag("threshold", std::int64_t{60}, "refinement threshold");
  cli.add_flag("cores", std::int64_t{2}, "worker threads per rank");
  cli.add_flag("coalesce", true, "enable parcel coalescing");
  cli.add_flag("repeat", std::int64_t{1},
               "evaluations on the same rank mesh (termination re-arm test)");
  cli.add_flag("seed", std::int64_t{1}, "problem seed (identical on all ranks)");
  cli.add_flag("trace-out", std::string(""),
               "per-rank Chrome trace path prefix (empty = off)");
  cli.parse(argc, argv);

  net::NetConfig ncfg;  // standalone default: world of one
  if (auto env = net::net_config_from_env()) ncfg = *env;

  const auto n = static_cast<std::size_t>(cli.i64("n"));
  const auto seed = static_cast<std::uint64_t>(cli.i64("seed"));
  const Distribution dist = parse_distribution(cli.str("distribution"));

  // Identical inputs on every rank — the SPMD agreement the transport
  // relies on (tree, lists, DAG, and placement all derive from these).
  Rng rs(seed), rt(seed + 1), rq(seed + 2);
  const auto sources = generate_points(dist, n, rs);
  const auto targets = generate_points(dist, n, rt);
  const auto charges = generate_charges(n, rq);

  EvalConfig cfg;
  cfg.digits = static_cast<int>(cli.i64("digits"));
  cfg.threshold = static_cast<int>(cli.i64("threshold"));
  cfg.coalesce.enabled = cli.flag("coalesce");
  cfg.counters = true;
  cfg.trace = !cli.str("trace-out").empty();

  const int cores = static_cast<int>(cli.i64("cores"));
  net::NetExecutor ex(ncfg, cores, cfg.coalesce);
  const auto rank = ex.rank();
  const auto world = ex.world();

  Gather gather;
  if (rank == 0 && world > 1) {
    // Must exist before any peer's gather parcel can arrive.
    ex.register_net_handler(
        kNetKindUser, [&gather](const std::vector<std::byte>& buf) {
          std::lock_guard<std::mutex> lk(gather.mu);
          if (buf.size() < kGatherHeader) {
            gather.bad = true;
            return;
          }
          const std::uint64_t npot = load_u64(buf.data() + 32);
          if (buf.size() != kGatherHeader + npot * sizeof(double)) {
            gather.bad = true;
            return;
          }
          gather.wire_bytes += load_u64(buf.data() + 8);
          gather.bytes_sent += load_u64(buf.data() + 16);
          gather.parcels += load_u64(buf.data() + 24);
          if (gather.sum.empty()) gather.sum.assign(npot, 0.0);
          if (gather.sum.size() != npot) {
            gather.bad = true;
            return;
          }
          for (std::uint64_t i = 0; i < npot; ++i) {
            double v;
            std::memcpy(&v, buf.data() + kGatherHeader + i * sizeof(double),
                        sizeof(v));
            gather.sum[i] += v;
          }
          ++gather.ranks_seen;
        });
  }

  // One SPMD rank: every rank builds the identical one-shot pipeline on
  // the shared mesh, and its potentials are this rank's partial sums.
  const auto kernel = make_kernel(cli.str("kernel"));
  auto evaluate_once = [&] {
    return EvalPipeline(*kernel, cfg, sources, targets, ex).evaluate(charges);
  };
  EvalResult res = evaluate_once();

  // Repeat evaluations on the same connections, each on a fresh pipeline:
  // every round re-runs the termination protocol from a re-armed state,
  // and the per-epoch stats must be identical round to round — a stale
  // probe or a cumulative (sent, recvd) cut leaking across epochs shows up
  // here as a hang, a wire-byte drift, or a broken transport identity.
  const auto repeat = static_cast<int>(cli.i64("repeat"));
  for (int rep = 1; rep < repeat; ++rep) {
    EvalResult again = evaluate_once();
    if (again.wire_bytes != res.wire_bytes ||
        again.wire_bytes != again.bytes_sent) {
      std::fprintf(stderr,
                   "LOOPBACK FAIL: rank %u repeat %d wire_bytes %" PRIu64
                   " (round 1: %" PRIu64 ") bytes_sent %" PRIu64 "\n",
                   rank, rep + 1, again.wire_bytes, res.wire_bytes,
                   again.bytes_sent);
      return 1;
    }
    double rep_rel = 0.0;
    for (std::size_t i = 0; i < again.potentials.size(); ++i) {
      const double rel = std::abs(again.potentials[i] - res.potentials[i]) /
                         std::max(1.0, std::abs(res.potentials[i]));
      rep_rel = std::max(rep_rel, rel);
    }
    if (rep_rel > 1e-12) {
      std::fprintf(stderr,
                   "LOOPBACK FAIL: rank %u repeat %d potentials drift "
                   "(max rel err %.3e > 1e-12)\n",
                   rank, rep + 1, rep_rel);
      return 1;
    }
    res = std::move(again);
  }

  if (!cli.str("trace-out").empty()) {
    ChromeTraceOptions topt;
    topt.cores_per_locality = cores;
    topt.makespan = res.makespan;
    topt.dag_edges = res.dag_edges;
    topt.counters = &res.counters;
    // Per-rank identity + clock anchor: trace_report --merge shifts this
    // file onto rank 0's timeline using exactly these fields.
    topt.rank = rank;
    topt.world = world;
    topt.clock = ex.trace_clock();
    trace_export_chrome(cli.str("trace-out") + "." + std::to_string(rank),
                        res.trace, res.comm_trace, res.instants, topt);
  }

  if (world > 1) {
    if (rank != 0) {
      const std::uint64_t npot = res.potentials.size();
      auto buf = std::make_shared<std::vector<std::byte>>(
          kGatherHeader + npot * sizeof(double));
      store_u64(buf->data(), rank);
      store_u64(buf->data() + 8, res.wire_bytes);
      store_u64(buf->data() + 16, res.bytes_sent);
      store_u64(buf->data() + 24, res.parcels_sent);
      store_u64(buf->data() + 32, npot);
      std::memcpy(buf->data() + kGatherHeader, res.potentials.data(),
                  npot * sizeof(double));
      Task t;
      t.locality = 0;
      t.net_kind = kNetKindUser;
      t.net_payload = buf;
      t.fn = [] {};
      ex.send(rank, 0, buf->size(), t);
    }
    // Second drain epoch: collects the gather on rank 0, and every rank
    // participates in the termination protocol again.
    ex.drain();
  }

  if (rank != 0) return 0;  // followers: verification happens on rank 0

  if (world > 1) {
    std::lock_guard<std::mutex> lk(gather.mu);
    if (gather.bad || gather.ranks_seen != static_cast<int>(world) - 1) {
      std::fprintf(stderr,
                   "LOOPBACK FAIL: gather saw %d of %u ranks (bad=%d)\n",
                   gather.ranks_seen, world - 1, gather.bad ? 1 : 0);
      return 1;
    }
  }

  // Global answer: rank 0's partials plus the element-wise remote sums
  // (disjoint supports — each target box has exactly one home rank).
  std::vector<double> global = res.potentials;
  if (!gather.sum.empty()) {
    for (std::size_t i = 0; i < global.size(); ++i) global[i] += gather.sum[i];
  }
  const std::uint64_t total_wire = res.wire_bytes + gather.wire_bytes;
  const std::uint64_t total_sent = res.bytes_sent + gather.bytes_sent;

  // In-process reference: the same problem on the threaded executor with
  // one locality per rank.  Same DAG, same placement, same arithmetic —
  // the answers must agree to rounding noise and the bytes exactly.
  EvalConfig rcfg = cfg;
  rcfg.trace = false;
  rcfg.counters = false;
  rcfg.localities = static_cast<int>(world);
  rcfg.cores_per_locality = cores;
  Evaluator ref_eval(make_kernel(cli.str("kernel")), rcfg);
  const EvalResult ref = ref_eval.evaluate(sources, charges, targets);

  SimConfig scfg;
  scfg.localities = static_cast<int>(world);
  scfg.cores_per_locality = cores;
  const EvalResult sim = ref_eval.simulate(sources, targets, scfg);

  double max_rel = 0.0;
  for (std::size_t i = 0; i < global.size(); ++i) {
    const double rel = std::abs(global[i] - ref.potentials[i]) /
                       std::max(1.0, std::abs(ref.potentials[i]));
    max_rel = std::max(max_rel, rel);
  }
  bool ok = true;
  if (max_rel > 1e-12) {
    std::fprintf(stderr,
                 "LOOPBACK FAIL: potentials diverge from in-process run "
                 "(max rel err %.3e > 1e-12)\n",
                 max_rel);
    ok = false;
  }
  if (total_wire != total_sent) {
    std::fprintf(stderr,
                 "LOOPBACK FAIL: wire_bytes %" PRIu64 " != bytes_sent %" PRIu64
                 "\n",
                 total_wire, total_sent);
    ok = false;
  }
  if (total_wire != ref.wire_bytes || total_wire != sim.wire_bytes) {
    std::fprintf(stderr,
                 "LOOPBACK FAIL: wire bytes disagree: multi-process %" PRIu64
                 ", in-process %" PRIu64 ", sim %" PRIu64 "\n",
                 total_wire, ref.wire_bytes, sim.wire_bytes);
    ok = false;
  }
  if (world > 1) {
    const std::uint64_t net_msgs = res.counters.value("net.msgs_sent");
    const std::uint64_t net_iters = res.counters.value("net.progress_iters");
    if (net_msgs == 0 || net_iters == 0) {
      std::fprintf(stderr,
                   "LOOPBACK FAIL: net counters dead (msgs_sent=%" PRIu64
                   " progress_iters=%" PRIu64 ")\n",
                   net_msgs, net_iters);
      ok = false;
    }
  }
  if (!ok) return 1;

  std::printf("LOOPBACK OK np=%u n=%zu wire_bytes=%" PRIu64
              " parcels=%" PRIu64 " max_rel=%.3e makespan=%.3fs\n",
              world, n, total_wire, res.parcels_sent + gather.parcels,
              max_rel, res.makespan);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amtfmm_loopback: %s\n", e.what());
    return 1;
  }
}
