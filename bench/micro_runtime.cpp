// Micro-benchmarks of the AMT substrate: task spawn/drain throughput, LCO
// reduction rate, parcel round-trips, parcel-coalescing fan-out, and
// discrete-event simulation rate — the runtime-overhead side of the paper's
// grain-size discussion (tasks of a few microseconds must not be swamped by
// scheduler costs).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/pipeline.hpp"
#include "kernels/kernel.hpp"
#include "runtime/lco_arena.hpp"
#include "runtime/net/transport.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"
#include "support/timer.hpp"

namespace {

using namespace amtfmm;

void BM_SpawnDrain(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  ThreadExecutor ex(1, 2);
  std::atomic<int> count{0};
  for (auto _ : state) {
    count.store(0);
    for (int i = 0; i < tasks; ++i) {
      Task t;
      t.fn = [&count] { count.fetch_add(1, std::memory_order_relaxed); };
      ex.spawn(std::move(t));
    }
    ex.drain();
    benchmark::DoNotOptimize(count.load());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SpawnDrain)->Arg(1000)->Arg(10000);

// One node of in-degree N fed N inputs from the caller thread: the
// uncontended cost of an arena input (stripe lock, reduction, countdown).
void BM_LcoReduction(benchmark::State& state) {
  ThreadExecutor ex(1, 2);
  const int inputs = static_cast<int>(state.range(0));
  LcoArena arena(ex, 1);
  const std::uint32_t deg = static_cast<std::uint32_t>(inputs);
  double sum = 0.0;
  for (auto _ : state) {
    arena.rearm({&deg, 1});
    for (int i = 0; i < inputs; ++i) arena.input(0, [&sum] { sum += 1.0; });
    benchmark::DoNotOptimize(arena.triggered(0));
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations() * inputs);
}
BENCHMARK(BM_LcoReduction)->Arg(100)->Arg(10000);

/// A parcel of kind kNetKindUser carrying `bytes` of payload.
Task user_parcel(std::size_t bytes) {
  Task t;
  t.net_kind = kNetKindUser;
  t.net_payload = std::make_shared<const std::vector<std::byte>>(bytes);
  return t;
}

/// Registers a kNetKindUser handler that touches the payload and counts.
void count_parcels(Executor& ex, std::atomic<int>& hits) {
  ex.register_net_handler(
      kNetKindUser, [&hits](const std::vector<std::byte>& payload) {
        benchmark::DoNotOptimize(payload.data());
        hits.fetch_add(1, std::memory_order_relaxed);
      });
}

void BM_ParcelRoundTrip(benchmark::State& state) {
  ThreadExecutor ex(2, 1);
  std::atomic<int> hits{0};
  count_parcels(ex, hits);
  for (auto _ : state) {
    // One multipole expansion of payload, run by the receiver's handler.
    ex.send(0, 1, 880 + 32, user_parcel(880));
    ex.drain();
  }
  benchmark::DoNotOptimize(hits.load());
}
BENCHMARK(BM_ParcelRoundTrip);

void BM_SimEventRate(benchmark::State& state) {
  const int tasks = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SimExecutor ex(4, 32, SchedPolicy::kWorkStealing, NetworkModel{});
    for (int i = 0; i < tasks; ++i) {
      Task t;
      t.locality = static_cast<std::uint32_t>(i % 4);
      t.items = {{kClsOther, 1e-6}};
      ex.spawn(std::move(t));
    }
    ex.drain();
    benchmark::DoNotOptimize(ex.now());
  }
  state.SetItemsProcessed(state.iterations() * tasks);
}
BENCHMARK(BM_SimEventRate)->Arg(10000)->Arg(100000);

// Fan-in: N inputs, each one Contribution with a main-segment record of
// `coeffs` coefficients, racing from every worker into one arena node and
// added in as the engine's reduction does — the contention shape of a
// high-in-degree expansion node.
void BM_LcoFanIn(benchmark::State& state) {
  const int inputs = 4096;
  const std::uint32_t coeffs = static_cast<std::uint32_t>(state.range(0));
  ThreadExecutor ex(1, 4);
  struct Node {
    LcoArena arena;
    CoeffVec in;
    CoeffVec acc;
  } node{LcoArena(ex, 1), CoeffVec(coeffs, cdouble(1.0, -1.0)),
         CoeffVec(coeffs)};
  const std::uint32_t deg = inputs;
  for (auto _ : state) {
    node.arena.rearm({&deg, 1});
    for (int i = 0; i < inputs; ++i) {
      Task t;
      // One captured pointer keeps the closure in std::function's inline
      // buffer, so the bench times the input, not a closure allocation.
      t.fn = [&node] {
        Contribution c;
        c.add(kSegMain, node.in);
        node.arena.input(0, [&] {
          for (const Contribution::Record& r : c.records()) {
            r.add_to(node.acc.data());
          }
        });
      };
      ex.spawn(std::move(t));
    }
    ex.drain();
    benchmark::DoNotOptimize(node.arena.triggered(0));
  }
  state.SetItemsProcessed(state.iterations() * inputs);
  state.SetBytesProcessed(state.iterations() * inputs *
                          static_cast<std::int64_t>(coeffs * sizeof(cdouble)));
}
BENCHMARK(BM_LcoFanIn)->Arg(1)->Arg(55)->Arg(220);

// One resident epoch of the Counting kernel on one worker.  Its operators
// are pass-through sums, so the time is the engine's own per-edge cost:
// the input, the reduction and the local tasks' CSR walks.  Items are DAG
// edges, so 1e9 / items_per_second is ns per edge.
void BM_CountingEpoch(benchmark::State& state) {
  constexpr std::size_t kPoints = 20000;
  const bench::Ensembles e = bench::make_ensembles(Distribution::kCube,
                                                   kPoints, 1);
  const std::vector<double> q(kPoints, 1.0);  // every potential is N
  EvalConfig cfg;
  cfg.threshold = 10;
  cfg.localities = 1;
  cfg.cores_per_locality = 1;
  auto kernel = make_kernel("counting");
  EvalPipeline pipe(*kernel, cfg, e.sources, e.targets);
  pipe.evaluate(q);  // the first epoch instantiates the resident arena
  std::uint64_t edges = 0;
  for (auto _ : state) {
    const EvalResult r = pipe.evaluate(q);
    if (r.potentials.front() != static_cast<double>(kPoints)) {
      state.SkipWithError("counting potential is not N");
      break;
    }
    edges = r.dag.total_edges;
    benchmark::DoNotOptimize(r.potentials.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(edges));
  state.counters["dag_edges"] = static_cast<double>(edges);
}
BENCHMARK(BM_CountingEpoch)->Unit(benchmark::kMillisecond)->UseRealTime();

// Fan-out: the input that triggers a node spawns its N out-tasks from the
// worker it runs on, as the engine's out-edge walk does — the shape of a
// root expansion feeding a wide out-edge CSR.
void BM_LcoFanOut(benchmark::State& state) {
  const int outs = static_cast<int>(state.range(0));
  ThreadExecutor ex(1, 4);
  LcoArena arena(ex, 1);
  const std::uint32_t deg = 1;
  std::atomic<int> hits{0};
  for (auto _ : state) {
    hits.store(0);
    arena.rearm({&deg, 1});
    Task in;
    in.fn = [&] {
      if (!arena.input(0, [] {})) return;
      for (int i = 0; i < outs; ++i) {
        Task t;
        t.fn = [&hits] { hits.fetch_add(1, std::memory_order_relaxed); };
        ex.spawn(std::move(t));
      }
    };
    ex.spawn(std::move(in));
    ex.drain();
    benchmark::DoNotOptimize(hits.load());
  }
  state.SetItemsProcessed(state.iterations() * outs);
}
BENCHMARK(BM_LcoFanOut)->Arg(64)->Arg(1024);

// Serialize + deserialize cost of one expansion through the kernel wire
// codec — the per-parcel CPU price of the no-pointers-cross-localities
// rule.  Arg is the expansion order stand-in: accuracy digits.
void BM_ExpansionSerialize(benchmark::State& state) {
  auto kernel = make_kernel("laplace");
  kernel->setup(1.0, 4, static_cast<int>(state.range(0)));
  const int level = 2;
  CoeffVec m(kernel->m_count(level), cdouble(0.5, -0.25));
  std::vector<std::byte> wire(kernel->m_wire_bytes(level));
  CoeffVec back;
  for (auto _ : state) {
    kernel->pack_m(m, level, wire.data());
    kernel->unpack_m(wire, level, back);
    benchmark::DoNotOptimize(back.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(wire.size()));
  state.counters["wire_bytes"] = static_cast<double>(wire.size());
  state.counters["full_bytes"] =
      static_cast<double>(m.size() * sizeof(cdouble));
}
BENCHMARK(BM_ExpansionSerialize)->Arg(3)->Arg(6);

CoalesceConfig coalesce_arg(std::int64_t on) {
  CoalesceConfig c;
  c.enabled = on != 0;
  return c;
}

// Many small parcels fanned out round-robin to the remote localities —
// the traffic shape of the engine's per-node edge parcels.  Arg(0)/Arg(1)
// toggle coalescing; the coalescing_factor counter reports how many
// parcels shared a wire message.
void BM_ParcelFanOutReal(benchmark::State& state) {
  constexpr int kParcels = 4096;
  ThreadExecutor ex(4, 1, 1, coalesce_arg(state.range(0)));
  std::atomic<int> hits{0};
  count_parcels(ex, hits);
  for (auto _ : state) {
    for (int i = 0; i < kParcels; ++i) {
      ex.send(0, static_cast<std::uint32_t>(1 + i % 3), 64 + 32,
              user_parcel(64));
    }
    ex.drain();
    benchmark::DoNotOptimize(hits.load());
  }
  state.SetItemsProcessed(state.iterations() * kParcels);
  const CommStats s = ex.comm_stats();
  state.counters["coalescing_factor"] = s.coalescing_factor();
}
BENCHMARK(BM_ParcelFanOutReal)->Arg(0)->Arg(1);

// The same fan-out on the simulated alpha-beta network: virtual_time shows
// the modelled win of paying one alpha per batch instead of one per parcel.
void BM_ParcelFanOutSim(benchmark::State& state) {
  constexpr int kParcels = 4096;
  double virtual_time = 0.0;
  double factor = 1.0;
  for (auto _ : state) {
    SimExecutor ex(4, 1, SchedPolicy::kFifo, NetworkModel{}, 1,
                   coalesce_arg(state.range(0)));
    ex.register_net_handler(kNetKindUser,
                            [](const std::vector<std::byte>&) {});
    for (int i = 0; i < kParcels; ++i) {
      ex.send(0, static_cast<std::uint32_t>(1 + i % 3), 64, user_parcel(64));
    }
    virtual_time = ex.drain();
    factor = ex.comm_stats().coalescing_factor();
    benchmark::DoNotOptimize(virtual_time);
  }
  state.SetItemsProcessed(state.iterations() * kParcels);
  state.counters["virtual_time"] = virtual_time;
  state.counters["coalescing_factor"] = factor;
}
BENCHMARK(BM_ParcelFanOutSim)->Arg(0)->Arg(1);

// --- Socket transport micro-benchmark (--transport-json) -------------------
//
// Round-trip latency, one-way message rate, and bandwidth over a real
// two-rank socket mesh inside this process, plus an exact sent==received
// parity check.  Written as BENCH_transport.json and gated by
// scripts/check_bench_transport.py in CI.

net::NetConfig transport_cfg(std::uint32_t rank, const std::string& dir,
                             net::TransportKind kind) {
  net::NetConfig cfg;
  cfg.rank = rank;
  cfg.world = 2;
  cfg.kind = kind;
  cfg.dir = dir;
  cfg.connect_timeout_s = 10.0;
  return cfg;
}

ParcelBatch transport_batch(std::uint32_t src, std::size_t payload_bytes) {
  ParcelBatch b;
  b.src = src;
  b.dst = 1 - src;
  b.bytes = payload_bytes;
  b.coalesced = false;
  b.tasks.push_back(user_parcel(payload_bytes));
  b.tasks.back().locality = b.dst;
  return b;
}

/// Runs the ping-pong / streaming measurements over one transport kind and
/// appends result rows.  The echo logic lives in rank 1's batch callback,
/// so every round trip crosses the progress engines of both ranks.
void run_transport_bench(net::TransportKind kind, const std::string& kind_name,
                         std::vector<bench::BenchEntry>& out) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("amtfmm_bench_net_" + std::to_string(::getpid()) + "_" + kind_name);
  fs::create_directories(dir);

  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t echoes = 0;       // batches arriving back at rank 0
  std::uint64_t recvd1 = 0;       // batches arriving at rank 1
  std::uint64_t recvd1_bytes = 0; // summed parcel payload bytes at rank 1
  std::atomic<bool> echo_enabled{true};

  auto fail = [](const std::string& why) {
    std::fprintf(stderr, "transport bench: transport failed: %s\n",
                 why.c_str());
    std::exit(1);
  };
  auto ctrl = [](const net::ControlMsg&) {};

  net::NetTransport* t1_ptr = nullptr;
  net::NetTransport t0(
      transport_cfg(0, dir.string(), kind),
      [&](ParcelBatch&&) {
        std::lock_guard<std::mutex> lk(mu);
        ++echoes;
        cv.notify_all();
      },
      ctrl, fail);
  net::NetTransport t1(
      transport_cfg(1, dir.string(), kind),
      [&](ParcelBatch&& b) {
        {
          std::lock_guard<std::mutex> lk(mu);
          ++recvd1;
          recvd1_bytes += b.bytes;
          cv.notify_all();
        }
        // Echo from the progress thread: post_control-style non-blocking
        // is not needed; the reply is one small frame.
        if (echo_enabled.load(std::memory_order_relaxed)) {
          t1_ptr->post_batch(0, transport_batch(1, 8));
        }
      },
      ctrl, fail);
  t1_ptr = &t1;
  std::thread peer([&] { t1.start(); });
  t0.start();
  peer.join();

  auto wait_until = [&](auto pred) {
    std::unique_lock<std::mutex> lk(mu);
    if (!cv.wait_for(lk, std::chrono::seconds(60), pred)) {
      std::fprintf(stderr, "transport bench: timed out\n");
      std::exit(1);
    }
  };

  // Round-trip latency: sequential ping-pong, one message in flight.
  const std::uint64_t kWarmup = 50, kRoundTrips = 2000;
  for (std::uint64_t i = 0; i < kWarmup; ++i) {
    t0.post_batch(1, transport_batch(0, 8));
    const std::uint64_t want = i + 1;
    wait_until([&] { return echoes >= want; });
  }
  Timer rtt_timer;
  for (std::uint64_t i = 0; i < kRoundTrips; ++i) {
    t0.post_batch(1, transport_batch(0, 8));
    const std::uint64_t want = kWarmup + i + 1;
    wait_until([&] { return echoes >= want; });
  }
  const double rtt_s = rtt_timer.seconds();
  {
    bench::BenchEntry e;
    e.name = "transport_roundtrip/" + kind_name;
    e.ns_per_op = rtt_s * 1e9 / static_cast<double>(kRoundTrips);
    e.counters.emplace_back("round_trips", static_cast<double>(kRoundTrips));
    out.push_back(std::move(e));
  }

  // One-way message rate: a burst of small batches against the window.
  echo_enabled.store(false);
  const std::uint64_t base = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return recvd1;
  }();
  const std::uint64_t kMsgs = 20000;
  Timer rate_timer;
  for (std::uint64_t i = 0; i < kMsgs; ++i) {
    t0.post_batch(1, transport_batch(0, 32));
  }
  wait_until([&] { return recvd1 >= base + kMsgs; });
  const double rate_s = rate_timer.seconds();
  {
    bench::BenchEntry e;
    e.name = "transport_msg_rate/" + kind_name;
    e.ns_per_op = rate_s * 1e9 / static_cast<double>(kMsgs);
    e.counters.emplace_back("msgs_per_s",
                            static_cast<double>(kMsgs) / rate_s);
    out.push_back(std::move(e));
  }

  // Bandwidth: few large payloads.
  const std::uint64_t kBig = 200, kBigBytes = 256 * 1024;
  const std::uint64_t base2 = [&] {
    std::lock_guard<std::mutex> lk(mu);
    return recvd1;
  }();
  Timer bw_timer;
  for (std::uint64_t i = 0; i < kBig; ++i) {
    t0.post_batch(1, transport_batch(0, kBigBytes));
  }
  wait_until([&] { return recvd1 >= base2 + kBig; });
  const double bw_s = bw_timer.seconds();
  {
    bench::BenchEntry e;
    e.name = "transport_bandwidth/" + kind_name;
    e.ns_per_op = bw_s * 1e9 / static_cast<double>(kBig);
    e.counters.emplace_back(
        "bytes_per_s", static_cast<double>(kBig * kBigBytes) / bw_s);
    out.push_back(std::move(e));
  }

  // Parity: every posted frame was fully written and fully decoded, and
  // the logical payload bytes survived exactly (wire == sent invariant).
  t0.stop();
  t1.stop();
  const std::uint64_t sent_msgs = t0.stats().msgs_sent.load();
  const std::uint64_t sent_bytes =
      (kWarmup + kRoundTrips) * 8 + kMsgs * 32 + kBig * kBigBytes;
  {
    bench::BenchEntry e;
    e.name = "transport_parity/" + kind_name;
    e.ns_per_op = 0.0;
    e.counters.emplace_back("posted_payload_bytes",
                            static_cast<double>(sent_bytes));
    e.counters.emplace_back("recvd_payload_bytes",
                            static_cast<double>(recvd1_bytes));
    e.counters.emplace_back("sent_frames", static_cast<double>(sent_msgs));
    e.counters.emplace_back("recvd_frames", static_cast<double>(recvd1));
    out.push_back(std::move(e));
  }

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace

// BENCHMARK_MAIN() plus a `--transport-json <path>` flag, stripped before
// argv is handed to the benchmark library: when given, the socket-transport
// measurements run first and write BENCH_transport.json-style rows (their
// summary goes to stderr, so stdout stays the library's output).  JSON for
// the google-benchmark runs comes from the library's own --benchmark_format
// and --benchmark_out=PATH --benchmark_out_format=json.
int main(int argc, char** argv) {
  std::string transport_json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--transport-json" && i + 1 < argc) {
      transport_json_path = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!transport_json_path.empty()) {
    std::vector<bench::BenchEntry> rows;
    run_transport_bench(net::TransportKind::kUnix, "unix", rows);
    run_transport_bench(net::TransportKind::kTcp, "tcp", rows);
    if (!bench::write_bench_json(transport_json_path, rows)) {
      std::fprintf(stderr, "micro_runtime: cannot write %s\n",
                   transport_json_path.c_str());
      return 1;
    }
    for (const auto& r : rows) {
      std::fprintf(stderr, "%-32s %12.0f ns/op\n", r.name.c_str(),
                   r.ns_per_op);
    }
  }
  int filtered = static_cast<int>(args.size());
  benchmark::Initialize(&filtered, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered, args.data())) return 1;

  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
