// Round-trip tests of the Chrome trace exporter and the trace_report
// analyzer: handcrafted event streams with known answers, plus end-to-end
// exports of a real simulated and a real threaded evaluation.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "geom/distributions.hpp"
#include "runtime/trace_export.hpp"
#include "runtime/trace_report.hpp"
#include "support/json.hpp"

namespace amtfmm {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Parses the file and returns the traceEvents array (asserts on failure).
JsonValue parse_file(const std::string& path) {
  std::string text;
  EXPECT_TRUE(read_file(path, text));
  JsonValue v;
  std::string err;
  EXPECT_TRUE(json_parse(text, v, err)) << err;
  return v;
}

TEST(TraceExport, HandcraftedRoundTrip) {
  // Two localities of one core each: a 1 ms span attributed to edge 0 on
  // worker 0, an unattributed span on worker 1, one steal instant, and one
  // wire message 0 -> 1.
  const std::vector<TraceEvent> spans{
      {0.0, 1e-3, 0, 1, 0},
      {1e-3, 2e-3, 1, 5, kNoTraceArg},
  };
  const std::vector<InstantEvent> instants{
      {0.5e-3, 0, InstantKind::kSteal, 1},
  };
  const std::vector<CommEvent> comm{
      {0.2e-3, 0.8e-3, 0, 1, 3, 123},
  };
  const std::vector<std::uint32_t> edges{0, 1};

  ChromeTraceOptions opt;
  opt.cores_per_locality = 1;
  opt.makespan = 2e-3;
  opt.sim = true;
  opt.dag_edges = edges;
  const std::string path = tmp_path("handcrafted_trace.json");
  ASSERT_TRUE(trace_export_chrome(path, spans, comm, instants, opt));

  const JsonValue v = parse_file(path);
  const JsonValue* events = v.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  int tasks = 0, wires = 0, insts = 0, flow_s = 0, flow_f = 0;
  double last_ts = -1.0;
  bool edge_arg_seen = false;
  for (const JsonValue& e : events->array) {
    const std::string ph = e.str_or("ph", "");
    if (ph == "M") continue;
    const double ts = e.num_or("ts", -1.0);
    EXPECT_GE(ts, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts;
    const std::string cat = e.str_or("cat", "");
    if (ph == "X" && cat == "task") {
      ++tasks;
      if (const JsonValue* args = e.find("args")) {
        edge_arg_seen |= args->num_or("edge", -1.0) == 0.0;
      }
    } else if (ph == "X" && cat == "comm") {
      ++wires;
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      EXPECT_EQ(args->num_or("parcels", 0.0), 3.0);
      EXPECT_EQ(args->num_or("bytes", 0.0), 123.0);
    } else if (ph == "i") {
      ++insts;
      EXPECT_EQ(e.str_or("name", ""), "steal");
    } else if (ph == "s") {
      ++flow_s;
    } else if (ph == "f") {
      ++flow_f;
    }
  }
  EXPECT_EQ(tasks, 2);
  EXPECT_EQ(wires, 1);
  EXPECT_EQ(insts, 1);
  EXPECT_EQ(flow_s, 1);
  EXPECT_EQ(flow_f, 1);
  EXPECT_TRUE(edge_arg_seen) << "span attribution (args.edge) missing";

  const TraceReport r = analyze_trace_file(path);
  EXPECT_TRUE(r.valid) << r.error;
  EXPECT_TRUE(r.sim);
  EXPECT_EQ(r.localities, 2);
  EXPECT_EQ(r.num_spans, 2u);
  EXPECT_EQ(r.num_comm, 1u);
  EXPECT_TRUE(r.monotonic_ok);
  EXPECT_TRUE(r.flows_paired);
  EXPECT_EQ(r.dag_edges, 1u);
  // Edge 0 carries the 1 ms span: the critical path is exactly that edge.
  EXPECT_EQ(r.critical_path_edges, 1u);
  EXPECT_NEAR(r.critical_path_seconds, 1e-3, 1e-9);
  EXPECT_EQ(r.instant_counts[static_cast<int>(InstantKind::kSteal)], 1u);
}

TEST(TraceExport, MultiEpochCriticalPathIsPerEpoch) {
  // Two resident epochs on the same 2-edge DAG: edge 0 carries a 1 ms span
  // in epoch 0 and a 3 ms span in epoch 1.  Per-epoch pathing must keep
  // the epochs apart (summing across epochs would report 4 ms, which no
  // single evaluation ever spent).
  const std::vector<TraceEvent> spans{
      {0.0, 1e-3, 0, 1, 0},
      {1.0, 1.003, 0, 1, 0},
  };
  const std::vector<double> epochs{0.0, 1.0};
  ChromeTraceOptions opt;
  opt.cores_per_locality = 1;
  opt.makespan = 3e-3;
  opt.sim = true;
  const std::vector<std::uint32_t> edges{0, 1};
  opt.dag_edges = edges;
  opt.epochs = epochs;
  const std::string path = tmp_path("multi_epoch_trace.json");
  ASSERT_TRUE(trace_export_chrome(path, spans, {}, {}, opt));

  const TraceReport r = analyze_trace_file(path);
  ASSERT_TRUE(r.valid) << r.error;
  ASSERT_EQ(r.epoch_starts.size(), 2u);
  EXPECT_DOUBLE_EQ(r.epoch_starts[0], 0.0);
  EXPECT_DOUBLE_EQ(r.epoch_starts[1], 1.0);
  ASSERT_EQ(r.epoch_critical_path_seconds.size(), 2u);
  EXPECT_NEAR(r.epoch_critical_path_seconds[0], 1e-3, 1e-9);
  EXPECT_NEAR(r.epoch_critical_path_seconds[1], 3e-3, 1e-9);
  // The headline number is the LARGEST epoch, bounded by the makespan.
  EXPECT_NEAR(r.critical_path_seconds, 3e-3, 1e-9);
  EXPECT_LE(r.critical_path_seconds, r.makespan * (1 + 1e-9));
}

TEST(TraceExport, ResidentPipelineTraceCarriesEpochs) {
  Rng rs(31), rt(32), rq(33);
  const auto sources = generate_points(Distribution::kCube, 1500, rs);
  const auto targets = generate_points(Distribution::kCube, 1500, rt);
  const auto charges = generate_charges(1500, rq, 0.1, 1.0);

  EvalConfig cfg;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  cfg.trace = true;
  auto kernel = make_kernel("laplace");
  EvalPipeline pipe(*kernel, cfg, sources, targets);
  const EvalResult e1 = pipe.evaluate(charges);
  const EvalResult e2 = pipe.evaluate(charges);
  // Trace buffers accumulate across epochs: the epoch-2 collect holds
  // both evaluations' spans.
  ASSERT_GT(e2.trace.size(), e1.trace.size());

  ChromeTraceOptions opt;
  opt.cores_per_locality = cfg.cores_per_locality;
  opt.makespan = std::max(e1.makespan, e2.makespan);
  opt.sim = false;
  opt.dag_edges = e2.dag_edges;
  opt.epochs = pipe.epoch_start_times();
  const std::string path = tmp_path("pipeline_trace.json");
  ASSERT_TRUE(
      trace_export_chrome(path, e2.trace, e2.comm_trace, e2.instants, opt));

  const TraceReport rep = analyze_trace_file(path);
  ASSERT_TRUE(rep.valid) << rep.error;
  ASSERT_EQ(rep.epoch_starts.size(), 2u);
  EXPECT_LT(rep.epoch_starts[0], rep.epoch_starts[1]);
  ASSERT_EQ(rep.epoch_critical_path_seconds.size(), 2u);
  EXPECT_GT(rep.epoch_critical_path_seconds[0], 0.0);
  EXPECT_GT(rep.epoch_critical_path_seconds[1], 0.0);
  EXPECT_DOUBLE_EQ(rep.critical_path_seconds,
                   std::max(rep.epoch_critical_path_seconds[0],
                            rep.epoch_critical_path_seconds[1]));
}

TEST(TraceExport, MalformedFileIsInvalid) {
  const std::string path = tmp_path("malformed_trace.json");
  {
    JsonWriter w;
    w.begin_object();
    w.kv("traceEvents", "not an array");
    w.end_object();
    ASSERT_TRUE(w.write_file(path));
  }
  EXPECT_FALSE(analyze_trace_file(path).valid);
  EXPECT_FALSE(analyze_trace_file(tmp_path("no_such_file.json")).valid);
}

TEST(TraceExport, SimulatedRunEndToEnd) {
  Rng rs(7), rt(8);
  const auto sources = generate_points(Distribution::kCube, 3000, rs);
  const auto targets = generate_points(Distribution::kCube, 3000, rt);
  EvalConfig cfg;
  cfg.coalesce.enabled = true;
  cfg.trace = true;
  cfg.counters = true;
  Evaluator eval(make_kernel("laplace"), cfg);

  SimConfig sim;
  sim.localities = 2;
  sim.cores_per_locality = 4;
  sim.cost = CostModel::paper("laplace");
  const EvalResult r = eval.simulate(sources, targets, sim);
  ASSERT_FALSE(r.trace.empty());
  ASSERT_FALSE(r.dag_edges.empty());
  ASSERT_FALSE(r.counters.empty());

  ChromeTraceOptions opt;
  opt.cores_per_locality = sim.cores_per_locality;
  opt.makespan = r.makespan;
  opt.sim = true;
  opt.dag_edges = r.dag_edges;
  opt.counters = &r.counters;
  const std::string path = tmp_path("sim_trace.json");
  ASSERT_TRUE(
      trace_export_chrome(path, r.trace, r.comm_trace, r.instants, opt));

  const TraceReport rep = analyze_trace_file(path);
  ASSERT_TRUE(rep.valid) << rep.error;
  EXPECT_TRUE(rep.sim);
  EXPECT_EQ(rep.workers, sim.localities * sim.cores_per_locality);
  EXPECT_EQ(rep.num_spans, r.trace.size());
  EXPECT_EQ(rep.num_instants, r.instants.size());
  EXPECT_EQ(rep.num_comm, r.comm_trace.size());
  EXPECT_TRUE(rep.monotonic_ok);
  EXPECT_TRUE(rep.flows_paired);
  // Virtual time is noise free: the weighted critical path can never
  // exceed the simulated makespan.
  EXPECT_GT(rep.critical_path_seconds, 0.0);
  EXPECT_LE(rep.critical_path_seconds, rep.makespan * (1 + 1e-9));
  // Busy time fits in workers * window.
  EXPECT_LE(rep.busy_seconds,
            rep.workers * (rep.t_max - rep.t_min) * (1 + 1e-9) + 1e-9);
  // The counter snapshot survived the round trip.
  EXPECT_GT(rep.counters.value("sched.tasks_run"), 0u);
}

TEST(TraceExport, ThreadedRunEndToEnd) {
  Rng rs(9), rt(10), rq(11);
  const auto sources = generate_points(Distribution::kCube, 2000, rs);
  const auto targets = generate_points(Distribution::kCube, 2000, rt);
  const auto charges = generate_charges(2000, rq, 0.1, 1.0);

  EvalConfig cfg;
  cfg.localities = 2;
  cfg.cores_per_locality = 2;
  cfg.trace = true;
  cfg.counters = true;
  Evaluator eval(make_kernel("laplace"), cfg);
  const EvalResult r = eval.evaluate(sources, charges, targets);
  ASSERT_FALSE(r.trace.empty());
  ASSERT_FALSE(r.counters.empty());
  EXPECT_GT(r.counters.value("sched.tasks_run"), 0u);

  ChromeTraceOptions opt;
  opt.cores_per_locality = cfg.cores_per_locality;
  opt.makespan = r.makespan;
  opt.sim = false;
  opt.dag_edges = r.dag_edges;
  opt.counters = &r.counters;
  const std::string path = tmp_path("eval_trace.json");
  ASSERT_TRUE(
      trace_export_chrome(path, r.trace, r.comm_trace, r.instants, opt));

  const TraceReport rep = analyze_trace_file(path);
  ASSERT_TRUE(rep.valid) << rep.error;
  EXPECT_FALSE(rep.sim);
  EXPECT_EQ(rep.num_spans, r.trace.size());
  EXPECT_TRUE(rep.monotonic_ok);
  EXPECT_TRUE(rep.flows_paired);
  EXPECT_GT(rep.busy_seconds, 0.0);
}

}  // namespace
}  // namespace amtfmm
