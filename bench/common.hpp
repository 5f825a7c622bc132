#pragma once

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "geom/distributions.hpp"
#include "runtime/trace_export.hpp"
#include "support/cli.hpp"
#include "support/json.hpp"

namespace amtfmm::bench {

/// Source and target ensembles as in the paper's runs: same size, distinct
/// (different draws), same distribution type.
struct Ensembles {
  std::vector<Vec3> sources;
  std::vector<Vec3> targets;
  std::vector<double> charges;
};

inline Ensembles make_ensembles(Distribution d, std::size_t n,
                                std::uint64_t seed) {
  Rng rs(seed), rt(seed + 1000), rq(seed + 2000);
  Ensembles e;
  e.sources = generate_points(d, n, rs);
  e.targets = generate_points(d, n, rt);
  e.charges = generate_charges(n, rq, 0.1, 1.0);
  return e;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Formats a byte range like the paper's tables ("32-1920" or "880").
inline std::string byte_range(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) return "-";  // empty class
  if (lo == hi) return std::to_string(lo);
  return std::to_string(lo) + "-" + std::to_string(hi);
}

/// One row of a hand-timed measurement outside google-benchmark: the
/// `micro_runtime --transport-json` and `micro_operators --kernels-json`
/// outputs gated by scripts/check_bench_transport.py and
/// scripts/check_bench_kernels.py.
struct BenchEntry {
  std::string name;
  double ns_per_op = 0.0;
  std::vector<std::pair<std::string, double>> counters;
};

/// Writes entries as a JSON array of flat {name, ns_per_op, counters...}
/// objects — the single writer behind both outputs, so the schema
/// (escaping, number formatting) is identical.
inline bool write_bench_json(const std::string& path,
                             const std::vector<BenchEntry>& entries) {
  JsonWriter w;
  w.begin_array();
  for (const auto& e : entries) {
    w.begin_object();
    w.kv("name", e.name);
    w.kv("ns_per_op", e.ns_per_op);
    for (const auto& [k, v] : e.counters) w.kv(k, v);
    w.end_object();
  }
  w.end_array();
  return w.write_file(path);
}

/// Serializes comm statistics under the given key — shared by the fig
/// benches' `--json` outputs.
inline void append_comm_json(JsonWriter& w, const CommStats& c) {
  w.begin_object();
  w.kv("parcels", static_cast<std::uint64_t>(c.parcels));
  w.kv("batches", static_cast<std::uint64_t>(c.batches));
  w.kv("bytes", static_cast<std::uint64_t>(c.bytes));
  w.kv("coalescing_factor", c.coalescing_factor());
  w.end_object();
}

/// Registers the shared `--trace-out=FILE` flag.
inline void add_trace_out_flag(Cli& cli) {
  cli.add_flag("trace-out", std::string(),
               "write a Chrome/Perfetto trace of the run to FILE");
}

/// Exports a simulated run (Evaluator::simulate) as a Chrome trace when
/// `--trace-out` was given.  Returns false only when the flag was set and
/// the export failed.
inline bool export_trace_if_requested(const Cli& cli, const EvalResult& r,
                                      int cores_per_locality) {
  const std::string path = cli.str("trace-out");
  if (path.empty()) return true;
  ChromeTraceOptions opt;
  opt.cores_per_locality = cores_per_locality;
  opt.makespan = r.makespan;
  opt.sim = true;
  opt.dag_edges = r.dag_edges;
  opt.counters = r.counters.empty() ? nullptr : &r.counters;
  const bool ok =
      trace_export_chrome(path, r.trace, r.comm_trace, r.instants, opt);
  std::printf(ok ? "\ntrace written to %s (open in ui.perfetto.dev or run "
                   "tools/trace_report)\n"
                 : "\nERROR: could not write trace to %s\n",
              path.c_str());
  return ok;
}

}  // namespace amtfmm::bench
