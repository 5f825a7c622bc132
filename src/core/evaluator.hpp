#pragma once

#include <memory>

#include "core/engine.hpp"
#include "runtime/counters.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm {

namespace net {
class NetExecutor;
}

class EvalPipeline;

/// User-facing configuration.  Everything here is a plain parameter — the
/// DASHMM design point the paper emphasizes: the method, kernel, accuracy
/// and data distribution vary freely while the parallelization underneath
/// stays the same, and no knowledge of the runtime is required.
struct EvalConfig {
  Method method = Method::kFmmAdvanced;
  int threshold = 60;      ///< refinement threshold (paper: 60)
  int digits = 3;          ///< accuracy digits (paper: 3)
  double bh_theta = 0.5;   ///< Barnes-Hut opening angle
  Placement placement = Placement::kCommMin;
  int localities = 1;
  int cores_per_locality = 2;
  bool split_priority = false;  ///< binary priority for the upward pass
  M2LMode m2l_mode = M2LMode::kRotation;  ///< rotation (O(p^3)) or naive M2L
  CoalesceConfig coalesce{};  ///< per-locality parcel coalescing
  bool trace = false;
  bool counters = false;  ///< runtime counter registry (see counters.hpp)
  std::uint64_t seed = 1;
};

struct EvalResult {
  std::vector<double> potentials;  ///< one per target, in caller order
  double makespan = 0.0;           ///< DAG evaluation time (seconds)
  double setup_time = 0.0;         ///< tree + lists + DAG construction
  DagStats dag;
  std::vector<TraceEvent> trace;
  std::vector<CommEvent> comm_trace;
  std::vector<InstantEvent> instants;
  /// DAG edges flattened as [src0, dst0, src1, dst1, ...] in edge-id order
  /// (so TraceEvent::arg indexes pair `arg`).  Filled when trace is on;
  /// embedded in Chrome exports for the critical-path analyzer.
  std::vector<std::uint32_t> dag_edges;
  std::uint64_t bytes_sent = 0;
  std::uint64_t parcels_sent = 0;
  /// Serialized bytes of every remote parcel as counted by the engine's
  /// wire format; always equals bytes_sent (asserted).
  std::uint64_t wire_bytes = 0;
  CommStats comm;
  CounterSnapshot counters;  ///< filled when EvalConfig::counters is on
};

/// Configuration for a simulated (DES) evaluation of the same DAG.
struct SimConfig {
  int localities = 1;
  int cores_per_locality = 32;  ///< Big Red II: 32 cores per node
  SchedPolicy policy = SchedPolicy::kWorkStealing;
  bool split_priority = false;
  NetworkModel network{};
  CoalesceConfig coalesce{};  ///< per-locality parcel coalescing
  CostModel cost;  ///< fill via CostModel::paper() or ::measured()
  bool trace = false;
  bool counters = false;  ///< runtime counter registry (see counters.hpp)
  std::uint64_t seed = 1;
};

struct SimResult {
  double virtual_time = 0.0;
  DagStats dag;
  std::vector<TraceEvent> trace;
  std::vector<CommEvent> comm_trace;
  std::vector<InstantEvent> instants;
  /// DAG edges flattened as [src, dst, ...] in edge-id order (see
  /// EvalResult::dag_edges).
  std::vector<std::uint32_t> dag_edges;
  std::uint64_t bytes_sent = 0;
  std::uint64_t parcels_sent = 0;
  /// Engine-side wire-format byte count; always equals bytes_sent.
  std::uint64_t wire_bytes = 0;
  CommStats comm;
  CounterSnapshot counters;  ///< filled when SimConfig::counters is on
  int total_cores = 0;
};

/// The top-level HMM evaluator: builds the dual tree, the interaction
/// lists, and the explicit DAG, then evaluates the implicit LCO dataflow
/// network on the requested substrate.
///
///   auto eval = Evaluator(make_kernel("laplace"), {});
///   auto result = eval.evaluate(sources, charges, targets);
///
/// evaluate() computes real potentials on the threaded executor;
/// simulate() replays the identical DAG on the discrete-event simulator to
/// predict time-to-solution on a virtual cluster (the Big Red II
/// substitution of DESIGN.md).
class Evaluator {
 public:
  Evaluator(std::unique_ptr<Kernel> kernel, EvalConfig cfg);
  ~Evaluator();

  EvalResult evaluate(std::span<const Vec3> sources,
                      std::span<const double> charges,
                      std::span<const Vec3> targets);

  /// Iterative use (the opening of the paper's section IV): the FMM is
  /// commonly evaluated many times over the same geometry with different
  /// charges, so the tree/lists/DAG setup is built once and amortized.
  /// prepare() fixes the ensembles; evaluate_prepared() then runs one DAG
  /// evaluation per call, reusing every setup artifact.
  /// Under the hood prepare() stands up a resident EvalPipeline, so every
  /// evaluate_prepared() after the first re-arms the same GAS/LCO arena in
  /// place (epoch reset) instead of re-instantiating it.
  void prepare(std::span<const Vec3> sources, std::span<const Vec3> targets);
  EvalResult evaluate_prepared(std::span<const double> charges);
  bool prepared() const { return pipeline_ != nullptr; }

  /// The resident pipeline behind prepare(), for epoch statistics and
  /// incremental updates (null before prepare()).
  EvalPipeline* pipeline() { return pipeline_.get(); }

  SimResult simulate(std::span<const Vec3> sources,
                     std::span<const Vec3> targets, const SimConfig& sim);

  /// One SPMD rank of a distributed evaluation over socket localities:
  /// every rank calls this with the IDENTICAL inputs and configuration
  /// (the tree/lists/DAG are deterministic, so all processes agree on
  /// placement without communicating), using `ex.num_localities()` as the
  /// locality count.  The returned potentials are this rank's PARTIAL
  /// result — entries for target boxes homed on other ranks are zero, so
  /// the global answer is the element-wise sum across ranks (each target
  /// has exactly one home).  bytes_sent/wire_bytes/comm likewise cover
  /// only this rank's sends, and wire_bytes == bytes_sent stays asserted
  /// per rank.  EvalConfig::localities/cores_per_locality are ignored in
  /// favor of the executor's world and pool.
  EvalResult evaluate_distributed(net::NetExecutor& ex,
                                  std::span<const Vec3> sources,
                                  std::span<const double> charges,
                                  std::span<const Vec3> targets);

  const Kernel& kernel() const { return *kernel_; }
  const EvalConfig& config() const { return cfg_; }

 private:
  std::unique_ptr<Kernel> kernel_;
  EvalConfig cfg_;
  std::unique_ptr<EvalPipeline> pipeline_;
};

/// Reference O(N^2) summation (chunked over the executor's workers); the
/// ground truth every method is validated against.
std::vector<double> direct_sum(const Kernel& kernel,
                               std::span<const Vec3> sources,
                               std::span<const double> charges,
                               std::span<const Vec3> targets);

}  // namespace amtfmm
