#pragma once

#include <memory>

#include "core/engine.hpp"
#include "runtime/counters.hpp"
#include "runtime/sim_executor.hpp"
#include "runtime/thread_executor.hpp"

namespace amtfmm {

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
  /// One per target, in caller order; empty for a simulated epoch.
  std::vector<double> potentials;
  /// DAG evaluation time (seconds): wall clock, or virtual time when
  /// simulated.
  double makespan = 0.0;
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

/// Throws config_error for a threshold or digit count below one.  The one
/// check shared by Evaluator and EvalPipeline; each kernel's setup rejects
/// digit counts above its own range.
void validate_config(const EvalConfig& cfg);

/// The simulated machine of a DES evaluation.  Everything else (coalescing,
/// priorities, tracing, counters, seed) comes from the evaluation's
/// EvalConfig, exactly as for a real run.
struct SimConfig {
  int localities = 1;
  int cores_per_locality = 32;  ///< Big Red II: 32 cores per node
  SchedPolicy policy = SchedPolicy::kWorkStealing;
  NetworkModel network{};
  CostModel cost;  ///< fill via CostModel::paper() or ::measured()
};

/// The top-level HMM evaluator: a facade owning the kernel.  Every epoch it
/// runs — real or simulated — is an EvalPipeline epoch (dual tree,
/// interaction lists, explicit DAG, then the implicit LCO dataflow network
/// on the requested executor).
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
  /// Throws config_error when validate_config rejects `cfg`.
  Evaluator(std::unique_ptr<Kernel> kernel, EvalConfig cfg);
  ~Evaluator();

  /// One-shot: a pipeline that lives for a single epoch.
  EvalResult evaluate(std::span<const Vec3> sources,
                      std::span<const double> charges,
                      std::span<const Vec3> targets);

  /// Iterative use (the opening of the paper's section IV): the FMM is
  /// commonly evaluated many times over the same geometry with different
  /// charges, so the tree/lists/DAG setup is built once and amortized.
  /// prepare() stands up a resident EvalPipeline for the ensembles;
  /// pipeline()->evaluate(charges) then runs one epoch per call, re-arming
  /// the same LCO arena in place.
  void prepare(std::span<const Vec3> sources, std::span<const Vec3> targets);

  /// The resident pipeline behind prepare(), for epochs, epoch statistics
  /// and incremental updates (null before prepare()).
  EvalPipeline* pipeline() { return pipeline_.get(); }

  /// One cost-only epoch of the same pipeline on a SimExecutor built from
  /// `sim` and this evaluator's configuration.  The result carries no
  /// potentials; its makespan is the simulated (virtual) time.
  EvalResult simulate(std::span<const Vec3> sources,
                      std::span<const Vec3> targets, const SimConfig& sim);

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
