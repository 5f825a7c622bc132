#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/evaluator.hpp"

namespace amtfmm {

/// The setup artifacts of one geometry: dual tree and the explicit DAG.
/// Deterministic from the inputs and the configuration alone (the SPMD
/// agreement distributed ranks rely on).  The interaction lists are a
/// temporary of the DAG build: nothing reads them afterwards.
struct PreparedModel {
  DualTree tree;
  Dag dag;
  /// dag.stats(), filled on first use and cleared whenever the DAG's
  /// annotations change (build_model leaves it empty).
  std::optional<DagStats> dag_stats;
};

/// Builds the model for one geometry: tree, kernel tables, lists, DAG.
PreparedModel build_model(Kernel& kernel, const EvalConfig& cfg,
                          std::span<const Vec3> sources,
                          std::span<const Vec3> targets, int localities);

/// One independent target-query set of a batched evaluation: indices into
/// the pipeline's target ensemble (original caller order).
struct EvalRequest {
  std::vector<std::uint32_t> targets;
};

/// A batched evaluation: the combined single-traversal result plus the
/// per-request demux (request r's potentials in its own index order).
struct BatchEvalResult {
  EvalResult combined;
  std::vector<std::vector<double>> per_request;
};

/// One incremental geometry update: point relocations, removals (sorted
/// unique original indices, vector-erase renumbering), and insertions
/// (appended after the survivors).
struct PipelineUpdate {
  std::vector<PointMove> moves;
  std::vector<std::uint32_t> erased;
  std::vector<Vec3> inserted;
};

/// What an update did: patched in place (dirty leaves re-sorted, DAG
/// metrics refreshed, LCO arena kept) or fell back to a full rebuild.
struct PipelineUpdateStats {
  bool rebuilt = false;
  std::size_t dirty_leaves = 0;
};

/// The one evaluation path: every epoch — real or simulated, in process or
/// on a socket rank — runs here and fills its EvalResult here.  Evaluator
/// is a facade over it.  The pipeline is resident: where a one-shot
/// evaluation builds the tree, sets up the LCO arena, evaluates and
/// tears everything down, the pipeline keeps every layer alive across
/// epochs:
///
///  - the executor (worker pool, socket mesh or simulator) stays up;
///    per-epoch transport statistics are deltas against the executor's
///    counters at the start of the epoch, so the wire_bytes == bytes_sent
///    identity holds per epoch on a shared executor, also when the caller
///    sends its own parcels between epochs,
///  - the DagEngine is resident: epoch 1 instantiates the LCO arena, every
///    later epoch re-arms it in place and replays the leaf seeds — no node
///    is instantiated in steady state,
///  - geometry changes go through update_sources/update_targets, which
///    re-sort only the dirty leaves and refresh the count-dependent DAG
///    annotations; a structure change falls back to a full rebuild,
///  - independent target-query sets ride one traversal via evaluate_batch
///    with per-request demux.
///
/// With a NetExecutor every rank runs the identical pipeline (SPMD): same
/// updates, same epochs, in the same order.
///
/// Construction validates `cfg` (validate_config; the kernel's setup
/// rejects digits beyond its range) and applies cfg.m2l_mode to the kernel,
/// both before the tree or the kernel tables are built.
class EvalPipeline {
 public:
  /// Resident in-process pipeline owning a ThreadExecutor configured from
  /// `cfg` (localities, cores, seed, coalescing).
  EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
               std::span<const Vec3> sources, std::span<const Vec3> targets);
  /// Resident pipeline over a borrowed executor, which keeps its own world,
  /// pool, seed and coalescing (EvalConfig::localities,
  /// cores_per_locality, seed and coalesce are not read).
  ///
  ///  - Without a cost model the epochs compute.  On a socket executor
  ///    every rank builds the identical pipeline from identical inputs (the
  ///    tree/lists/DAG are deterministic, so all ranks agree on placement
  ///    without communicating), and the potentials are this rank's PARTIAL
  ///    result: entries for target boxes homed on other ranks are zero, so
  ///    the global answer is the element-wise sum across ranks.  Transport
  ///    statistics cover only this rank's sends.
  ///  - With a cost model the epochs are cost-only (a SimExecutor's
  ///    simulated run): evaluate() takes empty charges and returns empty
  ///    potentials, and the makespan is virtual time.
  EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
               std::span<const Vec3> sources, std::span<const Vec3> targets,
               Executor& ex, std::optional<CostModel> cost = {});
  ~EvalPipeline();

  EvalPipeline(const EvalPipeline&) = delete;
  EvalPipeline& operator=(const EvalPipeline&) = delete;

  /// One epoch: evaluates the resident DAG for `charges` (original order,
  /// one per source; empty in cost-only mode).  Trace buffers accumulate
  /// across epochs when tracing is on (export once with epoch metadata);
  /// all transport statistics in the result are this epoch's deltas, and
  /// wire_bytes == bytes_sent is asserted on every executor.
  EvalResult evaluate(std::span<const double> charges);

  /// One epoch carrying many independent target-query sets: a single
  /// traversal computes all potentials, then each request's slice is
  /// demuxed out in its own index order.
  BatchEvalResult evaluate_batch(std::span<const double> charges,
                                 std::span<const EvalRequest> requests);

  /// Applies a geometry update to the source/target ensemble.  Prefers the
  /// structure-preserving incremental path (dirty-leaf re-sort + DAG
  /// metric refresh, LCO arena untouched); rebuilds everything when the
  /// tree structure would change.  Source indices in later `charges` spans
  /// follow the update's vector-erase-then-append renumbering.  Throws
  /// config_error, leaving the pipeline unchanged, for a non-finite moved
  /// or inserted coordinate.
  PipelineUpdateStats update_sources(const PipelineUpdate& u);
  PipelineUpdateStats update_targets(const PipelineUpdate& u);

  std::size_t num_sources() const { return src_pts_.size(); }
  std::size_t num_targets() const { return tgt_pts_.size(); }
  const PreparedModel& model() const { return model_; }
  Executor& executor() { return *ex_; }

  /// Completed epochs on the current resident engine (resets on rebuild).
  std::uint64_t epochs() const;
  /// Tree + lists + DAG construction seconds (last build or rebuild).
  double setup_seconds() const { return setup_seconds_; }
  /// Seconds spent re-arming the resident arena before the last epoch.
  double last_reset_seconds() const;
  /// Nodes instantiated during the last epoch: the DAG's node count on a
  /// fresh engine's first epoch, 0 in steady state.
  std::uint64_t gas_allocs_last_epoch() const;
  /// DAG nodes placed on one locality (0 before the first epoch).
  std::size_t gas_objects_on(std::uint32_t locality) const;
  /// Full rebuilds forced by structure-changing updates.
  std::uint64_t rebuilds() const { return rebuilds_; }
  /// Executor-clock start time of each epoch (for multi-epoch trace
  /// exports: ChromeTraceOptions::epochs).
  const std::vector<double>& epoch_start_times() const {
    return epoch_starts_;
  }

 private:
  void build(std::span<const Vec3> sources, std::span<const Vec3> targets);
  void rebuild();
  PipelineUpdateStats apply_update(bool source_side, const PipelineUpdate& u);

  /// The owning constructor's body: runs on `owned` and keeps it.
  EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
               std::span<const Vec3> sources, std::span<const Vec3> targets,
               std::unique_ptr<ThreadExecutor> owned);

  Kernel& kernel_;
  EvalConfig cfg_;
  std::optional<CostModel> cost_;  ///< set: cost-only (simulated) epochs
  std::vector<Vec3> src_pts_;  ///< original caller order
  std::vector<Vec3> tgt_pts_;
  PreparedModel model_;
  std::unique_ptr<ThreadExecutor> owned_ex_;
  Executor* ex_ = nullptr;
  std::unique_ptr<DagEngine> engine_;
  std::vector<double> sorted_q_;  ///< reused per-epoch staging
  std::vector<double> sorted_phi_;
  double setup_seconds_ = 0.0;
  std::uint64_t rebuilds_ = 0;
  std::vector<double> epoch_starts_;
};

}  // namespace amtfmm
