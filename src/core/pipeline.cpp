#include "core/pipeline.hpp"

#include <algorithm>

#include "runtime/locality_runtime.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace amtfmm {
namespace {

/// Per-epoch transport statistics on a resident executor: the executor's
/// counters are cumulative across drains, so each epoch reports the
/// element-wise difference against the snapshot taken after the previous
/// epoch.
CommStats diff_comm(CommStats now, const CommStats& base) {
  now.parcels -= base.parcels;
  now.batches -= base.batches;
  now.bytes -= base.bytes;
  now.flush_threshold -= base.flush_threshold;
  now.flush_deadline -= base.flush_deadline;
  now.flush_quiescence -= base.flush_quiescence;
  for (std::size_t i = 0; i < base.parcels_to.size(); ++i) {
    now.parcels_to[i] -= base.parcels_to[i];
    now.batches_to[i] -= base.batches_to[i];
    now.bytes_to[i] -= base.bytes_to[i];
  }
  for (std::size_t i = 0; i < base.batch_size_log2.size(); ++i) {
    now.batch_size_log2[i] -= base.batch_size_log2[i];
  }
  return now;
}

}  // namespace

PreparedModel build_model(Kernel& kernel, const EvalConfig& cfg,
                          std::span<const Vec3> sources,
                          std::span<const Vec3> targets, int localities) {
  PreparedModel p{build_dual_tree(sources, targets, cfg.threshold, localities),
                  {},
                  {}};
  kernel.setup(p.tree.source.domain().size,
               std::max(p.tree.source.max_level(),
                        p.tree.target.max_level()) + 1,
               cfg.digits);
  DagBuildConfig dcfg;
  dcfg.method = cfg.method;
  dcfg.placement = cfg.placement;
  dcfg.bh_theta = cfg.bh_theta;
  // The lists live only as long as the DAG build that reads them.
  p.dag = build_dag(p.tree, build_lists(p.tree), kernel, dcfg, localities);
  return p;
}

EvalPipeline::EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
                           std::span<const Vec3> sources,
                           std::span<const Vec3> targets)
    : EvalPipeline(kernel, cfg, sources, targets,
                   std::make_unique<ThreadExecutor>(
                       cfg.localities, cfg.cores_per_locality, cfg.seed,
                       cfg.coalesce)) {}

EvalPipeline::EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
                           std::span<const Vec3> sources,
                           std::span<const Vec3> targets,
                           std::unique_ptr<ThreadExecutor> owned)
    : EvalPipeline(kernel, cfg, sources, targets, *owned) {
  owned_ex_ = std::move(owned);
}

EvalPipeline::EvalPipeline(Kernel& kernel, const EvalConfig& cfg,
                           std::span<const Vec3> sources,
                           std::span<const Vec3> targets, Executor& ex,
                           std::optional<CostModel> cost)
    : kernel_(kernel),
      cfg_(cfg),
      cost_(std::move(cost)),
      src_pts_(sources.begin(), sources.end()),
      tgt_pts_(targets.begin(), targets.end()),
      ex_(&ex) {
  ex_->trace().set_enabled(cfg_.trace);
  ex_->counters().set_enabled(cfg_.counters);
  build(src_pts_, tgt_pts_);
}

EvalPipeline::~EvalPipeline() = default;

void EvalPipeline::build(std::span<const Vec3> sources,
                         std::span<const Vec3> targets) {
  validate_config(cfg_);
  kernel_.set_m2l_mode(cfg_.m2l_mode);
  Timer setup;
  model_ = build_model(kernel_, cfg_, sources, targets,
                       ex_->num_localities());
  setup_seconds_ = setup.seconds();
  engine_ = std::make_unique<DagEngine>(
      model_.dag, model_.tree, kernel_, *ex_,
      EngineOptions{cost_, cfg_.split_priority});
}

void EvalPipeline::rebuild() {
  // The old engine references model_'s tree/DAG; drop both before the new
  // ones are built, so the old model is not resident beside the new lists
  // and DAG.  The next evaluate() instantiates a fresh arena.
  engine_.reset();
  model_ = PreparedModel{};
  build(src_pts_, tgt_pts_);
  ++rebuilds_;
}

EvalResult EvalPipeline::evaluate(std::span<const double> charges) {
  // A cost-only epoch takes no charges and produces no potentials.
  AMTFMM_ASSERT(charges.size() ==
                (cost_ ? 0 : model_.tree.source.num_points()));
  // The executor's transport counters are cumulative and may move between
  // epochs (a parcel sent on a shared executor), so the epoch's deltas are
  // taken against a baseline read here.
  const std::uint64_t bytes_base = ex_->bytes_sent();
  const std::uint64_t parcels_base = ex_->parcels_sent();
  const CommStats comm_base = ex_->comm_stats();
  EvalResult out;
  // The DAG changes only in build, rebuild and incremental refresh; each
  // clears the cached stats, so an epoch recomputes them only after one.
  if (!model_.dag_stats) model_.dag_stats = model_.dag.stats();
  out.dag = *model_.dag_stats;
  out.setup_time = setup_seconds_;

  // Charges into tree order; the staging vectors are resident and only
  // grow (no steady-state allocation once sized).
  const auto& sperm = model_.tree.source.original_index();
  sorted_q_.resize(charges.size());
  for (std::size_t i = 0; i < charges.size(); ++i) {
    sorted_q_[i] = charges[sperm[i]];
  }
  sorted_phi_.assign(cost_ ? 0 : model_.tree.target.num_points(), 0.0);

  epoch_starts_.push_back(ex_->now());
  out.makespan = engine_->execute(sorted_q_, sorted_phi_);

  const auto& tperm = model_.tree.target.original_index();
  out.potentials.assign(sorted_phi_.size(), 0.0);
  for (std::size_t i = 0; i < sorted_phi_.size(); ++i) {
    out.potentials[tperm[i]] = sorted_phi_[i];
  }

  out.bytes_sent = ex_->bytes_sent() - bytes_base;
  out.parcels_sent = ex_->parcels_sent() - parcels_base;
  out.wire_bytes = engine_->wire_bytes();
  // Per-epoch form of the transport identity: this epoch serialized
  // exactly the bytes it handed to the transport.
  AMTFMM_ASSERT(out.wire_bytes == out.bytes_sent);
  out.comm = diff_comm(ex_->comm_stats(), comm_base);

  if (cfg_.trace) {
    // Trace buffers accumulate across epochs; exports carry the epoch
    // start times so the analyzer can cut per-epoch critical paths.
    out.trace = ex_->trace().collect();
    out.comm_trace = ex_->trace().collect_comm();
    out.instants = ex_->trace().collect_instants();
    out.dag_edges = flatten_dag_edges(model_.dag);
  }
  if (cfg_.counters) out.counters = ex_->counters().snapshot();
  return out;
}

BatchEvalResult EvalPipeline::evaluate_batch(
    std::span<const double> charges, std::span<const EvalRequest> requests) {
  auto& ctr = ex_->counters();
  if (ctr.enabled()) {
    ctr.gauge_max(0, ex_->runtime().ids().serve_batch_size_hw,
                  requests.size());
  }
  BatchEvalResult out;
  out.combined = evaluate(charges);
  out.per_request.reserve(requests.size());
  for (const EvalRequest& r : requests) {
    std::vector<double> phi(r.targets.size());
    for (std::size_t i = 0; i < r.targets.size(); ++i) {
      AMTFMM_ASSERT(r.targets[i] < out.combined.potentials.size());
      phi[i] = out.combined.potentials[r.targets[i]];
    }
    out.per_request.push_back(std::move(phi));
  }
  return out;
}

PipelineUpdateStats EvalPipeline::apply_update(bool source_side,
                                               const PipelineUpdate& u) {
  // Reject bad coordinates before any state changes: a non-finite move
  // would fail Tree::update's domain test and force a rebuild, which
  // drops the engine before build_dual_tree throws.
  for (const PointMove& m : u.moves) require_finite({&m.position, 1}, "moved");
  require_finite(u.inserted, "inserted");
  auto& pts = source_side ? src_pts_ : tgt_pts_;
  // Patch the original-order ensemble with the same vector-erase-then-
  // append renumbering Tree::update documents.
  for (const PointMove& m : u.moves) {
    AMTFMM_ASSERT(m.index < pts.size());
    pts[m.index] = m.position;
  }
  for (std::size_t i = u.erased.size(); i-- > 0;) {
    AMTFMM_ASSERT(u.erased[i] < pts.size());
    pts.erase(pts.begin() + u.erased[i]);
  }
  pts.insert(pts.end(), u.inserted.begin(), u.inserted.end());

  Tree& tree = source_side ? model_.tree.source : model_.tree.target;
  PipelineUpdateStats st;
  const auto r = tree.update(u.moves, u.erased, u.inserted);
  if (!r) {
    rebuild();
    st.rebuilt = true;
    return st;
  }
  st.dirty_leaves = r->dirty_leaves;
  // Structure preserved: the DAG topology and the resident LCO arena are
  // reused; only the count-dependent annotations change, and only when
  // some box's count did (a move inside its own leaf leaves them current).
  if (r->counts_changed) {
    refresh_dag_metrics(model_.dag, model_.tree);
    model_.dag_stats.reset();
  }
  auto& ctr = ex_->counters();
  if (ctr.enabled() && r->dirty_leaves > 0) {
    ctr.add(0, ex_->runtime().ids().serve_dirty_leaves, r->dirty_leaves);
  }
  return st;
}

PipelineUpdateStats EvalPipeline::update_sources(const PipelineUpdate& u) {
  return apply_update(true, u);
}

PipelineUpdateStats EvalPipeline::update_targets(const PipelineUpdate& u) {
  return apply_update(false, u);
}

std::uint64_t EvalPipeline::epochs() const {
  return engine_ ? engine_->epochs() : 0;
}

double EvalPipeline::last_reset_seconds() const {
  return engine_ ? engine_->last_reset_seconds() : 0.0;
}

std::uint64_t EvalPipeline::gas_allocs_last_epoch() const {
  return engine_ ? engine_->gas_allocs_last_epoch() : 0;
}

std::size_t EvalPipeline::gas_objects_on(std::uint32_t locality) const {
  return engine_ ? engine_->objects_on(locality) : 0;
}

}  // namespace amtfmm
