#include "core/evaluator.hpp"

#include "core/pipeline.hpp"
#include "runtime/locality_runtime.hpp"
#include "runtime/net/net_executor.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"

namespace amtfmm {

Evaluator::Evaluator(std::unique_ptr<Kernel> kernel, EvalConfig cfg)
    : kernel_(std::move(kernel)), cfg_(cfg) {
  AMTFMM_ASSERT(kernel_ != nullptr);
  if (cfg_.threshold < 1 || cfg_.digits < 1) {
    throw config_error("threshold and digits must be positive");
  }
  kernel_->set_m2l_mode(cfg_.m2l_mode);
}

Evaluator::~Evaluator() = default;

EvalResult Evaluator::evaluate(std::span<const Vec3> sources,
                               std::span<const double> charges,
                               std::span<const Vec3> targets) {
  AMTFMM_ASSERT(sources.size() == charges.size());
  // One-shot: a pipeline that lives for a single epoch.
  EvalPipeline pipeline(*kernel_, cfg_, sources, targets);
  return pipeline.evaluate(charges);
}

void Evaluator::prepare(std::span<const Vec3> sources,
                        std::span<const Vec3> targets) {
  pipeline_ =
      std::make_unique<EvalPipeline>(*kernel_, cfg_, sources, targets);
}

EvalResult Evaluator::evaluate_prepared(std::span<const double> charges) {
  if (!pipeline_) {
    throw config_error("evaluate_prepared() requires a prior prepare()");
  }
  return pipeline_->evaluate(charges);
}

EvalResult Evaluator::evaluate_distributed(net::NetExecutor& ex,
                                           std::span<const Vec3> sources,
                                           std::span<const double> charges,
                                           std::span<const Vec3> targets) {
  AMTFMM_ASSERT(sources.size() == charges.size());
  // One epoch on a borrowed mesh.  The pipeline's baseline snapshots make
  // the per-rank transport identity hold even when the same connections
  // already carried a previous evaluation.
  EvalPipeline pipeline(*kernel_, cfg_, sources, targets, ex);
  return pipeline.evaluate(charges);
}

SimResult Evaluator::simulate(std::span<const Vec3> sources,
                              std::span<const Vec3> targets,
                              const SimConfig& sim) {
  SimResult out;
  const PreparedModel p =
      build_model(*kernel_, cfg_, sources, targets, sim.localities);
  out.dag = p.dag.stats();
  out.total_cores = sim.localities * sim.cores_per_locality;

  SimExecutor ex(sim.localities, sim.cores_per_locality, sim.policy,
                 sim.network, sim.seed, sim.coalesce);
  ex.trace().set_enabled(sim.trace);
  ex.counters().set_enabled(sim.counters);
  EngineOptions opt;
  opt.mode = EngineMode::kCostOnly;
  opt.cost = sim.cost;
  opt.split_priority = sim.split_priority;
  DagEngine engine(p.dag, p.tree, *kernel_, ex, opt);
  out.virtual_time = engine.execute({}, {});
  out.bytes_sent = ex.bytes_sent();
  out.parcels_sent = ex.parcels_sent();
  out.wire_bytes = engine.wire_bytes();
  AMTFMM_ASSERT(out.wire_bytes == out.bytes_sent);
  out.comm = ex.comm_stats();
  if (sim.trace) {
    out.trace = ex.trace().collect();
    out.comm_trace = ex.trace().collect_comm();
    out.instants = ex.trace().collect_instants();
    out.dag_edges = flatten_dag_edges(p.dag);
  }
  if (sim.counters) out.counters = ex.counters().snapshot();
  return out;
}

std::vector<double> direct_sum(const Kernel& kernel,
                               std::span<const Vec3> sources,
                               std::span<const double> charges,
                               std::span<const Vec3> targets) {
  std::vector<double> phi(targets.size(), 0.0);
  for (std::size_t t = 0; t < targets.size(); ++t) {
    double acc = 0.0;
    for (std::size_t s = 0; s < sources.size(); ++s) {
      acc += charges[s] * kernel.direct(targets[t], sources[s]);
    }
    phi[t] = acc;
  }
  return phi;
}

}  // namespace amtfmm
