#include "core/evaluator.hpp"

#include "core/pipeline.hpp"
#include "support/error.hpp"

namespace amtfmm {

void validate_config(const EvalConfig& cfg) {
  if (cfg.threshold < 1 || cfg.digits < 1) {
    throw config_error("threshold and digits must be positive");
  }
}

Evaluator::Evaluator(std::unique_ptr<Kernel> kernel, EvalConfig cfg)
    : kernel_(std::move(kernel)), cfg_(cfg) {
  AMTFMM_ASSERT(kernel_ != nullptr);
  validate_config(cfg_);
}

Evaluator::~Evaluator() = default;

EvalResult Evaluator::evaluate(std::span<const Vec3> sources,
                               std::span<const double> charges,
                               std::span<const Vec3> targets) {
  AMTFMM_ASSERT(sources.size() == charges.size());
  return EvalPipeline(*kernel_, cfg_, sources, targets).evaluate(charges);
}

void Evaluator::prepare(std::span<const Vec3> sources,
                        std::span<const Vec3> targets) {
  pipeline_ =
      std::make_unique<EvalPipeline>(*kernel_, cfg_, sources, targets);
}

EvalResult Evaluator::simulate(std::span<const Vec3> sources,
                               std::span<const Vec3> targets,
                               const SimConfig& sim) {
  SimExecutor ex(sim.localities, sim.cores_per_locality, sim.policy,
                 sim.network, cfg_.seed, cfg_.coalesce);
  return EvalPipeline(*kernel_, cfg_, sources, targets, ex, sim.cost)
      .evaluate({});
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
