#include "runtime/lco_arena.hpp"

#include "runtime/locality_runtime.hpp"

namespace amtfmm {

LcoArena::LcoArena(Executor& ex, std::size_t nodes)
    : ex_(ex),
      n_(nodes),
      count_(std::make_unique<std::atomic<int>[]>(nodes)),
      first_t_(std::make_unique<double[]>(nodes)) {
  for (std::size_t i = 0; i < n_; ++i) first_t_[i] = -1.0;
}

void LcoArena::rearm(std::span<const std::uint32_t> in_degree) {
  AMTFMM_ASSERT(in_degree.size() == n_);
  for (std::size_t i = 0; i < n_; ++i) {
    // The epoch boundary is a synchronization point: announce it so
    // rtcheck orders the re-arm after the previous fire and resets its
    // trigger-once detector for this node.
    sync_event(SyncKind::kLcoRearm, &count_[i], in_degree[i]);
    const auto deg = static_cast<int>(in_degree[i]);
    // relaxed-ok: quiescent by contract; the executor's spawn (or the
    // socket ranks' startup barrier) publishes the re-armed state.
    hooked_store(count_[i], deg, std::memory_order_relaxed);
    first_t_[i] = -1.0;
  }
}

void LcoArena::fired(std::uint32_t i, double first_t) {
  // Trigger-once protocol event: rtcheck reports a second fire of the same
  // node (before a rearm) as a double-fire violation.
  sync_event(SyncKind::kLcoFire, &count_[i]);
  if (!ex_.counters().enabled() && !ex_.trace().enabled()) return;
  const double tn = ex_.now();
  if (first_t >= 0.0) {
    ex_.counters().observe(LocalityRuntime::metric_worker(),
                           ex_.runtime().ids().lco_input_wait_us,
                           static_cast<std::uint64_t>((tn - first_t) * 1e6));
  }
  if (ex_.trace().enabled()) {
    ex_.trace().record_instant(LocalityRuntime::trace_worker(),
                               InstantKind::kLcoFire, tn);
  }
}

}  // namespace amtfmm
