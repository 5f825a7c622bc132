#include "runtime/locality_runtime.hpp"

#include <chrono>

#include "runtime/executor.hpp"

namespace amtfmm {

void LocalityRuntime::set_handler(std::uint8_t kind, Executor::NetHandler h) {
  AMTFMM_ASSERT_MSG(kind != 0, "parcel kind 0 marks local work");
  {
    SyncLockGuard lk(handlers_mu_);
    handlers_[kind] = std::move(h);
  }
  handlers_cv_.notify_all();
}

void LocalityRuntime::run(const Task& t) {
  if (t.net_kind == 0) {
    if (t.fn) t.fn();
    return;
  }
  AMTFMM_ASSERT_MSG(t.net_payload != nullptr, "parcel without a payload");
  Executor::NetHandler h;
  {
    SyncUniqueLock lk(handlers_mu_);
    if (late_handlers_ && !handlers_[t.net_kind]) {
      // A parcel can arrive between transport start and the engine
      // registering its handlers; block briefly rather than drop.  Sixty
      // seconds of no registration is a programming error, not latency.
      // Deadline loop instead of wait_for(pred): see sync_hook.hpp.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (!handlers_[t.net_kind]) {
        if (handlers_cv_.wait_until(lk, deadline) == std::cv_status::timeout) {
          break;
        }
      }
    }
    h = handlers_[t.net_kind];  // copy: the call runs outside the lock
  }
  AMTFMM_ASSERT_MSG(bool(h), "no handler registered for the parcel's kind");
  h(*t.net_payload);
}

// Executor's runtime accessors live here because executor.hpp only
// forward-declares LocalityRuntime (the runtime includes executor.hpp for
// Task/CoalesceConfig, so the header dependency must point this way).

Executor::~Executor() = default;

void Executor::register_net_handler(std::uint8_t kind, NetHandler h) {
  rt_->set_handler(kind, std::move(h));
}
void Executor::unregister_net_handler(std::uint8_t kind) {
  rt_->set_handler(kind, nullptr);
}

TraceSink& Executor::trace() { return rt_->trace(); }
const TraceSink& Executor::trace() const { return rt_->trace(); }

CounterRegistry& Executor::counters() { return rt_->counters(); }
const CounterRegistry& Executor::counters() const { return rt_->counters(); }

std::uint64_t Executor::bytes_sent() const { return rt_->bytes(); }
std::uint64_t Executor::parcels_sent() const { return rt_->parcels(); }
CommStats Executor::comm_stats() const { return rt_->comm_stats(); }

LocalityRuntime& Executor::runtime() { return *rt_; }

}  // namespace amtfmm
