#include "rtcheck/model_executor.hpp"

#include <memory>
#include <mutex>
#include <utility>

#include "runtime/locality_runtime.hpp"

namespace amtfmm::rtcheck {

ModelExecutor::ModelExecutor(int localities) : localities_(localities) {
  rt_ = std::make_unique<LocalityRuntime>(localities, /*total_workers=*/1,
                                          CoalesceConfig{});
}

void ModelExecutor::spawn(Task t) {
  std::lock_guard lk(mu_);
  queue_.push_back(std::move(t));
}

void ModelExecutor::send(std::uint32_t from, std::uint32_t to,
                         std::size_t bytes, Task t) {
  t.locality = to;
  if (from == to) {
    spawn(std::move(t));
    return;
  }
  // Coalescing is off: the parcel comes straight back as a one-parcel
  // message, delivered without modelled transport.
  auto out = rt_->submit(from, to, bytes, std::move(t), now());
  rt_->account_batch(*out.batch, now(), now());
  for (Task& bt : out.batch->tasks) spawn(std::move(bt));
}

double ModelExecutor::drain() {
  for (;;) {
    Task t;
    {
      std::lock_guard lk(mu_);
      if (queue_.empty()) return 0.0;
      t = std::move(queue_.front());
      queue_.pop_front();
    }
    rt_->run(t);
  }
}

}  // namespace amtfmm::rtcheck
