#pragma once

#include <cstdint>
#include <deque>

#include "runtime/executor.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm::rtcheck {

/// Minimal Executor for rtcheck scenarios: spawn() queues tasks under a
/// SyncMutex (so enqueues from model threads are themselves schedule
/// points), and drain() runs them inline on the calling thread, by the
/// runtime's run rule (a parcel through its kind's handler).  There are
/// no worker threads — the harness's model threads are the only
/// concurrency, which keeps the schedule space exactly the scenario's own.
class ModelExecutor final : public Executor {
 public:
  explicit ModelExecutor(int localities = 1);

  int num_localities() const override { return localities_; }
  int cores_per_locality() const override { return 1; }
  int current_locality() const override { return 0; }
  void spawn(Task t) override;
  void send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
            Task t) override;
  double drain() override;
  double now() const override { return 0.0; }

 private:
  int localities_;
  mutable SyncMutex mu_;
  std::deque<Task> queue_;
};

}  // namespace amtfmm::rtcheck
