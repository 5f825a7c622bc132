#include "runtime/sim_executor.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "support/error.hpp"

namespace amtfmm {

SimExecutor::SimExecutor(int num_localities, int cores_per_locality,
                         SchedPolicy policy, NetworkModel net,
                         std::uint64_t seed, CoalesceConfig coalesce)
    : num_localities_(checked_localities(num_localities, cores_per_locality)),
      cores_(cores_per_locality),
      policy_(policy),
      net_(net),
      locs_(static_cast<std::size_t>(num_localities)) {
  rt_ = std::make_unique<LocalityRuntime>(num_localities, total_workers(),
                                          coalesce);
  std::uint64_t sm = seed;
  for (auto& l : locs_) l.rng = Rng(splitmix64(sm));
}

void SimExecutor::post(double time, std::function<void()> fn, bool live) {
  if (live) ++live_events_;
  events_.push(Event{time, seq_++, live, std::move(fn)});
}

void SimExecutor::spawn(Task t) {
  AMTFMM_ASSERT(t.locality < static_cast<std::uint32_t>(num_localities_));
  const std::uint32_t loc = t.locality;
  auto& ls = locs_[loc];
  (t.high_priority ? ls.high : ls.low).push_back(std::move(t));
  try_dispatch(loc);
}

void SimExecutor::send(std::uint32_t from, std::uint32_t to,
                       std::size_t bytes, Task t) {
  t.locality = to;
  if (from == to) {
    spawn(std::move(t));
    return;
  }
  auto out = rt_->submit(from, to, bytes, std::move(t), now_);
  if (out.batch) {
    transmit(std::move(*out.batch));
  } else if (out.first) {
    // Arm a deadline flush for this fill of the buffer.  The timer is a
    // non-live event: if the buffer already flushed (epoch moved on), the
    // timer is stale and must neither flush nor advance the clock.
    const double tfire = now_ + rt_->coalesce_config().flush_deadline;
    post(
        tfire,
        [this, from, to, epoch = out.epoch, tfire] {
          if (auto b = rt_->take_if_epoch(from, to, epoch)) {
            now_ = std::max(now_, tfire);
            transmit(std::move(*b));
          }
        },
        /*live=*/false);
  }
}

void SimExecutor::transmit(ParcelBatch b) {
  // One wire message occupies the destination NIC for alpha + beta * bytes
  // and is delivered when the occupancy ends.
  auto& dst = locs_[b.dst];
  const double start = std::max(dst.nic_free, now_);
  dst.nic_free =
      start + net_.latency + static_cast<double>(b.bytes) / net_.bandwidth;
  const double arrival = dst.nic_free;
  rt_->account_batch(b, start, arrival);
  if (b.coalesced) {
    rt_->note_batch_consumed(static_cast<std::int64_t>(b.tasks.size()));
  }
  auto batch = std::make_shared<ParcelBatch>(std::move(b));
  post(arrival, [this, batch] {
    for (Task& t : batch->tasks) spawn(std::move(t));
  });
}

void SimExecutor::try_dispatch(std::uint32_t loc) {
  auto& ls = locs_[loc];
  while (ls.busy_cores < cores_ && (!ls.high.empty() || !ls.low.empty())) {
    Task t;
    if (!ls.high.empty()) {
      // Priority class drains oldest-first.
      t = std::move(ls.high.front());
      ls.high.pop_front();
    } else if (policy_ == SchedPolicy::kFifo) {
      t = std::move(ls.low.front());
      ls.low.pop_front();
    } else {
      // Randomized work stealing in aggregate: with many per-core deques
      // and random steal victims, the pool is serviced in near-uniform
      // random order — which is exactly why the paper observes critical
      // upward-pass tasks being scheduled "up to 83% through the
      // execution": the scheduler is oblivious to the critical path.
      const std::size_t idx = ls.rng.below(ls.low.size());
      std::swap(ls.low[idx], ls.low.back());
      t = std::move(ls.low.back());
      ls.low.pop_back();
    }
    ls.busy_cores++;
    run_task(loc, std::move(t));
  }
}

void SimExecutor::run_task(std::uint32_t loc, Task t) {
  const double start = now_ + net_.task_overhead;
  double finish = start;
  if (rt_->trace().enabled()) {
    const int core = locs_[loc].busy_cores - 1;  // stable enough for traces
    const std::uint32_t worker =
        loc * static_cast<std::uint32_t>(cores_) +
        static_cast<std::uint32_t>(std::min(core, cores_ - 1));
    for (const CostItem& it : t.items) {
      rt_->trace().record(worker, it.cls, finish, finish + it.cost, it.arg);
      finish += it.cost;
    }
  } else {
    for (const CostItem& it : t.items) finish += it.cost;
  }
  rt_->counters().add(0, rt_->ids().tasks_run);
  t.items = {};  // charged; the task body runs at `finish`
  post(finish, [this, loc, t = std::move(t)]() {
    current_loc_ = static_cast<int>(loc);
    rt_->run(t);
    current_loc_ = -1;
    auto& ls = locs_[loc];
    ls.busy_cores--;
    try_dispatch(loc);
  });
}

double SimExecutor::drain() {
  const double t0 = now_;
  for (;;) {
    // Quiescence: no live work left, only (possibly stale) deadline timers
    // — flush everything still buffered before giving up.
    if (live_events_ == 0 && rt_->pending()) {
      for (auto& b : rt_->take_all()) transmit(std::move(b));
      continue;
    }
    if (events_.empty()) break;
    // Pull the event without holding a reference across fn() — handlers
    // push new events and would invalidate it.
    Event e = std::move(const_cast<Event&>(events_.top()));
    events_.pop();
    if (e.live) {
      --live_events_;
      AMTFMM_ASSERT(e.time >= now_ - 1e-12);
      now_ = std::max(now_, e.time);
    }
    e.fn();
  }
  return now_ - t0;
}

}  // namespace amtfmm
