#pragma once

#include <deque>
#include <queue>

#include "runtime/executor.hpp"
#include "runtime/locality_runtime.hpp"
#include "support/rng.hpp"

namespace amtfmm {

/// Interconnect model for the simulated cluster: per-locality NIC occupancy
/// plus a per-message latency (an alpha-beta model of the paper's Cray
/// Gemini torus).  Each wire message — a parcel, or a coalesced batch of
/// parcels — occupies the destination locality's NIC for
/// `latency + bytes / bandwidth` seconds and is delivered when the
/// occupancy ends, so successive messages to one locality serialize and
/// the per-message alpha is what coalescing amortizes (the Gemini
/// small-message regime the paper depends on).  Defaults approximate
/// Gemini: ~1.5 us latency, ~6 GB/s per-NIC injection bandwidth.
struct NetworkModel {
  double latency = 1.5e-6;          // seconds per message (alpha)
  double bandwidth = 6.0e9;         // bytes per second per locality NIC
  double task_overhead = 0.25e-6;   // scheduler cost to start a task
};

/// Pool order of a simulated locality:
///  - kWorkStealing: the aggregate behaviour of per-core deques plus local
///    randomized stealing (HPX-5's configuration in the evaluation),
///  - kFifo: oldest-first (baseline).
/// Task::high_priority work runs first under either order.
enum class SchedPolicy { kWorkStealing, kFifo };

/// Discrete-event simulation of the runtime: L localities x C cores on a
/// virtual clock.  This executes the *actual* DAG — every LCO trigger and
/// every parcel handler really runs (with its structural side effects);
/// only the time each one takes is modelled, via the per-task CostItem
/// breakdowns supplied by the caller and calibrated from measured operator
/// times (see core/cost_model.hpp).  This is the substitution for the
/// paper's 4096-core Big Red II runs — see DESIGN.md.
///
/// Scheduling per locality: a two-level pool, Task::high_priority first
/// (the section VI proposal; the engine marks tasks high only under
/// split_priority), each level drained in SchedPolicy order —
///  - kWorkStealing: uniformly random order (the aggregate behaviour of
///    per-core deques + random stealing),
///  - kFifo: oldest-first.
///
/// Parcel coalescing (CoalesceConfig.enabled): remote sends buffer per
/// (src, dst) pair; a batch transmits on threshold, on a flush-deadline
/// timer event armed when a buffer first fills, or when the event loop
/// finds no live work (quiescence).  A batch costs one alpha plus the
/// summed beta * bytes on the destination NIC, so the model rewards
/// coalescing exactly as the paper's interconnect did.  Per-(src,dst)
/// delivery order stays FIFO (NIC occupancy is monotone per destination).
///
/// The simulation is deterministic for a fixed seed.
class SimExecutor final : public Executor {
 public:
  /// Throws config_error for zero localities or cores.
  SimExecutor(int num_localities, int cores_per_locality,
              SchedPolicy policy = SchedPolicy::kWorkStealing,
              NetworkModel net = {}, std::uint64_t seed = 1,
              CoalesceConfig coalesce = {});

  int num_localities() const override { return num_localities_; }
  int cores_per_locality() const override { return cores_; }
  int current_locality() const override { return current_loc_; }

  void spawn(Task t) override;
  bool single_threaded() const override { return true; }
  void send(std::uint32_t from, std::uint32_t to, std::size_t bytes,
            Task t) override;
  double drain() override;
  double now() const override { return now_; }

 private:
  struct Event {
    double time;
    std::uint64_t seq;
    /// Live events are task completions and batch arrivals; timer events
    /// (deadline flushes) do not advance the clock unless they fire and do
    /// not keep quiescence detection from flushing buffers.
    bool live;
    std::function<void()> fn;
    bool operator>(const Event& o) const {
      return time > o.time || (time == o.time && seq > o.seq);
    }
  };
  struct LocalityState {
    std::deque<Task> high;
    std::deque<Task> low;
    int busy_cores = 0;
    double nic_free = 0.0;
    Rng rng{0};
  };

  void post(double time, std::function<void()> fn, bool live = true);
  void try_dispatch(std::uint32_t loc);
  void run_task(std::uint32_t loc, Task t);
  /// Puts one wire message on the destination NIC and schedules delivery.
  void transmit(ParcelBatch b);

  int num_localities_;
  int cores_;
  SchedPolicy policy_;
  NetworkModel net_;
  std::vector<LocalityState> locs_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  double now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t live_events_ = 0;
  /// Locality of the task body currently running inside the event loop, or
  /// -1 between tasks; backs current_locality() for the engine's debug
  /// ownership checks.
  int current_loc_ = -1;
};

}  // namespace amtfmm
