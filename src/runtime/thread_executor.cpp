#include "runtime/thread_executor.hpp"

#include <string>

#include "support/error.hpp"

namespace amtfmm {
namespace {

thread_local int tls_worker = -1;

constexpr int kSpinRounds = 64;   // busy re-check before yielding
constexpr int kYieldRounds = 16;  // yields before parking on the cv

/// checked_localities, plus a hosted range [first, first + hosted) inside
/// the world.
int checked_world(int num_localities, int cores_per_locality,
                  std::uint32_t first, int hosted) {
  checked_localities(num_localities, cores_per_locality);
  if (hosted < 1 || first >= static_cast<std::uint32_t>(num_localities) ||
      static_cast<std::uint32_t>(hosted) >
          static_cast<std::uint32_t>(num_localities) - first) {
    throw config_error("hosted localities [" + std::to_string(first) + ", " +
                       std::to_string(first) + "+" + std::to_string(hosted) +
                       ") outside a world of " +
                       std::to_string(num_localities));
  }
  return num_localities;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

}  // namespace

int current_worker() { return tls_worker; }

void ScopedTrace::record() {
  const int w = current_worker();
  if (w < 0) return;
  sink_->record(static_cast<std::uint32_t>(w), cls_, t0_, ex_.now(), arg_);
}

ThreadExecutor::ThreadExecutor(int num_localities, int cores_per_locality,
                               std::uint64_t seed, CoalesceConfig coalesce,
                               std::uint32_t first, int hosted)
    : num_localities_(
          checked_world(num_localities, cores_per_locality, first, hosted)),
      cores_(cores_per_locality),
      first_(first),
      hosted_(hosted),
      nworkers_(hosted * cores_per_locality),
      inorder_(static_cast<std::size_t>(num_localities) *
               static_cast<std::size_t>(num_localities)),
      epoch_(std::chrono::steady_clock::now()) {
  // Localities hosted elsewhere can send before a handler registers here.
  rt_ = std::make_unique<LocalityRuntime>(num_localities, nworkers_, coalesce,
                                          hosted < num_localities);
  const int n = nworkers_;
  workers_.reserve(static_cast<std::size_t>(n));
  std::uint64_t sm = seed;
  for (int w = 0; w < n; ++w) {
    auto ws = std::make_unique<WorkerState>();
    ws->rng = Rng(splitmix64(sm));
    workers_.push_back(std::move(ws));
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int w = 0; w < n; ++w) {
    threads_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadExecutor::~ThreadExecutor() {
  // A derived executor that stopped the workers already (a socket rank on
  // a dead mesh) must not drain again: its queued tasks never run.
  if (!stop_.load(std::memory_order_acquire)) drain();
  stop_workers();
  join_workers();
  // drain() guarantees no live tasks; free what stopped workers left queued.
  for (auto& ws : workers_) {
    // relaxed-ok: all workers joined above; this thread is the only one left.
    TaskNode* n = ws->inbox.exchange(nullptr, std::memory_order_relaxed);
    while (n != nullptr) {
      TaskNode* next = n->next;
      delete n;
      n = next;
    }
    while (TaskNode* d = ws->high.pop()) delete d;
    while (TaskNode* d = ws->low.pop()) delete d;
    for (TaskNode* d : ws->overflow_high) delete d;
    for (TaskNode* d : ws->overflow_low) delete d;
  }
}

void ThreadExecutor::stop_workers() {
  {
    SyncLockGuard lk(idle_mu_);
    stop_.store(true, std::memory_order_seq_cst);
    // relaxed-ok: the epoch bump is published by the idle_mu_ unlock below.
    wake_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
  drain_cv_.notify_all();
}

void ThreadExecutor::join_workers() {
  for (auto& t : threads_) {
    if (t.joinable()) t.join();
  }
}

int ThreadExecutor::current_locality() const {
  const int w = current_worker();
  return (w >= 0 && w < nworkers_)
             ? static_cast<int>(first_) + w / cores_
             : -1;
}

double ThreadExecutor::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

TraceClock ThreadExecutor::trace_clock() const {
  return make_trace_clock(
      std::chrono::duration<double>(epoch_.time_since_epoch()).count());
}

void ThreadExecutor::push_local(int w, TaskNode* n) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  const bool hi = n->task.high_priority;
  auto& dq = hi ? ws.high : ws.low;
  if (!dq.push(n)) {
    (hi ? ws.overflow_high : ws.overflow_low).push_back(n);
  }
  auto& ctr = rt_->counters();
  if (ctr.enabled()) {
    ctr.gauge_max(w, rt_->ids().deque_depth_hw, dq.size_estimate());
  }
}

void ThreadExecutor::spawn(Task t) {
  AMTFMM_ASSERT(locality_is_local(t.locality));
  // relaxed-ok: the count only needs atomicity; drain()'s completion check
  // re-reads it under idle_mu_ after the last finish.
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  auto* n = new TaskNode{std::move(t), nullptr};
  const int loc = static_cast<int>(n->task.locality - first_);
  const int w = current_worker();
  if (w >= 0 && w < nworkers_ && w / cores_ == loc) {
    // Stay on the spawning worker's deque (cheap, steals rebalance).
    push_local(w, n);
  } else {
    // Foreign thread: hand off via the target worker's MPSC inbox.
    // relaxed-ok: round-robin cursor — any distribution is correct.
    const int offset = static_cast<int>(
        spawn_rr_.fetch_add(1, std::memory_order_relaxed) %
        static_cast<std::uint64_t>(cores_));
    auto& ws = *workers_[static_cast<std::size_t>(loc * cores_ + offset)];
    // relaxed-ok: the speculative head read is validated by the CAS; the
    // successful CAS (seq_cst) publishes the node.
    TaskNode* head = ws.inbox.load(std::memory_order_relaxed);
    do {
      n->next = head;
      // relaxed-ok: CAS failure order — retry re-reads, publishes nothing.
    } while (!ws.inbox.compare_exchange_weak(
        head, n, std::memory_order_seq_cst, std::memory_order_relaxed));
  }
  wake_all();
}

void ThreadExecutor::send(std::uint32_t from, std::uint32_t to,
                          std::size_t bytes, Task t) {
  t.locality = to;
  if (from == to) {
    spawn(std::move(t));
    return;
  }
  auto out = rt_->submit(from, to, bytes, std::move(t), now());
  if (!out.batch) {
    // Below threshold: deadline and quiescence flushes are driven by idle
    // workers of the source locality and by drain().
    return;
  }
  if (!locality_is_local(to)) {
    transmit(std::move(*out.batch));
    return;
  }
  if (out.batch->coalesced) {
    deliver(std::move(*out.batch));
    return;
  }
  // Coalescing off: transmit the single-parcel message directly, no
  // destination re-sequencing (each message carries exactly one task).
  const double tn = now();
  rt_->account_batch(*out.batch, tn, tn);
  if (rt_->trace().enabled()) {
    const std::uint32_t w = LocalityRuntime::trace_worker();
    rt_->trace().record_instant(w, InstantKind::kParcelSend, tn, to);
    rt_->trace().record_instant(w, InstantKind::kParcelRecv, tn, from);
  }
  for (Task& bt : out.batch->tasks) spawn(std::move(bt));
}

void ThreadExecutor::deliver(ParcelBatch b) {
  const auto n = static_cast<std::int64_t>(b.tasks.size());
  const double tn = now();
  rt_->account_batch(b, tn, tn);
  if (rt_->trace().enabled()) {
    rt_->trace().record_instant(LocalityRuntime::trace_worker(),
                                InstantKind::kParcelSend, tn, b.dst);
  }
  // Spawn before dropping the buffered count: quiescence detection must
  // never observe the parcels in neither counter (see the LocalityRuntime
  // buffered invariant).
  spawn(batch_task(std::move(b)));
  rt_->note_batch_consumed(n);
}

void ThreadExecutor::route(ParcelBatch b) {
  if (locality_is_local(b.dst)) {
    deliver(std::move(b));
  } else {
    transmit(std::move(b));
  }
}

void ThreadExecutor::transmit(ParcelBatch /*b*/) {
  AMTFMM_ASSERT_MSG(false, "batch for a locality this executor does not host");
}

Task ThreadExecutor::batch_task(ParcelBatch b) {
  Task w;
  w.locality = b.dst;
  w.high_priority = b.any_high;
  // shared_ptr keeps the wrapper copyable for std::function.
  w.fn = [this, batch = std::make_shared<ParcelBatch>(std::move(b))]() {
    run_batch_in_order(std::move(*batch));
  };
  return w;
}

void ThreadExecutor::run_batch_in_order(ParcelBatch b) {
  if (rt_->trace().enabled()) {
    rt_->trace().record_instant(LocalityRuntime::trace_worker(),
                                InstantKind::kParcelRecv, now(), b.src);
  }
  InOrder& io = inorder_[static_cast<std::size_t>(b.src) *
                             static_cast<std::size_t>(num_localities_) +
                         b.dst];
  {
    SyncLockGuard lk(io.mu);
    io.ready.emplace(b.seq, std::move(b));
    // A single runner per pair keeps batches strictly serialized.  If the
    // next expected batch is missing, its (already spawned) wrapper task
    // will become the runner when it arrives.
    if (io.running || io.ready.begin()->first != io.expected) return;
    io.running = true;
  }
  for (;;) {
    ParcelBatch cur;
    {
      SyncLockGuard lk(io.mu);
      auto it = io.ready.find(io.expected);
      if (it == io.ready.end()) {
        io.running = false;
        return;
      }
      cur = std::move(it->second);
      io.ready.erase(it);
      ++io.expected;
    }
    for (const Task& t : cur.tasks) rt_->run(t);
  }
}

bool ThreadExecutor::flush_expired(int w) {
  const auto loc = first_ + static_cast<std::uint32_t>(w / cores_);
  if (!rt_->coalesce_config().enabled || !rt_->pending_from(loc)) {
    return false;
  }
  auto batches = rt_->take_expired_from(loc, now());
  for (auto& b : batches) route(std::move(b));
  return !batches.empty();
}

bool ThreadExecutor::flush_outbound(int w) {
  const auto loc = first_ + static_cast<std::uint32_t>(w / cores_);
  if (!rt_->coalesce_config().enabled || !rt_->pending_from(loc)) {
    return false;
  }
  auto batches = rt_->take_all_from(loc);
  for (auto& b : batches) route(std::move(b));
  return !batches.empty();
}

void ThreadExecutor::drain_inbox(int w) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  TaskNode* n = ws.inbox.exchange(nullptr, std::memory_order_seq_cst);
  if (n == nullptr) return;
  int moved = 0;
  while (n != nullptr) {
    TaskNode* next = n->next;
    push_local(w, n);
    ++moved;
    n = next;
  }
  auto& ctr = rt_->counters();
  if (ctr.enabled()) {
    const auto& ids = rt_->ids();
    ctr.add(w, ids.inbox_drains);
    ctr.add(w, ids.inbox_tasks, static_cast<std::uint64_t>(moved));
  }
  // The inbox itself is not stealable; now that the tasks sit in a deque,
  // parked peers can help with everything beyond the one we run next.
  if (moved > 1) wake_all();
}

ThreadExecutor::TaskNode* ThreadExecutor::next_task(int w) {
  auto& ws = *workers_[static_cast<std::size_t>(w)];
  drain_inbox(w);
  if (TaskNode* n = ws.high.pop()) return n;
  if (!ws.overflow_high.empty()) {
    TaskNode* n = ws.overflow_high.back();
    ws.overflow_high.pop_back();
    return n;
  }
  if (TaskNode* n = ws.low.pop()) return n;
  if (!ws.overflow_low.empty()) {
    TaskNode* n = ws.overflow_low.back();
    ws.overflow_low.pop_back();
    return n;
  }
  return nullptr;
}

ThreadExecutor::TaskNode* ThreadExecutor::try_steal(int w) {
  // Randomized stealing restricted to the worker's own locality.  The draw
  // excludes the thief itself (cores_ - 1 candidates, remapped around w) so
  // every attempt lands on a real victim.
  if (cores_ <= 1) return nullptr;
  auto& me = *workers_[static_cast<std::size_t>(w)];
  const int base = (w / cores_) * cores_;
  const int self = w - base;
  auto& ctr = rt_->counters();
  const bool counting = ctr.enabled();
  for (int attempt = 0; attempt < 2 * (cores_ - 1); ++attempt) {
    const int r = static_cast<int>(
        me.rng.below(static_cast<std::uint64_t>(cores_ - 1)));
    const int victim = base + (r >= self ? r + 1 : r);
    auto& vs = *workers_[static_cast<std::size_t>(victim)];
    if (counting) ctr.add(w, rt_->ids().steal_attempts);
    TaskNode* n = vs.high.steal();
    if (n == nullptr) n = vs.low.steal();
    if (n != nullptr) {
      if (counting) ctr.add(w, rt_->ids().steal_success);
      if (rt_->trace().enabled()) {
        rt_->trace().record_instant(static_cast<std::uint32_t>(w),
                                    InstantKind::kSteal, now(),
                                    static_cast<std::uint32_t>(victim));
      }
      return n;
    }
  }
  return nullptr;
}

bool ThreadExecutor::work_available(int w) const {
  const auto& me = *workers_[static_cast<std::size_t>(w)];
  if (me.inbox.load(std::memory_order_seq_cst) != nullptr) return true;
  // Own overflow lists are necessarily empty here: only the owner fills
  // them, and it never parks without draining them first.
  const int base = (w / cores_) * cores_;
  for (int v = base; v < base + cores_; ++v) {
    const auto& vs = *workers_[static_cast<std::size_t>(v)];
    if (vs.high.maybe_nonempty() || vs.low.maybe_nonempty()) return true;
  }
  return false;
}

void ThreadExecutor::wake_all() {
  // Dekker pairing with park(): the producer published its task with a
  // seq_cst operation before this load, the consumer increments sleepers_
  // seq_cst before re-checking for work.  Either we observe the sleeper or
  // it observes the task.
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
  {
    SyncLockGuard lk(idle_mu_);
    // relaxed-ok: the epoch bump is published by the idle_mu_ unlock.
    wake_epoch_.fetch_add(1, std::memory_order_relaxed);
  }
  idle_cv_.notify_all();
}

void ThreadExecutor::park(int w) {
  SyncUniqueLock lk(idle_mu_);
  if (stop_.load(std::memory_order_acquire)) return;
  sleepers_.fetch_add(1, std::memory_order_seq_cst);
  if (work_available(w)) {  // re-check after announcing ourselves
    // relaxed-ok: retracting the announcement orders nothing; producers
    // that miss it merely take the notify path, which is harmless.
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }
  auto& ctr = rt_->counters();
  const bool counting = ctr.enabled();
  const double t0 = counting ? now() : 0.0;
  // relaxed-ok: wake_epoch_ is only read/written under idle_mu_, which
  // supplies the ordering; the atomic silences TSan on the wait re-check.
  const std::uint64_t e = wake_epoch_.load(std::memory_order_relaxed);
  // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp).
  while (!stop_.load(std::memory_order_acquire) &&
         // relaxed-ok: read under idle_mu_ (held between waits), see above.
         wake_epoch_.load(std::memory_order_relaxed) == e) {
    idle_cv_.wait(lk);
  }
  // relaxed-ok: see the early-return fetch_sub above.
  sleepers_.fetch_sub(1, std::memory_order_relaxed);
  if (counting) {
    const auto& ids = rt_->ids();
    ctr.add(w, ids.park_count);
    ctr.add(w, ids.park_time_us,
            static_cast<std::uint64_t>((now() - t0) * 1e6));
  }
}

void ThreadExecutor::worker_loop(int w) {
  tls_worker = w;
  int idle_rounds = 0;
  while (!stop_.load(std::memory_order_acquire)) {
    TaskNode* n = next_task(w);
    if (n == nullptr) n = try_steal(w);
    if (n != nullptr) {
      Task t = std::move(n->task);
      delete n;
      rt_->run(t);
      rt_->counters().add(w, rt_->ids().tasks_run);
      if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        // Take the mutex so the notify cannot slip between drain()'s
        // predicate check and its wait.
        SyncLockGuard lk(idle_mu_);
        drain_cv_.notify_all();
      }
      idle_rounds = 0;
      continue;
    }
    ++idle_rounds;
    if (idle_rounds <= kSpinRounds) {
      cpu_relax();
    } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
      // Deadline flushes ride the idle path: an idle worker acts as the
      // communication agent of its locality.
      flush_expired(w);
      std::this_thread::yield();
    } else {
      // About to park: nothing runnable anywhere in this locality, so
      // treat it as (local) quiescence and push out everything buffered.
      if (flush_outbound(w)) {
        idle_rounds = kSpinRounds;  // re-check queues, skip the spin phase
        continue;
      }
      park(w);
      idle_rounds = 0;
    }
  }
}

double ThreadExecutor::drain() {
  const double t0 = now();
  while (!settle()) {
  }
  return now() - t0;
}

bool ThreadExecutor::settle() {
  // Wait for running tasks first, flush second: a flush while senders are
  // still running would split their buffers mid-fill.  Delivering a batch
  // re-raises outstanding_, hence the caller's loop.
  {
    SyncUniqueLock lk(idle_mu_);
    // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp).
    while (outstanding_.load(std::memory_order_acquire) != 0 &&
           !stop_.load(std::memory_order_acquire)) {
      drain_cv_.wait(lk);
    }
  }
  bool flushed = false;
  for (auto& b : rt_->take_all()) {
    route(std::move(b));
    flushed = true;
  }
  return !flushed && idle();
}

}  // namespace amtfmm
