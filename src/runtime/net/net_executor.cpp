#include "runtime/net/net_executor.hpp"

#include <algorithm>
#include <chrono>

#include "runtime/flight_recorder.hpp"
#include "support/error.hpp"

namespace amtfmm::net {

NetExecutor::NetExecutor(const NetConfig& cfg, int cores,
                         CoalesceConfig coalesce)
    // The coalescer/CommStats see the full world (destinations are global
    // ranks); workers, trace and counters exist only for the hosted rank.
    : ThreadExecutor(static_cast<int>(cfg.world), cores, /*seed=*/1,
                     coalesce, cfg.rank, 1),
      cfg_(cfg),
      transport_(
          cfg, [this](ParcelBatch&& b) { on_net_batch(std::move(b)); },
          [this](const ControlMsg& m) { on_net_control(m); },
          [this](const std::string& why) { on_net_failure(why); }) {
  auto& reg = rt_->counters();
  nid_.msgs_sent = reg.counter("net.msgs_sent");
  nid_.msgs_recvd = reg.counter("net.msgs_recvd");
  nid_.wire_bytes_sent = reg.counter("net.wire_bytes_sent");
  nid_.wire_bytes_recvd = reg.counter("net.wire_bytes_recvd");
  nid_.progress_iters = reg.counter("net.progress_iters");
  nid_.idle_polls = reg.counter("net.idle_polls");
  nid_.partial_writes = reg.counter("net.partial_writes");
  nid_.backpressure_stalls = reg.counter("net.backpressure_stalls");
  nid_.backpressure_stall_us = reg.counter("net.backpressure_stall_us");
  nid_.control_msgs = reg.counter("net.control_msgs");
  nid_.termination_rounds = reg.counter("net.termination_rounds");
  nid_.telemetry_sent = reg.counter("net.telemetry_sent");
  nid_.telemetry_recvd = reg.counter("net.telemetry_recvd");
  nid_.inject_depth_hwm = reg.gauge("net.inject_depth_hwm");
  nid_.inject_bytes_hwm = reg.gauge("net.inject_bytes_hwm");

  acks_.resize(cfg_.world);
  prev_acks_.resize(cfg_.world);

  transport_.start();  // mesh up before any task can send
  // Clock sync rides the fresh mesh before any batch traffic competes
  // for it: the quietest moment this process will ever see, which is
  // exactly when the min-RTT midpoint estimate is tightest.
  clock_sync_ = transport_.clock_sync();
}

NetExecutor::~NetExecutor() {
  // Transport first: once the progress thread is gone, no callback can
  // race the teardown.  No drain — destruction must always succeed, even
  // on a failed mesh: the workers finish the tasks they are running, and
  // queued tasks never run.
  transport_.stop();
  stop_workers();
  join_workers();
}

void NetExecutor::set_on_telemetry(NetTransport::TelemetryFn fn) {
  transport_.set_on_telemetry(std::move(fn));
}

TraceClock NetExecutor::trace_clock() const {
  TraceClock c = ThreadExecutor::trace_clock();
  c.offset_s = clock_sync_.offset_s;
  c.uncertainty_s = clock_sync_.uncertainty_s;
  return c;
}

void NetExecutor::transmit(ParcelBatch b) {
  AMTFMM_ASSERT(b.src == cfg_.rank && b.dst < cfg_.world);
  const double tn = now();
  rt_->account_batch(b, tn, tn);
  if (rt_->trace().enabled()) {
    rt_->trace().record_instant(LocalityRuntime::trace_worker(),
                                InstantKind::kParcelSend, tn, b.dst);
  }
  const auto n = static_cast<std::int64_t>(b.tasks.size());
  // Ordering contract with the termination protocol: sent is visible
  // before any peer can observe (and count) the arriving frame.
  // relaxed-ok: quiet_counts() reads it after an acquire of the task or
  // buffered count that this batch's sender or flusher releases later.
  sent_parcels_.fetch_add(static_cast<std::uint64_t>(n),
                          std::memory_order_relaxed);
  // A false return means the transport failed or stopped and dropped the
  // frame; the failure surfaces from drain(), so nothing hangs on it.
  (void)transport_.post_batch(b.dst, b);
  if (b.coalesced) rt_->note_batch_consumed(n);
}

void NetExecutor::on_net_batch(ParcelBatch&& b) {
  AMTFMM_ASSERT(b.dst == cfg_.rank && b.src < cfg_.world);
  const auto n = static_cast<std::uint64_t>(b.tasks.size());
  {
    // Once the transport has failed this evaluation is being abandoned:
    // the engine behind the handlers dies during the caller's unwinding,
    // so batches are dropped, not spawned.
    SyncLockGuard lk(mu_);
    if (net_failed_) return;
  }
  if (b.coalesced) {
    spawn(batch_task(std::move(b)));
  } else {
    // A one-parcel message with no sequence to keep: its parcel runs as
    // it arrived, as an uncoalesced in-process parcel does.
    if (rt_->trace().enabled()) {
      rt_->trace().record_instant(LocalityRuntime::trace_worker(),
                                  InstantKind::kParcelRecv, now(), b.src);
    }
    for (Task& t : b.tasks) spawn(std::move(t));
  }
  {
    // Notify under mu_: a follower_wait() or coordinate_round() that saw
    // no work under mu_ is already waiting when this notify lands.
    SyncLockGuard lk(mu_);
    state_cv_.notify_all();
  }
  // Count the receipt only after the work is visible to quiescence
  // detection: a recvd count with no outstanding work would let the
  // termination protocol declare a balanced cut while the wrapper task is
  // still queued.
  recvd_parcels_.fetch_add(n, std::memory_order_release);
}

std::optional<std::pair<std::uint64_t, std::uint64_t>>
NetExecutor::quiet_counts() const {
  // Receipts first: a batch counted in `recvd` made its task visible
  // before the count, so idle() afterwards proves that task has finished.
  // Sends last: every task and flush done by then has raised sent_.
  const std::uint64_t recvd = recvd_parcels_.load(std::memory_order_acquire);
  if (!idle()) return std::nullopt;
  // relaxed-ok: ordered after idle()'s seq_cst loads, see transmit().
  const std::uint64_t sent = sent_parcels_.load(std::memory_order_relaxed);
  return std::pair{sent, recvd};
}

void NetExecutor::on_net_control(const ControlMsg& m) {
  SyncLockGuard lk(mu_);
  switch (static_cast<ControlType>(m.type)) {
    case ControlType::kProbe:
      probe_pending_ = true;
      probe_round_ = m.a;
      break;
    case ControlType::kAck:
      if (m.rank < cfg_.world) {
        acks_[m.rank] = Ack{m.a, m.b, m.c};
      }
      break;
    case ControlType::kTerminate:
      terminate_epoch_ = std::max(terminate_epoch_, m.a);
      break;
    case ControlType::kHello:
    case ControlType::kGoodbye:
    case ControlType::kPing:
    case ControlType::kPong:
      break;  // bootstrap / shutdown / sync frames; transport-internal
  }
  state_cv_.notify_all();
}

void NetExecutor::on_net_failure(const std::string& why) {
  {
    SyncLockGuard lk(mu_);
    net_failed_ = true;
    if (net_failure_.empty()) net_failure_ = why;
  }
  // The caller abandons the evaluation: the engine whose handlers the
  // queued tasks would invoke is destroyed during unwinding.  Stop the
  // workers now, so no queued task runs; drain() waits out the running
  // ones before it throws.
  stop_workers();
  state_cv_.notify_all();
  // Failure-path teardown is one of the flight recorder's dump triggers:
  // the surviving ranks each capture their last events, so a peer death
  // leaves a cross-rank post-mortem artifact, not just an error line.
  flight_dump_all("net failure");
}

void NetExecutor::throw_if_failed() {
  std::string why;
  {
    SyncLockGuard lk(mu_);
    if (!net_failed_) return;
    why = net_failure_;
  }
  join_workers();  // no worker touches the dying engine after the throw
  throw net_error("rank " + std::to_string(cfg_.rank) +
                  ": transport failed: " + why);
}

bool NetExecutor::coordinate_round() {
  std::uint64_t round;
  std::uint64_t epoch;
  {
    SyncLockGuard lk(mu_);
    round = ++round_;
    ++term_rounds_stat_;
    // Snapshot under mu_: the thread-safety analysis caught the decide-
    // termination path below reading drains_done_ with no lock held.
    epoch = drains_done_ + 1;
  }
  const auto before = quiet_counts();
  if (!before) return false;  // new work; abandon the round
  ControlMsg probe;
  probe.type = static_cast<std::uint8_t>(ControlType::kProbe);
  probe.rank = cfg_.rank;
  probe.a = round;
  transport_.broadcast_control(probe);
  {
    SyncUniqueLock lk(mu_);
    // Explicit predicate loop (no wait(pred) overload; see sync_hook.hpp):
    // wake on failure, new local work, or a full set of round-matching acks.
    for (;;) {
      bool done = net_failed_ || !idle();
      if (!done) {
        done = true;
        for (std::uint32_t r = 1; r < cfg_.world; ++r) {
          if (!acks_[r] || acks_[r]->round != round) {
            done = false;
            break;
          }
        }
      }
      if (done) break;
      state_cv_.wait(lk);
    }
    if (net_failed_) return false;  // drain() throws
  }
  const auto after = quiet_counts();
  if (!after) return false;  // new work; abandon the round
  const Ack self{round, after->first, after->second};
  bool stable = *after == *before;
  std::uint64_t sum_sent = self.sent;
  std::uint64_t sum_recvd = self.recvd;
  {
    SyncLockGuard lk(mu_);
    for (std::uint32_t r = 1; r < cfg_.world; ++r) {
      sum_sent += acks_[r]->sent;
      sum_recvd += acks_[r]->recvd;
      if (prev_round_valid_ && (acks_[r]->sent != prev_acks_[r].sent ||
                                acks_[r]->recvd != prev_acks_[r].recvd)) {
        stable = false;
      }
    }
    if (prev_round_valid_ &&
        (self.sent != prev_self_.sent || self.recvd != prev_self_.recvd)) {
      stable = false;
    }
    // Persist this round as the comparison base for the next one.
    for (std::uint32_t r = 1; r < cfg_.world; ++r) prev_acks_[r] = *acks_[r];
    prev_self_ = self;
    const bool first = !prev_round_valid_;
    prev_round_valid_ = true;
    if (first || !stable || sum_sent != sum_recvd) return false;
  }
  // Two consecutive rounds saw identical per-rank monotone counters with
  // globally balanced sent/recvd: the counters describe one consistent
  // cut with nothing in flight.  Decide termination.
  ControlMsg term;
  term.type = static_cast<std::uint8_t>(ControlType::kTerminate);
  term.rank = cfg_.rank;
  term.a = epoch;  // 1-based drain epoch, snapshotted under mu_ above
  transport_.broadcast_control(term);
  return true;
}

bool NetExecutor::follower_wait() {
  SyncUniqueLock lk(mu_);
  for (;;) {
    if (net_failed_) return false;  // drain() throws
    if (terminate_epoch_ >= drains_done_ + 1) return true;
    // No task queued or running and nothing buffered: the counter pair is
    // a consistent local snapshot (see quiet_counts()).
    const auto counts = quiet_counts();
    if (!counts) return false;  // new work arrived
    if (probe_pending_) {
      probe_pending_ = false;
      ControlMsg ack;
      ack.type = static_cast<std::uint8_t>(ControlType::kAck);
      ack.rank = cfg_.rank;
      ack.a = probe_round_;
      ack.b = counts->first;
      ack.c = counts->second;
      ++term_rounds_stat_;
      lk.unlock();
      transport_.post_control(0, ack);
      lk.lock();
      continue;
    }
    state_cv_.wait(lk);
  }
}

double NetExecutor::drain() {
  const double t0 = now();
  for (;;) {
    // Local quiescence first: everything still buffered for remote ranks
    // goes on the wire.  Transmits may block on backpressure but never
    // spawn local work; received batches can, hence the re-loop.
    const bool quiet = settle();
    throw_if_failed();
    if (!quiet) continue;
    if (cfg_.world == 1) break;
    if (cfg_.rank == 0 ? coordinate_round() : follower_wait()) break;
  }
  throw_if_failed();
  {
    SyncLockGuard lk(mu_);
    ++drains_done_;
    // Re-arm the probe protocol for the next drain epoch on the same
    // mesh: the stable-cut comparison restarts from scratch (two fresh
    // agreeing rounds) and stale per-rank acks are dropped.  A pending
    // probe is deliberately NOT cleared: on a resident mesh the
    // coordinator can enter the next drain and broadcast its first probe
    // while this follower is still in this epilogue (kTerminate and that
    // probe arrive back to back), and the coordinator never re-probes a
    // round — swallowing it here deadlocks the next drain.  Answering it
    // from the next follower_wait is safe: acks are matched by round
    // number, and the cumulative counter cut is read at answer time.
    prev_round_valid_ = false;
    for (auto& a : acks_) a.reset();
  }
  fold_net_counters();
  return now() - t0;
}

void NetExecutor::fold_net_counters() {
  auto& reg = rt_->counters();
  if (!reg.enabled()) return;
  const NetStats& s = transport_.stats();
  // Snapshot under mu_: followers bump term_rounds_stat_ from worker
  // threads, so the old unlocked read here was a (benign-looking) race
  // the thread-safety analysis rejected.
  std::uint64_t term_rounds = 0;
  {
    SyncLockGuard lk(mu_);
    term_rounds = term_rounds_stat_;
  }
  const std::uint64_t cur[13] = {
      s.msgs_sent.load(std::memory_order_relaxed),
      s.msgs_recvd.load(std::memory_order_relaxed),
      s.wire_bytes_sent.load(std::memory_order_relaxed),
      s.wire_bytes_recvd.load(std::memory_order_relaxed),
      s.progress_iters.load(std::memory_order_relaxed),
      s.idle_polls.load(std::memory_order_relaxed),
      s.partial_writes.load(std::memory_order_relaxed),
      s.backpressure_stalls.load(std::memory_order_relaxed),
      s.backpressure_stall_us.load(std::memory_order_relaxed),
      s.control_msgs.load(std::memory_order_relaxed),
      term_rounds,
      s.telemetry_sent.load(std::memory_order_relaxed),
      s.telemetry_recvd.load(std::memory_order_relaxed),
  };
  const CounterRegistry::Id ids[13] = {
      nid_.msgs_sent,          nid_.msgs_recvd,
      nid_.wire_bytes_sent,    nid_.wire_bytes_recvd,
      nid_.progress_iters,     nid_.idle_polls,
      nid_.partial_writes,     nid_.backpressure_stalls,
      nid_.backpressure_stall_us, nid_.control_msgs,
      nid_.termination_rounds, nid_.telemetry_sent,
      nid_.telemetry_recvd,
  };
  for (int i = 0; i < 13; ++i) {
    reg.add(0, ids[i], cur[i] - folded_[i]);
    folded_[i] = cur[i];
  }
  reg.gauge_max(0, nid_.inject_depth_hwm,
                s.inject_depth_hwm.load(std::memory_order_relaxed));
  reg.gauge_max(0, nid_.inject_bytes_hwm,
                s.inject_bytes_hwm.load(std::memory_order_relaxed));
}

}  // namespace amtfmm::net
