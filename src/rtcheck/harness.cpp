#include "rtcheck/harness.hpp"

#include <exception>
#include <memory>

#include "support/error.hpp"
#include "support/json.hpp"

namespace amtfmm::rtcheck {

namespace {

/// Model-thread id of the calling OS thread; -1 on the controller and on
/// any thread the harness does not own.
thread_local int tls_tid = -1;

}  // namespace

// ---------------------------------------------------------------------------
// Names and formats.

const char* mutation_name(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "none";
    case Mutation::kStealBottomLoadRelaxed:
      return "steal-bottom-relaxed";
    case Mutation::kCoalescerCountAfterInsert:
      return "coalescer-count-after-insert";
    case Mutation::kArenaInputNoLock:
      return "arena-input-no-lock";
    case Mutation::kCountersCountEarly:
      return "counters-count-early";
  }
  return "unknown";
}

Mutation mutation_from_name(const std::string& name) {
  for (Mutation m :
       {Mutation::kNone, Mutation::kStealBottomLoadRelaxed,
        Mutation::kCoalescerCountAfterInsert, Mutation::kArenaInputNoLock,
        Mutation::kCountersCountEarly}) {
    if (name == mutation_name(m)) return m;
  }
  if (name.empty()) return Mutation::kNone;
  throw config_error("unknown mutation: " + name);
}

const char* mutation_scenario(Mutation m) {
  switch (m) {
    case Mutation::kNone:
      return "";
    case Mutation::kStealBottomLoadRelaxed:
      return "deque.steal_vs_pop";
    case Mutation::kCoalescerCountAfterInsert:
      return "coalescer.flush_vs_enqueue";
    case Mutation::kArenaInputNoLock:
      return "arena.trigger_once";
    case Mutation::kCountersCountEarly:
      return "counters.snapshot_consistency";
  }
  return "";
}

const char* sync_kind_name(SyncKind k) {
  switch (k) {
    case SyncKind::kAtomicLoad:
      return "atomic-load";
    case SyncKind::kAtomicStore:
      return "atomic-store";
    case SyncKind::kAtomicRmw:
      return "atomic-rmw";
    case SyncKind::kPlainRead:
      return "plain-read";
    case SyncKind::kPlainWrite:
      return "plain-write";
    case SyncKind::kLcoInput:
      return "lco-input";
    case SyncKind::kLcoFire:
      return "lco-fire";
    case SyncKind::kLcoRearm:
      return "lco-rearm";
    case SyncKind::kBatchEnqueue:
      return "batch-enqueue";
    case SyncKind::kBatchFlush:
      return "batch-flush";
    case SyncKind::kPendingRaise:
      return "pending-raise";
    case SyncKind::kPendingLower:
      return "pending-lower";
    case SyncKind::kMutexLock:
      return "mutex-lock";
    case SyncKind::kMutexUnlock:
      return "mutex-unlock";
    case SyncKind::kCvWait:
      return "cv-wait";
    case SyncKind::kCvNotify:
      return "cv-notify";
  }
  return "unknown";
}

std::string format_schedule(const std::vector<int>& s) {
  std::string out;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (i > 0) out += ',';
    out += std::to_string(s[i]);
  }
  return out;
}

std::vector<int> parse_schedule(const std::string& csv) {
  std::vector<int> out;
  std::size_t i = 0;
  while (i < csv.size()) {
    std::size_t end = csv.find(',', i);
    if (end == std::string::npos) end = csv.size();
    const std::string tok = csv.substr(i, end - i);
    if (!tok.empty()) {
      try {
        out.push_back(std::stoi(tok));
      } catch (const std::exception&) {
        throw config_error("bad schedule element: " + tok);
      }
    }
    i = end + 1;
  }
  return out;
}

void RtReport::append_json(JsonWriter& w) const {
  w.begin_object();
  w.kv("scenario", scenario);
  w.kv("mode", mode);
  w.kv("mutation", mutation_name(mutation));
  w.kv("failed", failed);
  w.kv("complete", complete);
  w.kv("diverged", diverged);
  w.kv("executions", executions);
  w.kv("seed", seed);
  w.kv("message", message);
  w.kv("schedule", format_schedule(schedule));
  w.key("trace");
  w.begin_array();
  for (const RtTraceEvent& e : trace) {
    w.begin_object();
    w.kv("step", static_cast<std::uint64_t>(e.step));
    w.kv("tid", e.tid);
    w.kv("kind", sync_kind_name(e.kind));
    w.kv("label", e.label);
    w.kv("info", e.info);
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

// ---------------------------------------------------------------------------
// ScenarioContext.

void ScenarioContext::label(const void* addr, std::string name) {
  h_->labels_[addr] = std::move(name);
}

void ScenarioContext::check(bool cond, const std::string& msg) {
  if (!cond) fail(msg);
}

void ScenarioContext::fail(const std::string& msg) { h_->scenario_fail(msg); }

// ---------------------------------------------------------------------------
// Harness.

Harness::Harness(const Scenario& sc, const RtOptions& opt)
    : sc_(sc), opt_(opt), ctx_(this) {}

RtReport Harness::run() {
  RtReport rep;
  rep.scenario = sc_.name;
  rep.mutation = opt_.mutation;
  std::unique_ptr<Strategy> strat;
  switch (opt_.mode) {
    case RtOptions::Mode::kDfs:
      strat = std::make_unique<DfsStrategy>(opt_.preemption_bound,
                                            opt_.max_executions);
      rep.mode = "dfs";
      break;
    case RtOptions::Mode::kPct:
      strat = std::make_unique<PctStrategy>(opt_.seed, opt_.pct_executions,
                                            opt_.pct_depth);
      rep.mode = "pct";
      break;
    case RtOptions::Mode::kReplay:
      strat = std::make_unique<ReplayStrategy>(opt_.replay_schedule);
      rep.mode = "replay";
      break;
  }
  for (;;) {
    run_one(*strat);
    ++rep.executions;
    if (!failure_.empty()) {
      rep.failed = true;
      rep.message = failure_;
      rep.schedule = failed_schedule_;
      rep.trace = failed_trace_;
      rep.seed = strat->execution_seed();
      break;
    }
    if (!strat->next_execution()) break;
  }
  rep.complete = strat->complete() && !rep.failed;
  rep.diverged = strat->diverged();
  return rep;
}

void Harness::run_one(Strategy& strat) {
  abort_.store(false, std::memory_order_relaxed);
  step_ = 0;
  schedule_.clear();
  trace_.clear();
  fires_.clear();
  buffered_.clear();
  pending_.clear();
  mutexes_.clear();
  labels_.clear();
  anon_.clear();
  failure_.clear();
  strat_ = &strat;
  strat.begin_execution();

  // Scenario state is built fresh per execution on the controller, with no
  // observer installed: construction-time accesses are invisible to the
  // checker, which matches their run-before-all-threads semantics.
  run_state_ = sc_.make(ctx_);
  const int n = static_cast<int>(run_state_.bodies.size());
  AMTFMM_ASSERT_MSG(n >= 1, "scenario with no thread bodies");
  hb_.reset(n);
  threads_.clear();
  threads_.resize(static_cast<std::size_t>(n));
  {
    std::lock_guard lk(cmu_);
    active_ = -1;
  }
  for (int t = 0; t < n; ++t) {
    threads_[static_cast<std::size_t>(t)].th =
        std::thread([this, t] { thread_main(t); });
  }
  const int first = select_next(-1, false);
  AMTFMM_ASSERT(first >= 0);
  resume(first);
  for (auto& mt : threads_) mt.th.join();
  strat_ = nullptr;
  if (failure_.empty() && run_state_.finish) {
    run_state_.finish();
  }
  run_state_ = ScenarioRun{};
  threads_.clear();
}

void Harness::thread_main(int tid) {
  tls_tid = tid;
  tls_sync_observer = this;
  {
    std::unique_lock lk(cmu_);
    ccv_.wait(lk, [&] {
      return active_ == tid || abort_.load(std::memory_order_relaxed);
    });
  }
  if (!abort_.load(std::memory_order_relaxed)) {
    try {
      run_state_.bodies[static_cast<std::size_t>(tid)]();
    } catch (const AbortExecution&) {
    }
  }
  tls_sync_observer = nullptr;
  try {
    on_thread_done(tid);
  } catch (const AbortExecution&) {
    // Deadlock recorded by select_next; everyone else was woken.
  }
  tls_tid = -1;
}

void Harness::on_thread_done(int me) {
  threads_[static_cast<std::size_t>(me)].state = TState::kFinished;
  if (abort_.load(std::memory_order_relaxed)) {
    std::lock_guard lk(cmu_);
    ccv_.notify_all();
    return;
  }
  const int next = select_next(me, false);
  if (next >= 0) resume(next);
  // next == -1: every thread finished; the controller's joins take over.
}

bool Harness::enter_hook() {
  if (tls_tid < 0) return false;
  if (abort_.load(std::memory_order_relaxed)) {
    // Stop the body at this schedule point — unless we are mid-unwind
    // (a destructor is releasing locks), where throwing would terminate.
    if (std::uncaught_exceptions() == 0) throw AbortExecution{};
    return false;
  }
  return true;
}

bool Harness::enter_hook_nothrow() const {
  return tls_tid >= 0 && !abort_.load(std::memory_order_relaxed);
}

void Harness::bump_step_or_fail() {
  if (++step_ > opt_.max_steps) {
    fail_now("schedule-point budget exceeded (possible livelock)");
  }
}

void Harness::record(int tid, SyncKind k, const void* addr,
                     std::uint64_t info) {
  if (trace_.size() >= kMaxTraceEvents) return;
  trace_.push_back(RtTraceEvent{step_, tid, k, info, label_of(addr)});
}

std::string Harness::label_of(const void* addr) const {
  auto it = labels_.find(addr);
  if (it != labels_.end()) return it->second;
  // Unlabeled addresses get a per-execution sequence name: first-use order
  // is deterministic under a fixed schedule, so replayed failure messages
  // match byte-for-byte (a raw pointer would differ between runs).
  auto [ait, inserted] = anon_.try_emplace(addr, anon_.size());
  return "obj#" + std::to_string(ait->second);
}

int Harness::select_next(int me, bool me_runnable) {
  std::vector<int> runnable;
  bool all_finished = true;
  for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
    const TState s = threads_[static_cast<std::size_t>(t)].state;
    if (s != TState::kFinished) all_finished = false;
    if (s == TState::kNotStarted || s == TState::kRunnable) {
      runnable.push_back(t);
    }
  }
  if (runnable.empty()) {
    if (all_finished) return -1;
    fail_now(deadlock_message());
  }
  (void)me_runnable;
  const bool cur_in =
      me >= 0 && (threads_[static_cast<std::size_t>(me)].state ==
                      TState::kRunnable ||
                  threads_[static_cast<std::size_t>(me)].state ==
                      TState::kNotStarted);
  const int pick = strat_->choose(me, cur_in, runnable);
  schedule_.push_back(pick);
  ModelThread& mt = threads_[static_cast<std::size_t>(pick)];
  if (mt.state == TState::kNotStarted) mt.state = TState::kRunnable;
  return pick;
}

void Harness::yield_point(int me) {
  const int next = select_next(me, true);
  if (next != me) {
    resume_and_wait(next, me);
    if (abort_.load(std::memory_order_relaxed)) throw AbortExecution{};
  }
}

void Harness::resume(int next) {
  std::lock_guard lk(cmu_);
  active_ = next;
  ccv_.notify_all();
}

void Harness::resume_and_wait(int next, int me) {
  std::unique_lock lk(cmu_);
  active_ = next;
  ccv_.notify_all();
  ccv_.wait(lk, [&] {
    return active_ == me || abort_.load(std::memory_order_relaxed);
  });
}

void Harness::fail_now(const std::string& msg) {
  if (failure_.empty()) {
    failure_ = msg;
    failed_schedule_ = schedule_;
    failed_trace_ = trace_;
  }
  do_abort();
  throw AbortExecution{};
}

void Harness::scenario_fail(const std::string& msg) {
  const std::string full = "scenario check failed: " + msg;
  if (tls_tid >= 0) fail_now(full);
  // finish() runs on the controller after every thread joined: record the
  // failure against the execution's completed schedule, no abort needed.
  if (failure_.empty()) {
    failure_ = full;
    failed_schedule_ = schedule_;
    failed_trace_ = trace_;
  }
}

void Harness::do_abort() {
  abort_.store(true, std::memory_order_relaxed);
  std::lock_guard lk(cmu_);
  ccv_.notify_all();
}

void Harness::check_coalescer(const void* c) {
  if (pending_[c] < buffered_[c]) {
    fail_now("coalescer pending counter under-reports buffered parcels (" +
             std::to_string(pending_[c]) + " < " +
             std::to_string(buffered_[c]) + " on " + label_of(c) + ")");
  }
}

std::string Harness::deadlock_message() const {
  std::string msg = "deadlock:";
  bool cv = false;
  for (int t = 0; t < static_cast<int>(threads_.size()); ++t) {
    const ModelThread& mt = threads_[static_cast<std::size_t>(t)];
    msg += " T" + std::to_string(t);
    switch (mt.state) {
      case TState::kFinished:
        msg += "=finished";
        break;
      case TState::kBlockedMutex:
        msg += "=blocked-mutex(" + label_of(mt.wait_addr) + ")";
        break;
      case TState::kBlockedCv:
        msg += "=blocked-cv(" + label_of(mt.wait_addr) + ")";
        cv = true;
        break;
      default:
        msg += "=runnable?";
        break;
    }
  }
  if (cv) msg += " [possible lost wakeup]";
  return msg;
}

// ---------------------------------------------------------------------------
// SyncObserver.

void Harness::pre(SyncKind k, const void* addr, std::memory_order mo,
                  std::uint64_t info) {
  (void)mo;
  if (!enter_hook()) return;
  const int me = tls_tid;
  bump_step_or_fail();
  record(me, k, addr, info);
  switch (k) {
    case SyncKind::kPlainRead:
    case SyncKind::kPlainWrite: {
      const bool write = k == SyncKind::kPlainWrite;
      if (auto race = hb_.plain_access(me, addr, write, step_)) {
        fail_now(std::string("data race on ") + label_of(addr) + ": " +
                 (write ? "write" : "read") + " by T" + std::to_string(me) +
                 " (step " + std::to_string(step_) + ") unordered with " +
                 (race->other_write ? "write" : "read") + " by T" +
                 std::to_string(race->other_tid) + " (step " +
                 std::to_string(race->other_step) + ")");
      }
      break;
    }
    case SyncKind::kLcoFire:
      if (++fires_[addr] > 1) {
        fail_now("LCO " + label_of(addr) +
                 " fired twice (trigger-once protocol violation)");
      }
      break;
    case SyncKind::kLcoRearm:
      // Epoch boundary: the re-armed LCO may legally fire once more.  A
      // fire that lands between the re-arm and the next epoch's final
      // input still counts against the new epoch's budget of one.
      fires_[addr] = 0;
      break;
    case SyncKind::kBatchEnqueue:
      buffered_[addr] += static_cast<std::int64_t>(info);
      check_coalescer(addr);
      break;
    case SyncKind::kBatchFlush:
      buffered_[addr] -= static_cast<std::int64_t>(info);
      if (buffered_[addr] < 0) {
        fail_now("coalescer drained more parcels than were buffered on " +
                 label_of(addr));
      }
      break;
    case SyncKind::kPendingRaise:
      pending_[addr] += static_cast<std::int64_t>(info);
      break;
    case SyncKind::kPendingLower:
      pending_[addr] -= static_cast<std::int64_t>(info);
      check_coalescer(addr);
      break;
    default:
      break;
  }
  yield_point(me);
}

void Harness::post_load(const void* addr, std::memory_order mo) {
  if (!enter_hook_nothrow()) return;
  hb_.atomic_load(tls_tid, addr, mo);
}

void Harness::post_store(const void* addr, std::memory_order mo) {
  if (!enter_hook_nothrow()) return;
  hb_.atomic_store(tls_tid, addr, mo);
}

void Harness::post_rmw(const void* addr, std::memory_order mo) {
  if (!enter_hook_nothrow()) return;
  hb_.atomic_rmw(tls_tid, addr, mo);
}

void Harness::mutex_lock(const void* m) {
  if (!enter_hook()) return;
  const int me = tls_tid;
  bump_step_or_fail();
  record(me, SyncKind::kMutexLock, m, 0);
  yield_point(me);
  auto [it, inserted] = mutexes_.try_emplace(m, -1);
  while (it->second != -1) {
    ModelThread& mt = threads_[static_cast<std::size_t>(me)];
    mt.state = TState::kBlockedMutex;
    mt.wait_addr = m;
    const int next = select_next(me, false);
    AMTFMM_ASSERT(next >= 0);
    resume_and_wait(next, me);
    if (abort_.load(std::memory_order_relaxed)) throw AbortExecution{};
  }
  it->second = me;
  hb_.mutex_acquire(me, m);
}

bool Harness::mutex_try_lock(const void* m) {
  if (!enter_hook()) return true;  // teardown: defer to the real try_lock
  const int me = tls_tid;
  bump_step_or_fail();
  record(me, SyncKind::kMutexLock, m, 1);
  yield_point(me);
  auto [it, inserted] = mutexes_.try_emplace(m, -1);
  if (it->second != -1) return false;
  it->second = me;
  hb_.mutex_acquire(me, m);
  return true;
}

void Harness::mutex_unlock(const void* m) {
  // Called from destructors: must never throw, even on abort.
  if (!enter_hook_nothrow()) return;
  const int me = tls_tid;
  auto it = mutexes_.find(m);
  if (it == mutexes_.end() || it->second != me) {
    return;  // locked before hooks were active (controller setup)
  }
  hb_.mutex_release(me, m);
  it->second = -1;
  for (auto& t : threads_) {
    if (t.state == TState::kBlockedMutex && t.wait_addr == m) {
      t.state = TState::kRunnable;
    }
  }
  if (step_ < opt_.max_steps) {
    ++step_;
    record(me, SyncKind::kMutexUnlock, m, 0);
  }
  // Schedule point after the release; no-throw variant of yield_point (the
  // unlocker is runnable, so no deadlock is possible here).
  const int next = select_next(me, true);
  if (next != me) resume_and_wait(next, me);
}

void Harness::cv_register(const void* cv) {
  if (!enter_hook()) return;
  ModelThread& mt = threads_[static_cast<std::size_t>(tls_tid)];
  mt.cv_wait = cv;
  mt.cv_notified = false;
}

void Harness::cv_block(const void* cv) {
  if (!enter_hook()) return;
  const int me = tls_tid;
  bump_step_or_fail();
  record(me, SyncKind::kCvWait, cv, 0);
  ModelThread& mt = threads_[static_cast<std::size_t>(me)];
  if (!mt.cv_notified) {
    mt.state = TState::kBlockedCv;
    mt.wait_addr = cv;
    const int next = select_next(me, false);  // deadlock => lost wakeup
    AMTFMM_ASSERT(next >= 0);
    resume_and_wait(next, me);
    if (abort_.load(std::memory_order_relaxed)) throw AbortExecution{};
  } else {
    yield_point(me);
  }
  mt.cv_wait = nullptr;
  mt.cv_notified = false;
}

void Harness::cv_notify_all(const void* cv) {
  if (!enter_hook()) return;
  const int me = tls_tid;
  bump_step_or_fail();
  record(me, SyncKind::kCvNotify, cv, 0);
  for (auto& t : threads_) {
    if (t.cv_wait == cv) {
      t.cv_notified = true;
      if (t.state == TState::kBlockedCv) t.state = TState::kRunnable;
    }
  }
  yield_point(me);
}

std::memory_order Harness::order_at(Mutation point, std::memory_order d) {
  return point == opt_.mutation ? std::memory_order_relaxed : d;
}

bool Harness::mutation_on(Mutation point) { return point == opt_.mutation; }

}  // namespace amtfmm::rtcheck
