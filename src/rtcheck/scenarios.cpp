#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "rtcheck/harness.hpp"
#include "rtcheck/model_executor.hpp"
#include "runtime/coalescer.hpp"
#include "runtime/counters.hpp"
#include "runtime/lco_arena.hpp"
#include "runtime/ws_deque.hpp"

// The scenario suites: each builds fresh runtime objects per execution and
// runs *unmodified* runtime code on the harness's model threads; the sync
// hooks inside WsDeque/LcoArena/ParcelCoalescer/CounterRegistry are the
// schedule points.  Scenario-owned payloads are declared to the checker via
// ScenarioContext::plain_read/plain_write so the happens-before verifier
// covers the ownership-transfer edges the structures promise.

namespace amtfmm::rtcheck {

namespace {

struct DequeItem {
  int payload = 0;
};

CoalesceConfig coalesce_cfg() {
  CoalesceConfig cfg;
  cfg.enabled = true;
  cfg.max_parcels = 8;
  cfg.max_bytes = 1 << 20;
  return cfg;
}

Scenario deque_steal_vs_pop() {
  Scenario s;
  s.name = "deque.steal_vs_pop";
  s.summary =
      "owner pushes two items and pops; one thief steals — verifies the "
      "payload ownership transfer and that no item is lost or duplicated";
  s.make = [](ScenarioContext& ctx) {
    struct St {
      WsDeque<DequeItem> dq{8};
      std::array<DequeItem, 2> items{};
      std::array<DequeItem*, 2> popped{};
      DequeItem* stolen = nullptr;
      int stolen_val = -1;
      std::array<int, 2> popped_val{-1, -1};
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->items[0].payload, "items[0].payload");
    ctx.label(&st->items[1].payload, "items[1].payload");
    ScenarioRun run;
    run.bodies.push_back([st, &ctx] {  // T0: owner
      for (int i = 0; i < 2; ++i) {
        ctx.plain_write(&st->items[static_cast<std::size_t>(i)].payload);
        st->items[static_cast<std::size_t>(i)].payload = 10 + i;
        st->dq.push(&st->items[static_cast<std::size_t>(i)]);
      }
      for (int i = 0; i < 2; ++i) {
        DequeItem* it = st->dq.pop();
        st->popped[static_cast<std::size_t>(i)] = it;
        if (it != nullptr) {
          ctx.plain_read(&it->payload);
          st->popped_val[static_cast<std::size_t>(i)] = it->payload;
        }
      }
    });
    run.bodies.push_back([st, &ctx] {  // T1: thief
      DequeItem* it = st->dq.steal();
      st->stolen = it;
      if (it != nullptr) {
        ctx.plain_read(&it->payload);
        st->stolen_val = it->payload;
      }
    });
    run.finish = [st, &ctx] {
      std::set<DequeItem*> seen;
      int delivered = 0;
      for (DequeItem* p : {st->popped[0], st->popped[1], st->stolen}) {
        if (p == nullptr) continue;
        ++delivered;
        ctx.check(seen.insert(p).second, "item delivered twice");
      }
      ctx.check(delivered == 2, "an item was lost");
      if (st->stolen != nullptr) {
        ctx.check(st->stolen_val == st->stolen->payload,
                  "thief read a torn payload");
      }
    };
    return run;
  };
  return s;
}

Scenario deque_two_thieves() {
  Scenario s;
  s.name = "deque.two_thieves";
  s.summary =
      "two thieves race each other and the owner's pop for two items — "
      "verifies the top-CAS hands each item to exactly one consumer";
  s.make = [](ScenarioContext& ctx) {
    struct St {
      WsDeque<DequeItem> dq{8};
      std::array<DequeItem, 2> items{};
      std::array<DequeItem*, 3> got{};  // [owner, thief1, thief2]
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->items[0].payload, "items[0].payload");
    ctx.label(&st->items[1].payload, "items[1].payload");
    ScenarioRun run;
    run.bodies.push_back([st, &ctx] {  // T0: owner pushes 2, pops 1
      for (int i = 0; i < 2; ++i) {
        ctx.plain_write(&st->items[static_cast<std::size_t>(i)].payload);
        st->items[static_cast<std::size_t>(i)].payload = 20 + i;
        st->dq.push(&st->items[static_cast<std::size_t>(i)]);
      }
      st->got[0] = st->dq.pop();
      if (st->got[0] != nullptr) ctx.plain_read(&st->got[0]->payload);
    });
    for (int thief = 1; thief <= 2; ++thief) {
      run.bodies.push_back([st, &ctx, thief] {
        DequeItem* it = st->dq.steal();
        st->got[static_cast<std::size_t>(thief)] = it;
        if (it != nullptr) ctx.plain_read(&it->payload);
      });
    }
    run.finish = [st, &ctx] {
      std::set<DequeItem*> seen;
      int delivered = 0;
      for (DequeItem* p : st->got) {
        if (p == nullptr) continue;
        ++delivered;
        ctx.check(seen.insert(p).second, "item delivered twice");
      }
      // Anything not delivered must still be in the deque.
      while (DequeItem* p = st->dq.pop()) {
        ++delivered;
        ctx.check(seen.insert(p).second, "item delivered twice");
      }
      ctx.check(delivered == 2, "an item was lost");
    };
    return run;
  };
  return s;
}

Scenario deque_stress() {
  Scenario s;
  s.name = "deque.stress";
  s.summary =
      "owner interleaves four pushes with pops against two looping thieves "
      "(randomized exploration only; the space defeats bounded DFS)";
  s.dfs_feasible = false;
  s.make = [](ScenarioContext& ctx) {
    struct St {
      WsDeque<DequeItem> dq{8};
      std::array<DequeItem, 4> items{};
      std::array<std::set<DequeItem*>, 3> got{};
    };
    auto st = std::make_shared<St>();
    for (std::size_t i = 0; i < st->items.size(); ++i) {
      ctx.label(&st->items[i].payload,
                "items[" + std::to_string(i) + "].payload");
    }
    ScenarioRun run;
    run.bodies.push_back([st, &ctx] {  // T0: owner
      for (std::size_t i = 0; i < st->items.size(); ++i) {
        ctx.plain_write(&st->items[i].payload);
        st->items[i].payload = static_cast<int>(30 + i);
        st->dq.push(&st->items[i]);
        if (i % 2 == 1) {
          if (DequeItem* p = st->dq.pop()) {
            ctx.plain_read(&p->payload);
            ctx.check(st->got[0].insert(p).second, "owner popped an item twice");
          }
        }
      }
    });
    for (int thief = 1; thief <= 2; ++thief) {
      run.bodies.push_back([st, &ctx, thief] {
        for (int i = 0; i < 2; ++i) {
          if (DequeItem* p = st->dq.steal()) {
            ctx.plain_read(&p->payload);
            ctx.check(st->got[static_cast<std::size_t>(thief)].insert(p).second,
                      "thief stole an item twice");
          }
        }
      });
    }
    run.finish = [st, &ctx] {
      std::set<DequeItem*> seen;
      std::size_t delivered = 0;
      for (const auto& g : st->got) {
        for (DequeItem* p : g) {
          ++delivered;
          ctx.check(seen.insert(p).second, "item delivered twice");
        }
      }
      while (DequeItem* p = st->dq.pop()) {
        ++delivered;
        ctx.check(seen.insert(p).second, "item delivered twice");
      }
      ctx.check(delivered == st->items.size(), "an item was lost");
    };
    return run;
  };
  return s;
}

Scenario coalescer_flush_vs_enqueue() {
  Scenario s;
  s.name = "coalescer.flush_vs_enqueue";
  s.summary =
      "enqueues race a quiescence flush — verifies pending_per_src_ never "
      "under-reports the buffered parcels (idle-path emptiness probes)";
  s.make = [](ScenarioContext& ctx) {
    struct St {
      ParcelCoalescer co{2, coalesce_cfg()};
      std::size_t taken = 0;
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->co, "coalescer");
    ScenarioRun run;
    run.bodies.push_back([st] {  // T0: two enqueues from locality 0
      for (int i = 0; i < 2; ++i) {
        st->co.enqueue(0, 1, 16, Task{}, 0.0);
      }
    });
    run.bodies.push_back([st] {  // T1: quiescence flush of locality 0
      for (auto& b : st->co.take_all_from(0)) st->taken += b.tasks.size();
    });
    run.finish = [st, &ctx] {
      std::size_t total = st->taken;
      for (auto& b : st->co.take_all()) total += b.tasks.size();
      ctx.check(total == 2, "parcels lost across flush (" +
                                std::to_string(total) + " of 2)");
    };
    return run;
  };
  return s;
}

Scenario coalescer_quiescence() {
  Scenario s;
  s.name = "coalescer.quiescence";
  s.summary =
      "two producers against an idle prober that trusts pending_from()==0 — "
      "randomized exploration of the emptiness-probe invariant";
  s.dfs_feasible = false;
  s.make = [](ScenarioContext& ctx) {
    struct St {
      ParcelCoalescer co{2, coalesce_cfg()};
      std::size_t taken = 0;
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->co, "coalescer");
    ScenarioRun run;
    run.bodies.push_back([st] {
      st->co.enqueue(0, 1, 16, Task{}, 0.0);
      st->co.enqueue(0, 0, 16, Task{}, 0.0);
    });
    run.bodies.push_back([st] { st->co.enqueue(0, 1, 16, Task{}, 0.0); });
    run.bodies.push_back([st] {  // idle path: probe, flush only if pending
      for (int i = 0; i < 3; ++i) {
        if (!st->co.pending_from(0)) continue;
        for (auto& b : st->co.take_all_from(0)) st->taken += b.tasks.size();
      }
    });
    run.finish = [st, &ctx] {
      std::size_t total = st->taken;
      for (auto& b : st->co.take_all()) total += b.tasks.size();
      ctx.check(total == 3, "parcels lost across quiescence flush");
    };
    return run;
  };
  return s;
}

/// Node state an arena scenario reduces into: a plain accumulator per node
/// (declared to the checker, so an unserialized reduction is a race) and
/// the fires each node's triggering input reported.
struct ArenaProbe {
  ModelExecutor ex;
  LcoArena arena;
  std::vector<int> total;
  std::vector<int> fires;

  ArenaProbe(ScenarioContext& ctx, std::vector<std::uint32_t> in_degree)
      : arena(ex, in_degree.size()),
        total(in_degree.size(), 0),
        fires(in_degree.size(), 0) {
    arena.rearm(in_degree);
    for (std::size_t i = 0; i < total.size(); ++i) {
      if (in_degree[i] > 0) {
        ctx.label(&total[i], "total[" + std::to_string(i) + "]");
      }
    }
  }

  /// One input of `v` to node i; true when it triggered the node.
  bool add(ScenarioContext& ctx, std::uint32_t i, int v) {
    const bool fired = arena.input(i, [&] {
      ctx.plain_write(&total[i]);
      total[i] += v;
    });
    if (fired) ++fires[i];
    return fired;
  }
};

Scenario arena_trigger_once() {
  Scenario s;
  s.name = "arena.trigger_once";
  s.summary =
      "two threads race inputs into two 2-input arena nodes that share a "
      "stripe — verifies each node fires exactly once and the reductions "
      "are serialized under the stripe lock";
  s.make = [](ScenarioContext& ctx) {
    // Nodes 0 and kStripes share stripe 0; every other node has no inputs.
    constexpr std::uint32_t kB = LcoArena::kStripes;
    std::vector<std::uint32_t> deg(kB + 1, 0);
    deg[0] = 2;
    deg[kB] = 2;
    auto st = std::make_shared<ArenaProbe>(ctx, deg);
    ScenarioRun run;
    run.bodies.push_back([st, &ctx] {
      st->add(ctx, 0, 1);
      st->add(ctx, kB, 1);
    });
    run.bodies.push_back([st, &ctx] {
      st->add(ctx, kB, 1);
      st->add(ctx, 0, 1);
    });
    run.finish = [st, &ctx] {
      for (const std::uint32_t i : {0u, kB}) {
        ctx.check(st->arena.triggered(i), "node did not trigger");
        ctx.check(st->fires[i] == 1, "node fired " +
                                         std::to_string(st->fires[i]) +
                                         " times");
        ctx.check(st->total[i] == 2, "a reduction was lost");
      }
    };
    return run;
  };
  return s;
}

Scenario arena_rearm() {
  Scenario s;
  s.name = "arena.rearm";
  s.summary =
      "two threads race the inputs of a 2-input node; the triggering one "
      "re-arms the arena and delivers the next epoch — verifies rearm() "
      "restarts the countdown without tripping the double-fire detector";
  s.make = [](ScenarioContext& ctx) {
    auto st = std::make_shared<ArenaProbe>(ctx, std::vector<std::uint32_t>{2});
    ScenarioRun run;
    for (int t = 0; t < 2; ++t) {
      run.bodies.push_back([st, &ctx] {
        if (!st->add(ctx, 0, 1)) return;
        // Both epoch-1 inputs are in, so the arena is quiescent: the
        // trigger may re-arm it and run epoch 2.
        const std::uint32_t deg = 2;
        st->arena.rearm({&deg, 1});
        st->add(ctx, 0, 1);
        st->add(ctx, 0, 1);
      });
    }
    run.finish = [st, &ctx] {
      ctx.check(st->arena.triggered(0), "epoch 2 did not trigger");
      ctx.check(st->fires[0] == 2,
                "node fired " + std::to_string(st->fires[0]) +
                    " times over two epochs");
      ctx.check(st->total[0] == 4, "a reduction was lost");
    };
    return run;
  };
  return s;
}

Scenario park_sleep_vs_wake() {
  Scenario s;
  s.name = "park.sleep_vs_wake";
  s.summary =
      "ThreadExecutor's park/wake shape: a worker counts itself a sleeper, "
      "re-checks for work under the idle mutex and waits on the idle "
      "condvar while a producer publishes a task and wakes sleepers — a "
      "lost wakeup shows up as a model deadlock";
  s.make = [](ScenarioContext& ctx) {
    struct St {
      SyncMutex idle_mu;
      SyncCondVar idle_cv;
      std::atomic<int> sleepers{0};
      std::atomic<int> queued{0};
      std::uint64_t wake_epoch = 0;  ///< under idle_mu
      int task = 0;                  ///< the published work item
      int taken = -1;
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->idle_mu, "idle_mu");
    ctx.label(&st->idle_cv, "idle_cv");
    ctx.label(&st->sleepers, "sleepers");
    ctx.label(&st->queued, "queued");
    ctx.label(&st->task, "task");
    ScenarioRun run;
    run.bodies.push_back([st, &ctx] {  // T0: an idle worker parks
      {
        SyncUniqueLock lk(st->idle_mu);
        hooked_fetch_add(st->sleepers, 1, std::memory_order_seq_cst);
        // The re-check after announcing itself: either the producer sees
        // the sleeper or the sleeper sees the work.
        if (hooked_load(st->queued, std::memory_order_seq_cst) == 0) {
          const std::uint64_t e = st->wake_epoch;
          while (st->wake_epoch == e) st->idle_cv.wait(lk);
        }
        // relaxed-ok: retracting the announcement orders nothing.
        hooked_fetch_sub(st->sleepers, 1, std::memory_order_relaxed);
      }
      ctx.check(hooked_load(st->queued, std::memory_order_acquire) == 1,
                "worker woke without work");
      ctx.plain_read(&st->task);
      st->taken = st->task;
    });
    run.bodies.push_back([st, &ctx] {  // T1: a producer spawns
      ctx.plain_write(&st->task);
      st->task = 42;
      hooked_fetch_add(st->queued, 1, std::memory_order_seq_cst);
      if (hooked_load(st->sleepers, std::memory_order_seq_cst) == 0) return;
      {
        SyncLockGuard lk(st->idle_mu);
        ++st->wake_epoch;
      }
      st->idle_cv.notify_all();
    });
    run.finish = [st, &ctx] {
      ctx.check(st->taken == 42, "the published task was not taken");
    };
    return run;
  };
  return s;
}

Scenario counters_snapshot_consistency() {
  Scenario s;
  s.name = "counters.snapshot_consistency";
  s.summary =
      "a snapshot races a histogram observe — verifies count-last with "
      "release keeps count covered by the sum and buckets it reports";
  s.make = [](ScenarioContext& ctx) {
    struct St {
      CounterRegistry reg{2};
      CounterRegistry::Id h = CounterRegistry::kNoId;
      St() {
        h = reg.histogram("rtcheck.probe");
        reg.set_enabled(true);
      }
    };
    auto st = std::make_shared<St>();
    ScenarioRun run;
    run.bodies.push_back([st] { st->reg.observe(0, st->h, 4); });
    run.bodies.push_back([st, &ctx] {
      const CounterSnapshot snap = st->reg.snapshot();
      for (const auto& h : snap.histograms) {
        if (h.name != "rtcheck.probe") continue;
        std::uint64_t in_buckets = 0;
        for (std::uint64_t b : h.buckets) in_buckets += b;
        ctx.check(h.sum >= h.count * 4,
                  "snapshot count outruns its sum (count=" +
                      std::to_string(h.count) +
                      " sum=" + std::to_string(h.sum) + ")");
        ctx.check(in_buckets >= h.count, "snapshot count outruns its buckets");
      }
    });
    run.finish = [st, &ctx] {
      const CounterSnapshot snap = st->reg.snapshot();
      ctx.check(!snap.histograms.empty() && snap.histograms[0].count == 1 &&
                    snap.histograms[0].sum == 4,
                "final snapshot wrong");
    };
    return run;
  };
  return s;
}

// Self-check scenarios: deliberately buggy micro-programs that validate the
// detectors themselves; the harness must flag every one of them.

Scenario selfcheck_double_fire() {
  Scenario s;
  s.name = "selfcheck.double_fire";
  s.summary = "emits kLcoFire twice — the trigger-once detector must flag it";
  s.expect_fail = true;
  s.make = [](ScenarioContext& ctx) {
    auto st = std::make_shared<int>(0);
    ctx.label(st.get(), "probe-lco");
    ScenarioRun run;
    for (int t = 0; t < 2; ++t) {
      run.bodies.push_back(
          [st] { sync_event(SyncKind::kLcoFire, st.get(), 0); });
    }
    return run;
  };
  return s;
}

Scenario selfcheck_plain_race() {
  Scenario s;
  s.name = "selfcheck.plain_race";
  s.summary =
      "two unsynchronized plain writes — the happens-before checker must "
      "flag them in every schedule";
  s.expect_fail = true;
  s.make = [](ScenarioContext& ctx) {
    auto st = std::make_shared<int>(0);
    ctx.label(st.get(), "shared-int");
    ScenarioRun run;
    for (int t = 0; t < 2; ++t) {
      run.bodies.push_back([st, &ctx] {
        ctx.plain_write(st.get());
        *st += 1;
      });
    }
    return run;
  };
  return s;
}

Scenario selfcheck_deadlock() {
  Scenario s;
  s.name = "selfcheck.deadlock";
  s.summary =
      "classic lock-order inversion over two SyncMutexes — DFS must reach "
      "the deadlocking interleaving and report it";
  s.expect_fail = true;
  s.make = [](ScenarioContext& ctx) {
    struct St {
      SyncMutex a;
      SyncMutex b;
    };
    auto st = std::make_shared<St>();
    ctx.label(&st->a, "mutex-a");
    ctx.label(&st->b, "mutex-b");
    ScenarioRun run;
    run.bodies.push_back([st] {
      std::lock_guard la(st->a);
      std::lock_guard lb(st->b);
    });
    run.bodies.push_back([st] {
      std::lock_guard lb(st->b);
      std::lock_guard la(st->a);
    });
    return run;
  };
  return s;
}

Scenario serve_reset_vs_late_input() {
  Scenario s;
  s.name = "serve.reset_vs_late_input";
  s.summary =
      "an epoch re-arm races a straggler fire from the previous epoch "
      "(modeled as raw sync events: an input to a triggered arena node "
      "aborts) — the "
      "detector must reach a schedule where the late fire lands after the "
      "re-arm and charge it to the new epoch's once-only budget";
  s.expect_fail = true;
  s.make = [](ScenarioContext& ctx) {
    auto st = std::make_shared<int>(0);
    ctx.label(st.get(), "resident-lco");
    ScenarioRun run;
    // Epoch 1's fire, possibly late: a boundary that does NOT wait for
    // quiescence lets this land after the re-arm.
    run.bodies.push_back([st] { sync_event(SyncKind::kLcoFire, st.get(), 0); });
    // The boundary re-arms and epoch 2 runs to completion (its own fire).
    run.bodies.push_back([st] {
      sync_event(SyncKind::kLcoRearm, st.get(), 1);
      sync_event(SyncKind::kLcoFire, st.get(), 0);
    });
    return run;
  };
  return s;
}

Scenario serve_epoch_quiescence() {
  Scenario s;
  s.name = "serve.epoch_quiescence";
  s.summary =
      "a quiescence-gated epoch boundary (flush the coalescer, then re-arm) "
      "races a producer and the epoch-1 fire — randomized exploration that "
      "the drained-then-rearm protocol never loses parcels or double-fires";
  s.dfs_feasible = false;
  s.make = [](ScenarioContext& ctx) {
    struct St {
      ParcelCoalescer co{2, coalesce_cfg()};
      ArenaProbe node;
      std::size_t flushed = 0;
      bool rearmed = false;
      explicit St(ScenarioContext& c) : node(c, {1}) {}
    };
    auto st = std::make_shared<St>(ctx);
    ctx.label(&st->co, "coalescer");
    ScenarioRun run;
    run.bodies.push_back(  // epoch-1 final input
        [st, &ctx] { st->node.add(ctx, 0, 1); });
    run.bodies.push_back([st] {  // epoch-1 parcel traffic
      st->co.enqueue(0, 1, 16, Task{}, 0.0);
      st->co.enqueue(0, 1, 16, Task{}, 0.0);
    });
    run.bodies.push_back([st] {  // boundary: only past a quiescent transport
      if (!st->node.arena.triggered(0)) return;  // epoch 1 still running
      if (st->co.pending_from(0)) {
        for (auto& b : st->co.take_all_from(0)) {
          st->flushed += b.tasks.size();
        }
      }
      const std::uint32_t deg = 1;
      st->node.arena.rearm({&deg, 1});
      st->rearmed = true;
    });
    run.finish = [st, &ctx] {
      std::size_t total = st->flushed;
      for (auto& b : st->co.take_all()) total += b.tasks.size();
      ctx.check(total == 2, "parcels lost across the epoch boundary");
      if (st->rearmed) {
        st->node.add(ctx, 0, 1);  // epoch 2 on the re-armed node
        ctx.check(st->node.arena.triggered(0), "epoch 2 did not trigger");
        ctx.check(st->node.fires[0] == 2 && st->node.total[0] == 2,
                  "an epoch-2 reduction was lost");
      } else {
        ctx.check(st->node.arena.triggered(0) && st->node.total[0] == 1,
                  "epoch 1 lost its reduction");
      }
    };
    return run;
  };
  return s;
}

}  // namespace

const std::vector<Scenario>& all_scenarios() {
  static const std::vector<Scenario> kScenarios = {
      deque_steal_vs_pop(),
      deque_two_thieves(),
      deque_stress(),
      coalescer_flush_vs_enqueue(),
      coalescer_quiescence(),
      arena_trigger_once(),
      arena_rearm(),
      park_sleep_vs_wake(),
      counters_snapshot_consistency(),
      serve_reset_vs_late_input(),
      serve_epoch_quiescence(),
      selfcheck_double_fire(),
      selfcheck_plain_race(),
      selfcheck_deadlock(),
  };
  return kScenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : all_scenarios()) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace amtfmm::rtcheck
