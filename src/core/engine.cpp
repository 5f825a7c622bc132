#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <utility>

#include "runtime/locality_runtime.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {
namespace {

/// Fixed header of an eval parcel: the serialized source expansion plus the
/// out-edge ids it feeds at the destination locality.
struct ParcelHeader {
  std::uint32_t source;      ///< source DAG node
  std::uint16_t num_edges;
  std::uint16_t num_sections;
};
static_assert(sizeof(ParcelHeader) == 8);

/// One serialized payload section of an eval parcel.  Sections follow the
/// edge-id table, so their payloads are *not* alignment-guaranteed —
/// deserialization always memcpys into local storage.
struct SectionHeader {
  std::uint8_t slot;  ///< PayloadSlot
  std::uint8_t dir;
  std::uint16_t reserved;
  std::uint32_t bytes;
};
static_assert(sizeof(SectionHeader) == 8);

/// Fixed header of a source-computed contribution parcel (S2L, I2L): the
/// packed L payload follows.
struct ContribHeader {
  std::uint32_t target;  ///< destination DAG node
  std::uint8_t op;
  std::uint8_t pad8 = 0;
  std::uint16_t pad16 = 0;
};
static_assert(sizeof(ContribHeader) == 8);

/// A contribution parcel's payload: the header, then `packed` bytes for the
/// sender to fill with the packed L expansion (none in cost-only mode).
std::shared_ptr<std::vector<std::byte>> contribution_payload(
    const DagEdge& e, std::size_t packed) {
  auto buf =
      std::make_shared<std::vector<std::byte>>(sizeof(ContribHeader) + packed);
  const ContribHeader h{e.target, static_cast<std::uint8_t>(e.op), 0, 0};
  std::memcpy(buf->data(), &h, sizeof(h));
  return buf;
}

constexpr std::size_t kBytesPerPoint = 32;  // x, y, z, q doubles

/// Zero-pads `v` to exactly `want` coefficients (staging through `stage`
/// when the stored segment is shorter, e.g. a never-accumulated direction).
CoeffSpan sized(CoeffSpan v, std::size_t want, CoeffVec& stage) {
  if (v.size() == want) return v;
  AMTFMM_ASSERT(v.size() < want);
  stage.assign(v.begin(), v.end());
  stage.resize(want, cdouble{});
  return stage;
}

/// Segments an edge's contribution writes at its target.
std::uint16_t segments_written(const DagEdge& e) {
  switch (e.op) {
    case Operator::kS2M:
    case Operator::kM2M:
    case Operator::kM2L:
    case Operator::kS2L:
    case Operator::kL2L:
    case Operator::kI2L:
      return 1u << kSegMain;
    case Operator::kS2T:
    case Operator::kM2T:
    case Operator::kL2T:
      return 1u << kSegPhi;
    case Operator::kM2I:
      return 0x3fu << kSegOwn;  // every direction
    case Operator::kI2I:
      return static_cast<std::uint16_t>(
          1u << ((e.slot == 1 ? kSegFwd : kSegOwn) + e.dir));
  }
  return 0;
}

bool is_high(Operator op) {
  return op == Operator::kS2M || op == Operator::kM2M || op == Operator::kM2I;
}

}  // namespace

DagEngine::DagEngine(const Dag& dag, const DualTree& dt, const Kernel& kernel,
                     Executor& ex, EngineOptions opt)
    : dag_(dag),
      dt_(dt),
      kernel_(kernel),
      ex_(ex),
      trace_(ex.trace()),
      opt_(std::move(opt)),
      arena_(ex, dag.nodes.size()) {}

DagEngine::~DagEngine() {
  ex_.unregister_net_handler(kNetKindEvalParcel);
  ex_.unregister_net_handler(kNetKindContribution);
}

double DagEngine::execute(std::span<const double> charges,
                          std::span<double> potentials) {
  charges_ = charges;
  potentials_ = potentials;
  if (!opt_.cost) {
    AMTFMM_ASSERT(charges.size() == dt_.source.num_points());
    AMTFMM_ASSERT(potentials.size() == dt_.target.num_points());
    std::fill(potentials.begin(), potentials.end(), 0.0);
  }
  // relaxed-ok: statistic reset before any worker runs; executor spawn
  // publishes it.
  wire_bytes_.store(0, std::memory_order_relaxed);
  // Every executor runs an arriving parcel through its kind's handler; the
  // handlers must exist before any parcel (a socket peer's included) can
  // arrive.
  ex_.register_net_handler(
      kNetKindEvalParcel,
      [this](const std::vector<std::byte>& b) { process_parcel(b); });
  ex_.register_net_handler(
      kNetKindContribution,
      [this](const std::vector<std::byte>& b) { process_contribution(b); });
  gas_allocs_epoch_ = 0;
  if (!instantiated_) {
    instantiate();
    instantiated_ = true;
    last_reset_seconds_ = 0.0;
    gas_allocs_epoch_ = dag_.nodes.size();
  } else {
    const auto r0 = std::chrono::steady_clock::now();
    reset_for_epoch();
    last_reset_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - r0)
            .count();
  }
  auto& ctr = ex_.counters();
  if (ctr.enabled()) {
    // Node-count high-water per locality: every node's countdown is
    // resident for the whole run.
    const auto& ids = ex_.runtime().ids();
    for (int l = 0; l < ex_.num_localities(); ++l) {
      ctr.gauge_max(0, ids.gas_objects_hw,
                    objects_on(static_cast<std::uint32_t>(l)));
    }
    ctr.add(0, ids.serve_epochs);
    if (instantiated_ && epoch_ > 0) {
      ctr.observe(0, ids.serve_reset_us,
                  static_cast<std::uint64_t>(last_reset_seconds_ * 1e6));
    }
  }
  if (!opt_.cost) {
    // Startup barrier for socket localities: an empty drain rendezvouses
    // every rank (the termination protocol agrees on the all-zero counter
    // cut), so no peer can have seeded — and therefore no eval parcel can
    // arrive — until every rank has finished instantiate() and registered
    // its handlers.  Without it a fast peer's parcels race the per-node
    // arrays' fill above.  On later epochs the same barrier keeps any rank
    // from seeding until every rank has re-armed its resident arena, so no
    // cross-epoch parcel can reach an un-reset node.  No-op on in-process
    // executors (nothing is in flight).
    ex_.drain();
  }
  const double t0 = ex_.now();
  drained_ = false;
  if (ex_.single_threaded()) {
    // The sim runs every task on this thread: seeding here, in node order,
    // keeps its event order (and virtual times) as they were.
    for (NodeIndex ni = 0; ni < dag_.nodes.size(); ++ni) seed(ni);
  } else {
    // Root tasks on each hosted locality seed its nodes from one of its
    // workers, so the spawns land on that worker's deque in node order and
    // one worker repeats an epoch bit for bit.  A socket rank hosts only
    // its own locality.
    for (int l = 0; l < ex_.num_localities(); ++l) {
      const auto loc = static_cast<std::uint32_t>(l);
      if (ex_.locality_is_local(loc)) spawn_seeds(loc, 0);
    }
  }
  ex_.drain();
  drained_ = true;
#ifndef NDEBUG
  // Release check: every node's last consumer (or its fire, or
  // finalize_target) freed its payload.
  for (const auto& seg : seg_data_) {
    AMTFMM_ASSERT_MSG(!seg, "payload segment still live after the drain");
  }
#endif
  ++epoch_;
  const double makespan = ex_.now() - t0;
  if (ctr.enabled()) {
    // Epoch latency histogram: the live-telemetry serve view (amtfmm_top)
    // derives its p50/p99 from per-window deltas of these buckets.
    ctr.observe(0, ex_.runtime().ids().serve_epoch_us,
                static_cast<std::uint64_t>(makespan * 1e6));
  }
  return makespan;
}

void DagEngine::reset_for_epoch() {
  arena_.rearm(in_degree_);
  std::fill(written_.begin(), written_.end(), std::uint16_t{0});
  for (NodeIndex ni = 0; ni < dag_.nodes.size(); ++ni) {
    // relaxed-ok: quiescent between drains; spawn publishes the reset.
    consumers_[ni].store(0, std::memory_order_relaxed);
  }
  // A drained epoch freed every payload; one that aborted mid-way (a dead
  // socket mesh) may not have, and a stale segment must not take inputs.
  if (!drained_) {
    for (auto& seg : seg_data_) seg.reset();
  }
}

void DagEngine::instantiate() {
  const std::size_t n = dag_.nodes.size();
  in_degree_.resize(n);
  seg_in_.assign(n, 0);
  nodes_on_.assign(static_cast<std::size_t>(ex_.num_localities()), 0);
  for (NodeIndex ni = 0; ni < n; ++ni) {
    const DagNode& node = dag_.nodes[ni];
    in_degree_[ni] = node.in_degree;
    ++nodes_on_[node.locality];
    for (std::uint32_t e = node.first_edge;
         e < node.first_edge + node.num_edges; ++e) {
      seg_in_[dag_.edges[e].target] |= segments_written(dag_.edges[e]);
    }
  }
  seg_first_.resize(n);
  std::uint32_t slots = 0;
  for (NodeIndex ni = 0; ni < n; ++ni) {
    seg_first_[ni] = slots;
    slots += count_segments(seg_in_[ni]);
  }
  seg_data_.resize(slots);
  written_.assign(n, 0);
  consumers_ = std::make_unique<std::atomic<int>[]>(n);
  arena_.rearm(in_degree_);
}

void DagEngine::spawn_seeds(std::uint32_t loc, NodeIndex from) {
  // Seeding ~100k nodes takes a one-worker locality ~15 ms, so it runs in
  // chunks: each root task spawns the next one before seeding its own
  // chunk, and the owner's LIFO pops run the chunk's tasks first.  The
  // worker starts executing (and sending) early, and a thief takes the
  // continuation when the locality has more workers.
  constexpr NodeIndex kChunk = 8192;
  Task t;
  t.locality = loc;
  t.fn = [this, loc, from] {
    const auto n = static_cast<NodeIndex>(dag_.nodes.size());
    const NodeIndex end = std::min<NodeIndex>(n, from + kChunk);
    if (end < n) spawn_seeds(loc, end);
    for (NodeIndex ni = from; ni < end; ++ni) {
      if (dag_.nodes[ni].locality == loc) seed(ni);
    }
  };
  ex_.spawn(std::move(t));
}

void DagEngine::seed(NodeIndex ni) {
  const DagNode& n = dag_.nodes[ni];
  if (n.kind == NodeKind::kS) {
    // Sources have no inputs: walk their out-edges directly.
    spawn_edge_tasks(ni);
  } else if (n.in_degree == 0 && n.kind == NodeKind::kT) {
    // A target box no source can see: its potentials are exactly zero.
    Task t;
    t.locality = n.locality;
    t.fn = [this, ni] { finalize_target(ni); };
    ex_.spawn(std::move(t));
  }
}

void DagEngine::input(NodeIndex ni, const Contribution& c) {
  if (arena_.input(ni, [&] { reduce(ni, c); })) on_node_triggered(ni);
}

void DagEngine::reduce(NodeIndex ni, const Contribution& c) {
#ifndef NDEBUG
  check_home(ni);
#endif
  for (const Contribution::Record& r : c.records()) {
    const int seg = r.seg;
    AMTFMM_ASSERT_MSG((seg_in_[ni] >> seg) & 1u,
                      "input to a segment no in-edge writes");
    const std::size_t len = segment_len(ni, seg);
    AMTFMM_ASSERT_MSG(r.count == len, "input segment length mismatch");
    auto& data = seg_data_[segment_slot(ni, seg)];
    if (!((written_[ni] >> seg) & 1u)) {
      // First record of this segment: zeroed storage, two potentials to a
      // cdouble for kSegPhi.
      data = std::make_unique<cdouble[]>(seg == kSegPhi ? (len + 1) / 2 : len);
      written_[ni] = static_cast<std::uint16_t>(written_[ni] | (1u << seg));
    }
    r.add_to(data.get());
  }
}

std::size_t DagEngine::segment_len(NodeIndex ni, int seg) const {
  const DagNode& n = dag_.nodes[ni];
  if (seg == kSegMain) {
    return n.kind == NodeKind::kM ? kernel_.m_count(n.level)
                                  : kernel_.l_count(n.level);
  }
  if (seg == kSegPhi) return dt_.target.box(n.box).count;
  // own[d] at the node's level; fwd[d] (It only) at the child quadrature
  // level.
  return kernel_.x_count(n.level + (seg >= kSegFwd ? 1 : 0));
}

CoeffSpan DagEngine::segment_view(NodeIndex ni, int seg) const {
  if (!((written_[ni] >> seg) & 1u)) return {};
  return {seg_data_[segment_slot(ni, seg)].get(), segment_len(ni, seg)};
}

void DagEngine::retain(NodeIndex ni, int n) {
  // relaxed-ok: retains precede the consumer spawns (spawn publishes);
  // the final release (acq_rel below) orders the free against readers.
  consumers_[ni].fetch_add(n, std::memory_order_relaxed);
}

void DagEngine::release(NodeIndex ni) {
  if (consumers_[ni].fetch_sub(1, std::memory_order_acq_rel) == 1) {
    free_payload(ni);
  }
}

void DagEngine::free_payload(NodeIndex ni) {
  const std::size_t first = seg_first_[ni];
  const std::size_t count = count_segments(seg_in_[ni]);
  for (std::size_t k = first; k < first + count; ++k) seg_data_[k].reset();
}

void DagEngine::check_home(NodeIndex ni) const {
  const int loc = ex_.current_locality();
  AMTFMM_ASSERT_MSG(loc < 0 || loc == static_cast<int>(dag_.nodes[ni].locality),
                    "expansion payload touched off its home locality");
}

void DagEngine::on_node_triggered(NodeIndex ni) {
  if (dag_.nodes[ni].kind == NodeKind::kT) {
    finalize_target(ni);
    return;
  }
  spawn_edge_tasks(ni);
}

DagEngine::SourceView DagEngine::local_view(NodeIndex ni) const {
  const DagNode& n = dag_.nodes[ni];
  SourceView v;
  if (n.kind == NodeKind::kS) {
    const TreeBox& box = dt_.source.box(n.box);
    v.pts = std::span<const Vec3>(dt_.source.sorted_points())
                .subspan(box.first, box.count);
    v.q = charges_.subspan(box.first, box.count);
    return v;
  }
#ifndef NDEBUG
  check_home(ni);
#endif
  v.main = segment_view(ni, kSegMain);
  for (int d = 0; d < 6; ++d) {
    v.own[static_cast<std::size_t>(d)] = segment_view(ni, kSegOwn + d);
    v.fwd[static_cast<std::size_t>(d)] = segment_view(ni, kSegFwd + d);
  }
  return v;
}

void DagEngine::spawn_edge_tasks(NodeIndex ni) {
  const DagNode& n = dag_.nodes[ni];
  if (n.num_edges == 0) {
    // No consumer: the payload is dead at fire.
    free_payload(ni);
    return;
  }
  const bool compute = !opt_.cost;

  // Classify out edges: local ones run from the CSR range in one task per
  // priority class; remote ones are bucketed into one eval parcel per
  // remote locality, or per-edge contribution parcels for the
  // source-computed operators.  The buckets allocate only for nodes that
  // have such edges.
  std::uint32_t local[2] = {0, 0};  // local edges by class: low, high
  std::vector<std::uint32_t> contrib;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> remote;
  auto remote_bucket = [&](std::uint32_t loc) -> std::vector<std::uint32_t>& {
    for (auto& [l, v] : remote) {
      if (l == loc) return v;
    }
    remote.emplace_back(loc, std::vector<std::uint32_t>{});
    return remote.back().second;
  };
  auto& ctr = ex_.counters();
  const bool counting = ctr.enabled();
  const int cw = counting ? LocalityRuntime::metric_worker() : 0;
  for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges; ++e) {
    const DagEdge& edge = dag_.edges[e];
    if (counting) {
      ctr.add(cw, ex_.runtime().ids().op_tasks[static_cast<std::size_t>(
                      edge.op)]);
    }
    const std::uint32_t tloc = dag_.nodes[edge.target].locality;
    if (tloc == n.locality) {
      ++local[opt_.split_priority && is_high(edge.op) ? 1 : 0];
    } else if (source_computed(edge.op)) {
      contrib.push_back(e);
    } else {
      remote_bucket(tloc).push_back(e);
    }
  }

  auto cost_item = [&](std::uint32_t e) {
    const DagEdge& edge = dag_.edges[e];
    return CostItem{static_cast<std::uint8_t>(edge.op),
                    opt_.cost->cost(edge.op, edge.cost_metric), e};
  };

  // Serialize eval parcels before any consumer can release the payload
  // (this thread is on the node's home locality — the last input always
  // arrives there).  The wire size is the full parcel's in both modes: the
  // payload's size in compute mode, charged for a prefix in cost-only mode.
  std::vector<std::pair<std::uint64_t, Task>> parcels;  // wire bytes, parcel
  parcels.reserve(remote.size());
  for (auto& [loc, ids] : remote) {
    Task t;
    t.locality = loc;
    t.high_priority =
        opt_.split_priority && is_high(dag_.edges[ids.front()].op);
    t.net_kind = kNetKindEvalParcel;
    t.net_payload = std::make_shared<const std::vector<std::byte>>(
        serialize_parcel(ni, ids));
    const std::uint64_t bytes = parcel_wire_bytes(ni, ids);
    AMTFMM_ASSERT(!compute || t.net_payload->size() == bytes);
    if (!compute) {
      t.items.reserve(ids.size());
      for (const std::uint32_t e : ids) t.items.push_back(cost_item(e));
    }
    parcels.emplace_back(bytes, std::move(t));
  }

  const bool has_payload = compute && n.kind != NodeKind::kS;
  if (has_payload) {
    const int consumers = static_cast<int>(local[1] != 0) +
                          static_cast<int>(local[0] != 0) +
                          static_cast<int>(contrib.size());
    retain(ni, consumers + 1);
  }

  // A local task captures only (node, class), which std::function keeps
  // in its inline buffer.
  auto spawn_local = [&](bool high) {
    Task t;
    t.locality = n.locality;
    t.high_priority = high;
    if (compute) {
      t.fn = [this, ni, high] { process_local(ni, high); };
    } else {
      t.items.reserve(local[high ? 1 : 0]);
      for_local_edges(ni, high, [&](std::uint32_t e) {
        t.items.push_back(cost_item(e));
      });
      t.fn = [this, ni, high] {
        const Contribution none;
        for_local_edges(ni, high, [&](std::uint32_t e) {
          input(dag_.edges[e].target, none);
        });
      };
    }
    ex_.spawn(std::move(t));
  };
  if (local[1] != 0) spawn_local(true);
  if (local[0] != 0) spawn_local(false);

  for (const std::uint32_t e : contrib) {
    const DagEdge& edge = dag_.edges[e];
    const std::uint32_t tloc = dag_.nodes[edge.target].locality;
    if (compute) {
      // The contribution is computed by a task on the source locality
      // (reading the payload), then shipped packed.
      Task t;
      t.locality = n.locality;
      t.fn = [this, ni, e] { send_contribution(ni, e); };
      ex_.spawn(std::move(t));
    } else {
      // Cost-only: the header alone, charged at the packed size.
      Task t;
      t.locality = tloc;
      t.net_kind = kNetKindContribution;
      t.net_payload = contribution_payload(edge, 0);
      t.items = {cost_item(e)};
      send_parcel(n.locality, contribution_wire_bytes(edge), std::move(t));
    }
  }

  for (auto& [bytes, t] : parcels) send_parcel(n.locality, bytes, std::move(t));

  if (has_payload) release(ni);
}

template <class F>
void DagEngine::for_local_edges(NodeIndex ni, bool high, F&& f) const {
  const DagNode& n = dag_.nodes[ni];
  for (std::uint32_t e = n.first_edge; e < n.first_edge + n.num_edges; ++e) {
    const DagEdge& edge = dag_.edges[e];
    if (dag_.nodes[edge.target].locality != n.locality) continue;
    if (opt_.split_priority && is_high(edge.op) != high) continue;
    f(e);
  }
}

simd::P2PBatch DagEngine::P2PScratch::batch(std::span<const Vec3> src_pts,
                                            std::span<const double> src_q,
                                            std::span<const Vec3> tgt_pts) {
  if (!b_) {
    auto& arena = ScratchArena::local();
    // emplace: Buffers holds move-only leases (parenthesized agg init).
    b_.emplace(arena.soa(), arena.soa(), arena.soa(), arena.soa(),
               arena.soa(), arena.soa(), arena.soa(), arena.soa());
  }
  Buffers& b = *b_;
  if (!b.sources_staged) {
    b.sources_staged = true;
    const std::size_t ns = src_pts.size();
    b.sx->resize(ns);
    b.sy->resize(ns);
    b.sz->resize(ns);
    b.sq->resize(ns);
    for (std::size_t j = 0; j < ns; ++j) {
      (*b.sx)[j] = src_pts[j].x;
      (*b.sy)[j] = src_pts[j].y;
      (*b.sz)[j] = src_pts[j].z;
      (*b.sq)[j] = src_q[j];
    }
  }
  const std::size_t nt = tgt_pts.size();
  b.tx->resize(nt);
  b.ty->resize(nt);
  b.tz->resize(nt);
  for (std::size_t i = 0; i < nt; ++i) {
    (*b.tx)[i] = tgt_pts[i].x;
    (*b.ty)[i] = tgt_pts[i].y;
    (*b.tz)[i] = tgt_pts[i].z;
  }
  b.phi->assign(nt, 0.0);
  simd::P2PBatch out;
  out.tx = b.tx->data();
  out.ty = b.ty->data();
  out.tz = b.tz->data();
  out.nt = nt;
  out.sx = b.sx->data();
  out.sy = b.sy->data();
  out.sz = b.sz->data();
  out.sq = b.sq->data();
  out.ns = b.sx->size();
  out.phi = b.phi->data();
  return out;
}

void DagEngine::process_local(NodeIndex ni, bool high) {
  const DagNode& n = dag_.nodes[ni];
  const SourceView src = local_view(ni);
  TaskScratch scratch(ScratchArena::local());
  for_local_edges(ni, high, [&](std::uint32_t e) {
    const DagEdge& edge = dag_.edges[e];
    Contribution c;
    {
      ScopedTrace st(ex_, trace_, static_cast<std::uint8_t>(edge.op), e);
      apply_edge(ni, edge, src, scratch, c);
    }
    input(edge.target, c);
  });
  if (n.kind != NodeKind::kS) release(ni);
}

void DagEngine::apply_edge(NodeIndex from, const DagEdge& e,
                           const SourceView& src, TaskScratch& s,
                           Contribution& c) {
  auto in_source_tree = [](const DagNode& n) {
    return n.kind == NodeKind::kS || n.kind == NodeKind::kM ||
           n.kind == NodeKind::kIs;
  };
  const DagNode& fn = dag_.nodes[from];
  const DagNode& tn = dag_.nodes[e.target];
  const TreeBox& fbox = in_source_tree(fn) ? dt_.source.box(fn.box)
                                           : dt_.target.box(fn.box);
  const TreeBox& tbox = in_source_tree(tn) ? dt_.source.box(tn.box)
                                           : dt_.target.box(tn.box);
  // Target points exist only under target-tree boxes (the T nodes the
  // evaluation operators feed); a source-tree box indexes other points.
  std::span<const Vec3> tgt_pts;
  if (!in_source_tree(tn)) {
    const std::vector<Vec3>& pts = dt_.target.sorted_points();
    AMTFMM_ASSERT_MSG(tbox.first <= pts.size() &&
                          tbox.count <= pts.size() - tbox.first,
                      "target box slice past the target points");
    tgt_pts = std::span<const Vec3>(pts).subspan(tbox.first, tbox.count);
  }

  CoeffVec& coeffs = *s.coeffs;
  std::vector<double>& phi = *s.reals;
  switch (e.op) {
    case Operator::kS2M: {
      kernel_.s2m(src.pts, src.q, tbox.cube.center(), tbox.level, coeffs);
      c.add(kSegMain, coeffs);
      break;
    }
    case Operator::kM2M: {
      coeffs.assign(kernel_.m_count(tbox.level), cdouble{});
      kernel_.m2m_acc(src.main, fbox.cube.center(), tbox.cube.center(),
                      fbox.level, coeffs);
      c.add(kSegMain, coeffs);
      break;
    }
    case Operator::kM2L: {
      coeffs.assign(kernel_.l_count(tbox.level), cdouble{});
      kernel_.m2l_acc(src.main, fbox.cube.center(), tbox.cube.center(),
                      tbox.level, coeffs);
      c.add(kSegMain, coeffs);
      break;
    }
    case Operator::kS2L: {
      coeffs.assign(kernel_.l_count(tbox.level), cdouble{});
      kernel_.s2l_acc(src.pts, src.q, tbox.cube.center(), tbox.level, coeffs);
      c.add(kSegMain, coeffs);
      break;
    }
    case Operator::kM2T: {
      phi.assign(tbox.count, 0.0);
      for (std::uint32_t i = 0; i < tbox.count; ++i) {
        phi[i] += kernel_.m2t(src.main, fbox.cube.center(), fbox.level,
                              tgt_pts[i]);
      }
      c.add_phi(phi);
      break;
    }
    case Operator::kL2L: {
      coeffs.assign(kernel_.l_count(tbox.level), cdouble{});
      kernel_.l2l_acc(src.main, fbox.cube.center(), tbox.cube.center(),
                      tbox.level, coeffs);
      c.add(kSegMain, coeffs);
      break;
    }
    case Operator::kL2T: {
      phi.assign(tbox.count, 0.0);
      for (std::uint32_t i = 0; i < tbox.count; ++i) {
        phi[i] += kernel_.l2t(src.main, fbox.cube.center(), fbox.level,
                              tgt_pts[i]);
      }
      c.add_phi(phi);
      break;
    }
    case Operator::kS2T: {
      // Leaf near field: SoA-staged batch through the dispatched SIMD
      // kernels (sources gathered once per task, targets per edge).
      const simd::P2PBatch b = s.p2p.batch(src.pts, src.q, tgt_pts);
      kernel_.s2t_batch(b);
      c.add_phi({b.phi, b.nt});
      break;
    }
    case Operator::kM2I: {
      // One record per direction, all six in the coefficient buffer; still
      // one input (one edge).
      auto dir = ScratchArena::local().coeffs();
      std::array<std::size_t, 7> off{};
      coeffs.clear();
      for (std::size_t d = 0; d < 6; ++d) {
        kernel_.m2i(src.main, fbox.level, kAllAxes[d], *dir);
        coeffs.insert(coeffs.end(), dir->begin(), dir->end());
        off[d + 1] = coeffs.size();
      }
      const CoeffSpan all = coeffs;
      for (std::size_t d = 0; d < 6; ++d) {
        c.add(kSegOwn + static_cast<int>(d),
              all.subspan(off[d], off[d + 1] - off[d]));
      }
      break;
    }
    case Operator::kI2I: {
      // Quadrature level: the finer of the two endpoints (merge edges rise
      // a level, shift edges descend one).
      const int qlevel = std::max(fbox.level, tbox.level);
      const auto d = static_cast<std::size_t>(e.dir);
      const CoeffSpan in = (fn.kind == NodeKind::kIs) ? src.own[d] : src.fwd[d];
      const Vec3 offset = tbox.cube.center() - fbox.cube.center();
      coeffs.assign(kernel_.x_count(qlevel), cdouble{});
      kernel_.i2i_acc(in, kAllAxes[d], offset, qlevel, coeffs);
      c.add((e.slot == 1 ? kSegFwd : kSegOwn) + e.dir, coeffs);
      break;
    }
    case Operator::kI2L: {
      coeffs.assign(kernel_.l_count(tbox.level), cdouble{});
      for (std::size_t d = 0; d < 6; ++d) {
        if (!src.own[d].empty()) {
          kernel_.i2l_acc(src.own[d], kAllAxes[d], fbox.level, coeffs);
        }
      }
      c.add(kSegMain, coeffs);
      break;
    }
  }
}

std::uint64_t DagEngine::parcel_wire_bytes(
    NodeIndex ni, std::span<const std::uint32_t> edge_ids) const {
  const DagNode& n = dag_.nodes[ni];
  std::uint64_t b =
      sizeof(ParcelHeader) + sizeof(std::uint32_t) * edge_ids.size();
  switch (n.kind) {
    case NodeKind::kS: {
      const TreeBox& box = dt_.source.box(n.box);
      b += sizeof(SectionHeader) +
           static_cast<std::uint64_t>(box.count) * kBytesPerPoint;
      break;
    }
    case NodeKind::kM:
      b += sizeof(SectionHeader) + kernel_.m_wire_bytes(n.level);
      break;
    case NodeKind::kL:
      b += sizeof(SectionHeader) + kernel_.l_wire_bytes(n.level);
      break;
    case NodeKind::kIs:
    case NodeKind::kIt: {
      // One section per direction actually used by the shipped edges.  The
      // It accumulators live at the child quadrature level.
      bool used[6] = {};
      for (const std::uint32_t e : edge_ids) used[dag_.edges[e].dir] = true;
      const int lvl = n.level + (n.kind == NodeKind::kIt ? 1 : 0);
      for (int d = 0; d < 6; ++d) {
        if (used[d]) b += sizeof(SectionHeader) + kernel_.x_wire_bytes(lvl);
      }
      break;
    }
    case NodeKind::kT:
      AMTFMM_ASSERT_MSG(false, "target nodes have no out-edges");
      break;
  }
  return b;
}

std::uint64_t DagEngine::contribution_wire_bytes(const DagEdge& e) const {
  // Header + the packed L expansion (== the DAG's per-edge byte model).
  AMTFMM_ASSERT(e.bytes ==
                kernel_.l_wire_bytes(dag_.nodes[e.target].level));
  return sizeof(ContribHeader) + e.bytes;
}

std::vector<std::byte> DagEngine::serialize_parcel(
    NodeIndex ni, std::span<const std::uint32_t> edge_ids) {
  AMTFMM_ASSERT(edge_ids.size() <= 0xffff);
  std::vector<std::byte> buf(sizeof(ParcelHeader) +
                             sizeof(std::uint32_t) * edge_ids.size());
  std::memcpy(buf.data() + sizeof(ParcelHeader), edge_ids.data(),
              sizeof(std::uint32_t) * edge_ids.size());
  if (opt_.cost) {
    // Cost-only: the header and edge ids alone; the sections are modelled
    // (parcel_wire_bytes), not built.
    const ParcelHeader h{ni, static_cast<std::uint16_t>(edge_ids.size()), 0};
    std::memcpy(buf.data(), &h, sizeof(h));
    return buf;
  }

  const DagNode& n = dag_.nodes[ni];
  const SourceView src = local_view(ni);

  std::uint16_t num_sections = 0;
  auto open_section = [&](PayloadSlot slot, std::uint8_t dir,
                          std::size_t bytes) -> std::byte* {
    SectionHeader sh{static_cast<std::uint8_t>(slot), dir, 0,
                     static_cast<std::uint32_t>(bytes)};
    const std::size_t off = buf.size();
    buf.resize(off + sizeof(sh) + bytes);
    std::memcpy(buf.data() + off, &sh, sizeof(sh));
    ++num_sections;
    return buf.data() + off + sizeof(sh);
  };

  auto stage = ScratchArena::local().coeffs();
  switch (n.kind) {
    case NodeKind::kS: {
      std::byte* out = open_section(PayloadSlot::kPoints, 0,
                                    src.pts.size() * kBytesPerPoint);
      for (std::size_t i = 0; i < src.pts.size(); ++i) {
        const double rec[4] = {src.pts[i].x, src.pts[i].y, src.pts[i].z,
                               src.q[i]};
        std::memcpy(out + i * kBytesPerPoint, rec, kBytesPerPoint);
      }
      break;
    }
    case NodeKind::kM: {
      std::byte* out = open_section(PayloadSlot::kMain, 0,
                                    kernel_.m_wire_bytes(n.level));
      kernel_.pack_m(sized(src.main, kernel_.m_count(n.level), *stage),
                     n.level, out);
      break;
    }
    case NodeKind::kL: {
      std::byte* out = open_section(PayloadSlot::kMain, 0,
                                    kernel_.l_wire_bytes(n.level));
      kernel_.pack_l(sized(src.main, kernel_.l_count(n.level), *stage),
                     n.level, out);
      break;
    }
    case NodeKind::kIs:
    case NodeKind::kIt: {
      bool used[6] = {};
      for (const std::uint32_t e : edge_ids) used[dag_.edges[e].dir] = true;
      const bool fwd = n.kind == NodeKind::kIt;
      const int lvl = n.level + (fwd ? 1 : 0);
      const PayloadSlot slot = fwd ? PayloadSlot::kFwd : PayloadSlot::kOwn;
      for (std::uint8_t d = 0; d < 6; ++d) {
        if (!used[d]) continue;
        std::byte* out = open_section(slot, d, kernel_.x_wire_bytes(lvl));
        kernel_.pack_x(sized(fwd ? src.fwd[d] : src.own[d],
                             kernel_.x_count(lvl), *stage),
                       lvl, out);
      }
      break;
    }
    case NodeKind::kT:
      AMTFMM_ASSERT_MSG(false, "target nodes have no out-edges");
      break;
  }

  const ParcelHeader h{ni, static_cast<std::uint16_t>(edge_ids.size()),
                       num_sections};
  std::memcpy(buf.data(), &h, sizeof(h));
  return buf;
}

void DagEngine::process_parcel(const std::vector<std::byte>& buf) {
  ParcelHeader h;
  AMTFMM_ASSERT(buf.size() >= sizeof(h));
  std::memcpy(&h, buf.data(), sizeof(h));
  // Wire input: validate every index before use.  All ranks build the same
  // DAG, so any id out of range means a corrupt or misrouted parcel.
  AMTFMM_ASSERT_MSG(h.source < dag_.nodes.size(),
                    "eval parcel: source node out of range");
  AMTFMM_ASSERT_MSG(
      buf.size() >= sizeof(h) + sizeof(std::uint32_t) * h.num_edges,
      "eval parcel: truncated edge-id list");
  const DagNode& n = dag_.nodes[h.source];

  std::vector<std::uint32_t> ids(h.num_edges);
  std::memcpy(ids.data(), buf.data() + sizeof(h),
              sizeof(std::uint32_t) * h.num_edges);
  for (const std::uint32_t e : ids) {
    AMTFMM_ASSERT_MSG(e < dag_.edges.size(),
                      "eval parcel: edge id out of range");
    AMTFMM_ASSERT_MSG(dag_.edges[e].target < dag_.nodes.size(),
                      "eval parcel: edge target out of range");
  }
  std::size_t off = sizeof(h) + sizeof(std::uint32_t) * h.num_edges;
  if (opt_.cost) {
    const Contribution none;
    for (const std::uint32_t e : ids) input(dag_.edges[e].target, none);
    return;
  }

  // Deserialized source data (sections are unaligned: memcpy everything).
  CoeffVec main;
  std::array<CoeffVec, 6> own{};
  std::array<CoeffVec, 6> fwd{};
  std::vector<Vec3> pts;
  std::vector<double> q;
  for (std::uint16_t s = 0; s < h.num_sections; ++s) {
    SectionHeader sh;
    AMTFMM_ASSERT(off + sizeof(sh) <= buf.size());
    std::memcpy(&sh, buf.data() + off, sizeof(sh));
    off += sizeof(sh);
    AMTFMM_ASSERT(off + sh.bytes <= buf.size());
    const std::span<const std::byte> payload(buf.data() + off, sh.bytes);
    off += sh.bytes;
    switch (static_cast<PayloadSlot>(sh.slot)) {
      case PayloadSlot::kPoints: {
        const std::size_t count = sh.bytes / kBytesPerPoint;
        std::vector<double> tmp(count * 4);
        std::memcpy(tmp.data(), payload.data(), sh.bytes);
        pts.resize(count);
        q.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
          pts[i] = Vec3{tmp[4 * i], tmp[4 * i + 1], tmp[4 * i + 2]};
          q[i] = tmp[4 * i + 3];
        }
        break;
      }
      case PayloadSlot::kMain:
        if (n.kind == NodeKind::kM) {
          kernel_.unpack_m(payload, n.level, main);
        } else {
          kernel_.unpack_l(payload, n.level, main);
        }
        break;
      case PayloadSlot::kOwn:
        AMTFMM_ASSERT(sh.dir < 6);
        kernel_.unpack_x(payload, n.level, own[sh.dir]);
        break;
      case PayloadSlot::kFwd:
        AMTFMM_ASSERT(sh.dir < 6);
        kernel_.unpack_x(payload, n.level + 1, fwd[sh.dir]);
        break;
      default:
        AMTFMM_ASSERT_MSG(false, "unexpected parcel section slot");
        break;
    }
  }
  AMTFMM_ASSERT_MSG(off == buf.size(), "malformed eval parcel");

  SourceView src;
  src.main = main;
  for (std::size_t d = 0; d < 6; ++d) {
    src.own[d] = own[d];
    src.fwd[d] = fwd[d];
  }
  src.pts = pts;
  src.q = q;

  TaskScratch scratch(ScratchArena::local());
  for (const std::uint32_t e : ids) {
    const DagEdge& edge = dag_.edges[e];
    Contribution c;
    {
      ScopedTrace st(ex_, trace_, static_cast<std::uint8_t>(edge.op), e);
      apply_edge(h.source, edge, src, scratch, c);
    }
    input(edge.target, c);
  }
}

void DagEngine::send_parcel(std::uint32_t from, std::uint64_t bytes, Task t) {
  // relaxed-ok: byte statistic, read only after drain().
  wire_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint32_t to = t.locality;
  ex_.send(from, to, bytes, std::move(t));
}

void DagEngine::send_contribution(NodeIndex ni, std::uint32_t edge_id) {
  const DagEdge& e = dag_.edges[edge_id];
  const DagNode& n = dag_.nodes[ni];
  const DagNode& tn = dag_.nodes[e.target];
  const TreeBox& tbox = dt_.target.box(tn.box);
  const SourceView src = local_view(ni);

  auto out = ScratchArena::local().coeffs();
  out->assign(kernel_.l_count(tbox.level), cdouble{});
  {
    ScopedTrace st(ex_, trace_, static_cast<std::uint8_t>(e.op), edge_id);
    if (e.op == Operator::kS2L) {
      kernel_.s2l_acc(src.pts, src.q, tbox.cube.center(), tbox.level, *out);
    } else {
      AMTFMM_ASSERT(e.op == Operator::kI2L);
      const TreeBox& fbox = dt_.target.box(n.box);  // It lives in target tree
      for (std::size_t d = 0; d < 6; ++d) {
        if (!src.own[d].empty()) {
          kernel_.i2l_acc(src.own[d], kAllAxes[d], fbox.level, *out);
        }
      }
    }
  }

  auto buf = contribution_payload(e, kernel_.l_wire_bytes(tbox.level));
  kernel_.pack_l(*out, tbox.level, buf->data() + sizeof(ContribHeader));
  AMTFMM_ASSERT(buf->size() == contribution_wire_bytes(e));
  Task t;
  t.locality = tn.locality;
  t.net_kind = kNetKindContribution;
  t.net_payload = std::move(buf);
  send_parcel(n.locality, contribution_wire_bytes(e), std::move(t));

  if (n.kind != NodeKind::kS) release(ni);
}

void DagEngine::process_contribution(const std::vector<std::byte>& buf) {
  ContribHeader h;
  AMTFMM_ASSERT(buf.size() >= sizeof(h));
  std::memcpy(&h, buf.data(), sizeof(h));
  AMTFMM_ASSERT_MSG(h.target < dag_.nodes.size(),
                    "contribution parcel: target node out of range");
  if (opt_.cost) {
    input(h.target, Contribution{});
    return;
  }
  AMTFMM_ASSERT(buf.size() > sizeof(h));
  const DagNode& tn = dag_.nodes[h.target];

  auto full = ScratchArena::local().coeffs();
  kernel_.unpack_l({buf.data() + sizeof(h), buf.size() - sizeof(h)}, tn.level,
                   *full);

  Contribution c;
  c.add(kSegMain, *full);
  input(h.target, c);
}

void DagEngine::finalize_target(NodeIndex ni) {
  if (opt_.cost) return;
  if (!((written_[ni] >> kSegPhi) & 1u)) return;  // no contributions: zero
#ifndef NDEBUG
  check_home(ni);
#endif
  const TreeBox& box = dt_.target.box(dag_.nodes[ni].box);
  const auto* phi = reinterpret_cast<const double*>(
      seg_data_[segment_slot(ni, kSegPhi)].get());
  for (std::uint32_t i = 0; i < box.count; ++i) {
    potentials_[box.first + i] = phi[i];
  }
  free_payload(ni);
}

}  // namespace amtfmm
