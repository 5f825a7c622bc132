#pragma once

#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dag.hpp"
#include "math/coeffs.hpp"
#include "runtime/executor.hpp"
#include "runtime/lco_arena.hpp"
#include "support/error.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

/// Which accumulator of a node's payload a parcel section serializes.  The
/// values travel in SectionHeader::slot.
enum class PayloadSlot : std::uint8_t {
  kMain = 0,    ///< M or L coefficients
  kOwn = 1,     ///< per-direction outgoing / incoming X (dir selects axis)
  kFwd = 2,     ///< per-direction forward (merge) X accumulator
  kPoints = 4,  ///< source points + charges
};

/// A node's payload segments, one bit each in its segment masks: main (M
/// or L coefficients), phi (a T node's potentials, in doubles), own[6]
/// (Is, It) and fwd[6] (It), each indexed by direction.
inline constexpr int kSegMain = 0;
inline constexpr int kSegPhi = 1;
inline constexpr int kSegOwn = 2;  ///< + direction
inline constexpr int kSegFwd = 8;  ///< + direction

/// What one DAG edge adds to its target node: up to six records of
/// (segment, element count, data), summed into the target's segments in
/// record order.  M->I fills one record per direction, every other
/// operator one, and a cost-only input none.  The data lives in the
/// producing task's scratch and is valid only during the DagEngine input
/// that takes it, on the producing thread: a Contribution never crosses a
/// thread or a locality and is never serialized (remote edges travel as
/// parcels).
class Contribution {
 public:
  struct Record {
    const void* data;     ///< doubles for kSegPhi, cdoubles otherwise
    std::uint32_t count;  ///< elements at data
    std::uint8_t seg;

    /// Adds the record element by element into `dst`, a segment of
    /// `count` elements (doubles for kSegPhi, two to a cdouble).
    void add_to(cdouble* dst) const {
      if (seg == kSegPhi) {
        // A cdouble is two doubles ([complex.numbers]).
        auto* out = reinterpret_cast<double*>(dst);
        const auto* in = static_cast<const double*>(data);
        for (std::uint32_t i = 0; i < count; ++i) out[i] += in[i];
      } else {
        const auto* in = static_cast<const cdouble*>(data);
        for (std::uint32_t i = 0; i < count; ++i) dst[i] += in[i];
      }
    }
  };
  static constexpr std::size_t kMaxRecords = 6;

  void add(int seg, std::span<const cdouble> v) {
    push(seg, v.data(), v.size());
  }
  void add_phi(std::span<const double> v) { push(kSegPhi, v.data(), v.size()); }
  std::span<const Record> records() const { return {records_.data(), size_}; }

 private:
  void push(int seg, const void* data, std::size_t count) {
    AMTFMM_ASSERT(size_ < kMaxRecords && seg >= kSegMain && seg < kSegFwd + 6);
    records_[size_++] = Record{data, static_cast<std::uint32_t>(count),
                               static_cast<std::uint8_t>(seg)};
  }

  std::array<Record, kMaxRecords> records_{};
  std::size_t size_ = 0;
};

/// How the implicit DAG is driven.
struct EngineOptions {
  /// Without a cost model the engine runs the expansion math and produces
  /// potentials; with one it runs only the dataflow (cost-only mode), and
  /// task times come from the model.
  std::optional<CostModel> cost;
  bool split_priority = false;  ///< separate high-priority upward-pass tasks
};

/// Executes the explicit DAG as an implicit network of per-node LCOs over
/// an Executor — the paper's section IV architecture.
///
/// Every node is addressed by its NodeIndex: every rank builds the same
/// DAG, and DagNode::locality is the node's home.  The node's trigger-once
/// countdown lives in the engine's LcoArena; its expansion accumulators
/// are payload segments, each alive from its first record to the node's
/// last consumer.  An input is a Contribution (typed records pointing into
/// the producing task's scratch) that reduces straight into the segments
/// under the node's arena stripe; the final input triggers the node and
/// the engine walks its out-edge CSR:
///
///  - local edges run in one task per priority class, which walks the
///    node's CSR range, computes each contribution in the *target's* basis
///    and inputs it into the target node,
///  - edges to a remote locality are coalesced into one *eval parcel* per
///    destination carrying the serialized source expansion plus the edge
///    ids; the destination deserializes and evaluates the operators there
///    (the DASHMM scheme — expansion data travels once per locality),
///  - source-computed operators (S2L, I2L, whose DAG edge bytes are the
///    *result* L expansion) ship one *contribution parcel* per edge with
///    the packed L payload computed at the source.
///
/// No pointer crosses a locality boundary: every remote byte is serialized
/// into the parcel payload and deserialized at the destination by its
/// kind's handler, so Executor::bytes_sent() equals the true serialized
/// wire bytes (wire_bytes() cross-checks this).  In cost-only mode the
/// same parcels carry a prefix of that format (headers and edge ids) and
/// the dataflow runs with empty contributions and modelled task
/// durations; parcel sizes come from the same wire-format arithmetic, so
/// simulated bytes match real bytes by construction.
class DagEngine {
 public:
  /// Per-node control state: the arena's countdown and first-input stamp,
  /// the in-degree the arena is re-armed from, the index of the node's
  /// first segment pointer, the written and in-edge segment masks and the
  /// consumer count.  Each segment the node's in-edges write adds one
  /// 8-byte pointer to its payload.
  static constexpr std::size_t kControlBytesPerNode =
      LcoArena::kBytesPerNode + 2 * sizeof(std::uint32_t) +
      2 * sizeof(std::uint16_t) + sizeof(std::atomic<int>);
  static_assert(kControlBytesPerNode <= 32);

  DagEngine(const Dag& dag, const DualTree& dt, const Kernel& kernel,
            Executor& ex, EngineOptions opt);
  /// Unregisters the parcel handlers registered by execute(): on a mesh
  /// that outlives this engine, a peer racing into the NEXT evaluation
  /// must have its early parcels block until the next engine registers —
  /// not run a handler capturing a destroyed engine.
  ~DagEngine();

  DagEngine(const DagEngine&) = delete;
  DagEngine& operator=(const DagEngine&) = delete;

  /// Runs the DAG to completion.  In compute mode, `charges` are the
  /// source strengths and `potentials` receives the target potentials,
  /// both in *tree-sorted* order (see Tree::original_index).  In cost-only
  /// mode both spans may be empty.  Returns the makespan reported by the
  /// executor.
  ///
  /// The engine is resident: the first call sets up the per-node arrays
  /// (instantiate); every later call re-arms the same arena in place
  /// (reset_for_epoch) and replays the leaf seeds against the existing
  /// edge CSR.  Payload segments are allocated and freed within an epoch.
  double execute(std::span<const double> charges,
                 std::span<double> potentials);

  /// Completed execute() epochs on this engine instance.
  std::uint64_t epochs() const { return epoch_; }
  /// Wall seconds spent re-arming the resident arena before the last
  /// epoch; 0.0 for the first epoch (which pays instantiate() instead).
  double last_reset_seconds() const { return last_reset_seconds_; }
  /// Nodes instantiated during the last execute(): the node count on the
  /// first epoch, zero for every steady-state epoch after it.
  std::uint64_t gas_allocs_last_epoch() const { return gas_allocs_epoch_; }
  /// Nodes placed on `locality` (zero before the first epoch).
  std::size_t objects_on(std::uint32_t locality) const {
    return locality < nodes_on_.size() ? nodes_on_[locality] : 0;
  }

  /// Serialized bytes of every parcel handed to Executor::send during the
  /// last execute(); equals Executor::bytes_sent() when the engine is the
  /// only sender.
  std::uint64_t wire_bytes() const {
    // relaxed-ok: statistic; callers read it after drain() quiesces workers.
    return wire_bytes_.load(std::memory_order_relaxed);
  }

  /// Wire size of the eval parcel shipping `edge_ids` (out-edges of `ni`)
  /// to one destination: header + edge ids + serialized source sections.
  /// Pure arithmetic over the kernel's wire-byte functions — usable in
  /// cost-only mode and by tests.
  std::uint64_t parcel_wire_bytes(NodeIndex ni,
                                  std::span<const std::uint32_t> edge_ids)
      const;
  /// Wire size of a source-computed contribution parcel for one edge.
  std::uint64_t contribution_wire_bytes(const DagEdge& e) const;
  /// Operators whose remote edges ship the computed L contribution instead
  /// of the source expansion.
  static bool source_computed(Operator op) {
    return op == Operator::kS2L || op == Operator::kI2L;
  }

 private:
  /// Views of one node's source data, local or deserialized.  An
  /// unwritten accumulator is an empty span.
  struct SourceView {
    CoeffSpan main;
    std::array<CoeffSpan, 6> own{};
    std::array<CoeffSpan, 6> fwd{};
    std::span<const Vec3> pts;
    std::span<const double> q;
  };

  /// SoA staging for batched S->T edges, leased from the worker's
  /// ScratchArena for the duration of one edge-processing task.  The
  /// buffers are acquired on the first S->T edge only (tasks without one
  /// pay nothing), and the task's source slice is gathered once even when
  /// the task carries many S->T edges — every edge of a task shares one
  /// source node.  Targets and potentials are restaged per edge.
  class P2PScratch {
   public:
    /// Stages (lazily) and returns the batch for one S->T edge; b.phi
    /// holds nt zeroed entries inside the leased buffer, which stays
    /// valid until the next batch() call.
    simd::P2PBatch batch(std::span<const Vec3> src_pts,
                         std::span<const double> src_q,
                         std::span<const Vec3> tgt_pts);

   private:
    struct Buffers {
      SoaLease sx, sy, sz, sq, tx, ty, tz, phi;
      bool sources_staged = false;
    };
    std::optional<Buffers> b_;
  };

  /// Scratch an edge-processing task leases once and shares across its
  /// edges: the coefficient and real buffers its contributions point
  /// into, and the S->T staging.  An edge's contribution is consumed by
  /// its input before the next edge overwrites the buffers.
  struct TaskScratch {
    explicit TaskScratch(ScratchArena& a)
        : coeffs(a.coeffs()), reals(a.reals()) {}
    ScratchLease<cdouble> coeffs;
    ScratchLease<double> reals;
    P2PScratch p2p;
  };

  void instantiate();
  /// Re-arms the arena to the DAG's in-degrees and clears the per-epoch
  /// payload state.  Runs between drains (quiescent); the caller's barrier
  /// keeps any peer rank from seeding before every rank has finished.
  void reset_for_epoch();
  /// Spawns the root task that seeds locality `loc`'s nodes from index
  /// `from` on, one chunk per task.
  void spawn_seeds(std::uint32_t loc, NodeIndex from);
  /// Starts a node's share of an epoch: a source's edge tasks, or the zero
  /// finalization of a target no source reaches; other nodes wait for
  /// their inputs.
  void seed(NodeIndex ni);
  /// Applies one input to node `ni`; fires the node when it was the last
  /// one.
  void input(NodeIndex ni, const Contribution& c);
  /// Adds a contribution into the node's payload, allocating each segment
  /// on its first record.  Runs under the node's stripe.
  void reduce(NodeIndex ni, const Contribution& c);
  /// Trigger-time work, on the node's home locality.
  void on_node_triggered(NodeIndex ni);
  void spawn_edge_tasks(NodeIndex ni);
  /// Calls f(edge id) for every out-edge of `ni` that its local task of
  /// priority class `high` runs, in CSR order: edges whose target is on
  /// `ni`'s locality and, under split_priority, of that class.
  template <class F>
  void for_local_edges(NodeIndex ni, bool high, F&& f) const;
  /// Runs the local edges of one priority class of a fired node.
  void process_local(NodeIndex ni, bool high);
  /// Computes the contribution of one edge in the target's basis into the
  /// task's scratch and records it in `c`.
  void apply_edge(NodeIndex from, const DagEdge& e, const SourceView& src,
                  TaskScratch& s, Contribution& c);
  void finalize_target(NodeIndex ni);

  /// A node's payload is up to 14 segments (kSegMain ... kSegFwd + 5).
  /// Element count of segment `seg` of node `ni` (doubles for phi,
  /// cdoubles otherwise): fixed by the node's kind and level, and for a
  /// target by its box's point count.
  std::size_t segment_len(NodeIndex ni, int seg) const;
  /// Set bits of a segment mask, in plain arithmetic: std::popcount is a
  /// libgcc call on baseline x86-64.
  static constexpr unsigned count_segments(unsigned mask) {
    mask = mask - ((mask >> 1) & 0x5555u);
    mask = (mask & 0x3333u) + ((mask >> 2) & 0x3333u);
    mask = (mask + (mask >> 4)) & 0x0f0fu;
    return (mask + (mask >> 8)) & 0x1fu;
  }
  /// The slot in seg_data_ of segment `seg`, which seg_in_[ni] must hold.
  std::size_t segment_slot(NodeIndex ni, int seg) const {
    return seg_first_[ni] + count_segments(seg_in_[ni] & ((1u << seg) - 1u));
  }
  /// The written segment `seg` of `ni`'s payload, or an empty span.
  CoeffSpan segment_view(NodeIndex ni, int seg) const;
  /// Pins a payload reader: retain once per spawned consumer; the last
  /// release frees the payload.
  void retain(NodeIndex ni, int n);
  void release(NodeIndex ni);
  void free_payload(NodeIndex ni);
  /// Debug check that payload access happens on the node's home locality
  /// (or outside any task).
  void check_home(NodeIndex ni) const;

  /// View of a node's payload for same-locality reads (plus source points
  /// and charges for S nodes).
  SourceView local_view(NodeIndex ni) const;
  std::vector<std::byte> serialize_parcel(
      NodeIndex ni, std::span<const std::uint32_t> edge_ids);
  /// The two parcel kinds' handlers; cost-only, they input dependency
  /// records instead of computing.
  void process_parcel(const std::vector<std::byte>& buf);
  void send_parcel(std::uint32_t from, std::uint64_t bytes, Task t);
  void send_contribution(NodeIndex ni, std::uint32_t edge_id);
  void process_contribution(const std::vector<std::byte>& buf);

  const Dag& dag_;
  const DualTree& dt_;
  const Kernel& kernel_;
  Executor& ex_;
  /// The executor's trace sink, looked up once: a span costs one inline
  /// load and branch while tracing is off.
  TraceSink& trace_;
  EngineOptions opt_;
  LcoArena arena_;
  // Per-node arrays, indexed by NodeIndex (filled by instantiate()).
  std::vector<std::uint32_t> in_degree_;
  std::vector<std::uint16_t> seg_in_;   ///< segments the in-edges write
  std::vector<std::uint16_t> written_;  ///< segments written this epoch
  std::vector<std::uint32_t> seg_first_;  ///< node's first seg_data_ slot
  std::unique_ptr<std::atomic<int>[]> consumers_;
  /// Payload storage: one slot per (node, segment in seg_in_), in node
  /// order, then segment order.  A slot is null outside the segment's
  /// lifetime, from its first record to the node's last consumer.
  std::vector<std::unique_ptr<cdouble[]>> seg_data_;
  std::vector<std::size_t> nodes_on_;  ///< nodes per locality
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::span<const double> charges_;
  std::span<double> potentials_;
  bool instantiated_ = false;
  /// The last epoch's drain returned: every payload segment is free.
  bool drained_ = true;
  std::uint64_t epoch_ = 0;
  double last_reset_seconds_ = 0.0;
  std::uint64_t gas_allocs_epoch_ = 0;
};

}  // namespace amtfmm
