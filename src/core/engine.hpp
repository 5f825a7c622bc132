#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dag.hpp"
#include "math/coeffs.hpp"
#include "runtime/executor.hpp"
#include "runtime/lco_arena.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

/// Which accumulator of a node's payload a wire record targets.  kPoints
/// appears only in parcel section headers (source-point shipping), never in
/// input records; kNone is the cost-only dependency record.
enum class PayloadSlot : std::uint8_t {
  kMain = 0,    ///< M or L coefficients
  kOwn = 1,     ///< per-direction outgoing / incoming X (dir selects axis)
  kFwd = 2,     ///< per-direction forward (merge) X accumulator
  kPhi = 3,     ///< target potential accumulators (doubles)
  kPoints = 4,  ///< source points + charges (parcel sections only)
  kNone = 5,    ///< dependency-only record (cost mode)
};

/// Fixed 8-byte header of one record in an input message or one section
/// of a parcel.  An input message is a sequence of (WireRecord, payload)
/// pairs; `count` is the element count of the payload (cdouble for
/// coefficient slots, double for kPhi, 0 for kNone).  Payload sizes are
/// multiples of 8 bytes, so every record header within a message stays
/// 8-byte aligned.
struct WireRecord {
  std::uint8_t op;    ///< Operator that produced the contribution
  std::uint8_t slot;  ///< PayloadSlot
  std::uint8_t dir;   ///< Axis index for kOwn/kFwd
  std::uint8_t pad = 0;
  std::uint32_t count;  ///< payload element count
};
static_assert(sizeof(WireRecord) == 8);

/// Appends one (header, payload) record to an input message buffer.
inline void append_record(std::vector<std::byte>& buf, Operator op,
                          PayloadSlot slot, std::uint8_t dir, const void* data,
                          std::size_t bytes, std::uint32_t count) {
  WireRecord h{static_cast<std::uint8_t>(op),
               static_cast<std::uint8_t>(slot), dir, 0, count};
  const std::size_t off = buf.size();
  buf.resize(off + sizeof(h) + bytes);
  std::memcpy(buf.data() + off, &h, sizeof(h));
  if (bytes != 0) std::memcpy(buf.data() + off + sizeof(h), data, bytes);
}

/// The 8-byte dependency-only input used in cost-only mode: the countdown
/// runs, no data moves.
std::span<const std::byte> dep_record();

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
/// last consumer.  Inputs carry serialized wire records (operator tag,
/// payload slot/direction, coefficients) and reduce into the segments
/// under the node's arena stripe; the final input triggers the node and
/// the engine walks its out-edge CSR:
///
///  - local edges are bucketed into tasks that compute each contribution in
///    the *target's* basis and input it into the target node,
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
/// the dataflow runs with 8-byte dependency records and modelled task
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
  /// Applies one input message to node `ni`; fires the node when it was
  /// the last one.
  void input(NodeIndex ni, std::span<const std::byte> msg);
  /// Reduces an input message into the node's payload, allocating each
  /// segment on its first record.  Runs under the node's stripe.
  void reduce(NodeIndex ni, std::span<const std::byte> msg);
  /// Trigger-time work, on the node's home locality.
  void on_node_triggered(NodeIndex ni);
  void spawn_edge_tasks(NodeIndex ni);
  void process_local(NodeIndex ni, std::span<const std::uint32_t> edge_ids);
  /// Computes the contribution of one edge in the target's basis and
  /// appends it to `msg` as wire records.  `p2p` carries the task-scoped
  /// SoA staging shared by the task's S->T edges.
  void apply_edge(NodeIndex from, const DagEdge& e, const SourceView& src,
                  P2PScratch& p2p, std::vector<std::byte>& msg);
  void finalize_target(NodeIndex ni);

  /// A node's payload is up to 14 segments, one bit each in its segment
  /// masks: main (M, L), phi (T), own[6] (Is, It), fwd[6] (It).
  /// Element count of segment `seg` of node `ni` (doubles for phi,
  /// cdoubles otherwise): fixed by the node's kind and level, and for a
  /// target by its box's point count.
  std::size_t segment_len(NodeIndex ni, int seg) const;
  /// The slot in seg_data_ of segment `seg`, which seg_in_[ni] must hold.
  std::size_t segment_slot(NodeIndex ni, int seg) const;
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
