#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <vector>

#include "core/cost_model.hpp"
#include "core/dag.hpp"
#include "core/expansion_lco.hpp"
#include "runtime/executor.hpp"
#include "runtime/gas.hpp"
#include "support/scratch_arena.hpp"

namespace amtfmm {

/// How the implicit DAG is driven.
struct EngineOptions {
  /// Without a cost model the engine runs the expansion math and produces
  /// potentials; with one it runs only the dataflow (cost-only mode), and
  /// task times come from the model.
  std::optional<CostModel> cost;
  bool split_priority = false;  ///< separate high-priority upward-pass tasks
};

/// Executes the explicit DAG as an implicit network of GAS-resident
/// expansion LCOs over an Executor — the paper's section IV architecture.
///
/// Instantiation allocates one ExpansionLCO per DAG node in the Gas heap of
/// its placement locality; all per-node state (countdown, payload,
/// continuation) lives in those LCOs, the engine itself holds only the
/// address table.  Inputs arrive via LCO::set_input carrying serialized
/// wire records (operator tag, payload slot/direction, coefficients); the
/// final input triggers the node and the engine walks its out-edge CSR:
///
///  - local edges are bucketed into tasks that compute each contribution in
///    the *target's* basis and set_input it into the target LCO,
///  - edges to a remote locality are coalesced into one *eval parcel* per
///    destination carrying the serialized source expansion plus the edge
///    ids; the destination deserializes and evaluates the operators there
///    (the DASHMM scheme — expansion data travels once per locality),
///  - source-computed operators (S2L, I2L, whose DAG edge bytes are the
///    *result* L expansion) ship one *contribution parcel* per edge with
///    the packed L payload computed at the source.
///
/// No pointer crosses a locality boundary: every remote byte is serialized
/// into the parcel buffer and deserialized at the destination, so
/// Executor::bytes_sent() equals the true serialized wire bytes
/// (wire_bytes() cross-checks this).  In cost-only mode the identical
/// LCO/parcel dataflow runs with 8-byte dependency records and modelled
/// task durations; parcel sizes come from the same wire-format arithmetic,
/// so simulated bytes match real bytes by construction.
class DagEngine {
 public:
  DagEngine(const Dag& dag, const DualTree& dt, const Kernel& kernel,
            Executor& ex, EngineOptions opt);
  /// Unregisters the net handlers registered by execute(): on a mesh that
  /// outlives this engine, a peer racing into the NEXT evaluation must
  /// have its early parcels block until the next engine registers — not
  /// run a handler capturing a destroyed engine.
  ~DagEngine();

  /// Runs the DAG to completion.  In compute mode, `charges` are the
  /// source strengths and `potentials` receives the target potentials,
  /// both in *tree-sorted* order (see Tree::original_index).  In cost-only
  /// mode both spans may be empty.  Returns the makespan reported by the
  /// executor.
  ///
  /// The engine is resident: the first call allocates the GAS LCO arena
  /// (instantiate); every later call re-arms the same arena in place
  /// (reset_for_epoch) and replays the leaf seeds against the existing
  /// edge CSR — no GAS or LCO allocation happens in steady state
  /// (gas_allocs_last_epoch() == 0 for epoch >= 2).
  double execute(std::span<const double> charges,
                 std::span<double> potentials);

  /// Completed execute() epochs on this engine instance.
  std::uint64_t epochs() const { return epoch_; }
  /// Wall seconds spent re-arming the resident arena before the last
  /// epoch; 0.0 for the first epoch (which pays instantiate() instead).
  double last_reset_seconds() const { return last_reset_seconds_; }
  /// GAS allocations performed during the last execute(); zero for every
  /// steady-state epoch after the first.
  std::uint64_t gas_allocs_last_epoch() const { return gas_allocs_epoch_; }

  /// Serialized bytes of every parcel handed to Executor::send during the
  /// last execute(); equals Executor::bytes_sent() when the engine is the
  /// only sender.
  std::uint64_t wire_bytes() const {
    // relaxed-ok: statistic; callers read it after drain() quiesces workers.
    return wire_bytes_.load(std::memory_order_relaxed);
  }

  const Gas& gas() const { return gas_; }

  /// Callback from ExpansionLCO::on_fire (runs on the triggering thread,
  /// which is always on the node's home locality).
  void on_node_triggered(NodeIndex ni);

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
  /// Borrowed views of one node's source data, local or deserialized.
  /// Pointers (not copies): operators take const CoeffVec&.
  struct SourceView {
    const CoeffVec* main = nullptr;
    std::array<const CoeffVec*, 6> own{};
    std::array<const CoeffVec*, 6> fwd{};
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
  /// Re-arms every resident LCO to its DAG in-degree for the next epoch.
  /// Runs between drains (quiescent); the caller's barrier keeps any peer
  /// rank from seeding before every rank has finished resetting.
  void reset_for_epoch();
  /// Spawns the root task that seeds locality `loc`'s nodes from index
  /// `from` on, one chunk per task.
  void spawn_seeds(std::uint32_t loc, NodeIndex from);
  /// Starts a node's share of an epoch: a source's edge tasks, or the zero
  /// finalization of a target no source reaches; other nodes wait for
  /// their inputs.
  void seed(NodeIndex ni);
  void spawn_edge_tasks(NodeIndex ni);
  void process_local(NodeIndex ni, std::span<const std::uint32_t> edge_ids);
  /// Computes the contribution of one edge in the target's basis and
  /// appends it to `msg` as wire records.  `p2p` carries the task-scoped
  /// SoA staging shared by the task's S->T edges.
  void apply_edge(NodeIndex from, const DagEdge& e, const SourceView& src,
                  P2PScratch& p2p, std::vector<std::byte>& msg);
  void finalize_target(NodeIndex ni);

  ExpansionLCO* lco(NodeIndex ni) const {
    return static_cast<ExpansionLCO*>(gas_.resolve(addr_[ni]));
  }
  /// View of a node's payload for same-locality reads (plus source points
  /// and charges for S nodes).
  SourceView local_view(NodeIndex ni);
  std::vector<std::byte> serialize_parcel(
      NodeIndex ni, std::span<const std::uint32_t> edge_ids);
  void process_parcel(const std::vector<std::byte>& buf);
  void send_contribution(NodeIndex ni, std::uint32_t edge_id);
  void process_contribution(const std::vector<std::byte>& buf);

  const Dag& dag_;
  const DualTree& dt_;
  const Kernel& kernel_;
  Executor& ex_;
  EngineOptions opt_;
  Gas gas_;
  std::vector<GlobalAddress> addr_;
  std::atomic<std::uint64_t> wire_bytes_{0};
  std::span<const double> charges_;
  std::span<double> potentials_;
  bool instantiated_ = false;
  bool handlers_registered_ = false;
  std::uint64_t epoch_ = 0;
  double last_reset_seconds_ = 0.0;
  std::uint64_t gas_allocs_epoch_ = 0;
};

}  // namespace amtfmm
