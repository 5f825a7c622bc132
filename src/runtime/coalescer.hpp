#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/executor.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm {

/// Why a buffered batch was handed to the network.
enum class FlushReason : std::uint8_t { kThreshold, kDeadline, kQuiescence };

/// One wire message: every parcel buffered for one (source, destination
/// locality) pair since the last flush, in append (send) order; the socket
/// carries it as it is (net::encode_batch_frame).
struct ParcelBatch {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;  ///< per-(src,dst) batch sequence number
  std::size_t bytes = 0;  ///< summed wire bytes of the parcels
  bool any_high = false;  ///< at least one high-priority parcel
  bool coalesced = true;  ///< false: one uncoalesced parcel, no sequence
  FlushReason reason = FlushReason::kThreshold;
  std::vector<Task> tasks;  ///< delivery order == send order
};

/// Per-(source, destination-locality) outgoing parcel buffers — the
/// executor-agnostic half of the coalescing layer.  Thread safe: appends to
/// the same pair serialize on the pair's mutex, which also defines the FIFO
/// order the executors preserve on delivery.  The executors own the flush
/// policy: enqueue() reports threshold crossings, the take_*() families
/// implement deadline and quiescence flushes.
class ParcelCoalescer {
 public:
  struct Enqueued {
    /// Set when the append crossed a threshold; the caller delivers it.
    std::optional<ParcelBatch> ready;
    bool first = false;      ///< parcel landed in an empty buffer
    std::uint64_t epoch = 0; ///< buffer epoch, for deadline timers
  };

  ParcelCoalescer(int localities, const CoalesceConfig& cfg);

  /// Appends one parcel to the (src, dst) buffer.  `now` is the executor
  /// clock, used for deadline accounting.
  Enqueued enqueue(std::uint32_t src, std::uint32_t dst, std::size_t bytes,
                   Task t, double now);

  /// The (src, dst) batch if the buffer has not flushed since `epoch`
  /// (deadline timers); nullopt when it flushed in the meantime.
  std::optional<ParcelBatch> take_if_epoch(std::uint32_t src,
                                           std::uint32_t dst,
                                           std::uint64_t epoch);

  /// Buffers from `src` whose oldest parcel is older than the deadline.
  std::vector<ParcelBatch> take_expired_from(std::uint32_t src, double now);

  /// Everything buffered (quiescence / shutdown flushes).
  std::vector<ParcelBatch> take_all();
  std::vector<ParcelBatch> take_all_from(std::uint32_t src);

  bool pending() const;
  bool pending_from(std::uint32_t src) const;

  const CoalesceConfig& config() const { return cfg_; }

 private:
  struct Buffer {
    SyncMutex mu;
    std::vector<Task> tasks GUARDED_BY(mu);
    std::size_t bytes GUARDED_BY(mu) = 0;
    bool any_high GUARDED_BY(mu) = false;
    /// Enqueue time of the first buffered parcel.
    double oldest GUARDED_BY(mu) = 0.0;
    std::uint64_t next_seq GUARDED_BY(mu) = 0;
    /// Bumped on every flush.
    std::uint64_t epoch GUARDED_BY(mu) = 0;
  };

  Buffer& buffer(std::uint32_t src, std::uint32_t dst) {
    return buffers_[static_cast<std::size_t>(src) * localities_ + dst];
  }
  /// Drains a buffer into a batch; b must be nonempty.  The REQUIRES turns
  /// the old "requires b.mu held" comment into a compiler-checked contract.
  ParcelBatch take_locked(Buffer& b, std::uint32_t src, std::uint32_t dst,
                          FlushReason reason) REQUIRES(b.mu);

  CoalesceConfig cfg_;
  std::uint32_t localities_;
  std::vector<Buffer> buffers_;  // indexed src * localities + dst
  /// Buffered parcel counts, for cheap emptiness probes on idle paths.
  /// Invariant (rtcheck-verified): the count never under-reports — it is
  /// raised *before* a parcel enters a buffer and lowered *after* parcels
  /// leave one, so a probe reading 0 can trust that nothing is buffered
  /// once no enqueue is in flight from that source.
  std::unique_ptr<std::atomic<std::uint64_t>[]> pending_per_src_;
};

/// Communication counters shared by both executors.  Lock free; per-parcel
/// updates happen on the send path, per-batch updates at flush time.
class CommCounters {
 public:
  explicit CommCounters(int localities);

  void on_parcel(std::uint32_t dst, std::size_t bytes);
  void on_batch(std::uint32_t dst, std::size_t parcels, std::size_t bytes);
  void on_reason(FlushReason r);

  std::uint64_t parcels() const {
    // relaxed-ok: monotonic statistic, diagnostics only.
    return parcels_.load(std::memory_order_relaxed);
  }
  std::uint64_t batches() const {
    // relaxed-ok: monotonic statistic, diagnostics only.
    return batches_.load(std::memory_order_relaxed);
  }
  std::uint64_t bytes() const {
    // relaxed-ok: monotonic statistic, diagnostics only.
    return bytes_.load(std::memory_order_relaxed);
  }

  CommStats snapshot() const;

 private:
  int localities_;
  std::atomic<std::uint64_t> parcels_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> flush_threshold_{0};
  std::atomic<std::uint64_t> flush_deadline_{0};
  std::atomic<std::uint64_t> flush_quiescence_{0};
  std::unique_ptr<std::atomic<std::uint64_t>[]> parcels_to_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> batches_to_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> bytes_to_;
  std::array<std::atomic<std::uint64_t>, 16> hist_{};
};

}  // namespace amtfmm
