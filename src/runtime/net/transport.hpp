#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "runtime/net/frame.hpp"
#include "runtime/net/socket.hpp"
#include "runtime/sync_hook.hpp"

namespace amtfmm::net {

/// How peers reach each other on one host.
enum class TransportKind : std::uint8_t {
  kUnix,  ///< Unix-domain stream sockets under the bootstrap dir
  kTcp,   ///< TCP over 127.0.0.1, ports published via the bootstrap dir
};

/// Socket transport configuration, normally filled from the environment
/// that tools/amtfmm_launch exports (AMTFMM_NET_RANK / SIZE / TRANSPORT /
/// DIR / WINDOW).
struct NetConfig {
  std::uint32_t rank = 0;
  std::uint32_t world = 1;
  TransportKind kind = TransportKind::kUnix;
  /// Bootstrap rendezvous directory shared by all ranks: Unix socket
  /// paths (`sock.<rank>`) or published TCP ports (`port.<rank>`).
  std::string dir;
  /// Backpressure: max bytes of encoded frames accepted by post_batch()
  /// but not yet written to a socket.  Posting threads block above this.
  std::size_t window_bytes = 4u << 20;
  double connect_timeout_s = 30.0;
};

/// Reads AMTFMM_NET_* from the environment; nullopt when AMTFMM_NET_RANK
/// is unset (the process is not part of a launched world).
std::optional<NetConfig> net_config_from_env();

/// Raw transport statistics, exported as `net.*` counters by NetExecutor.
/// Plain relaxed atomics: every field is an independent monotone count or
/// high-water mark, read for diagnostics only.
struct NetStats {
  std::atomic<std::uint64_t> msgs_sent{0};    ///< frames fully written
  std::atomic<std::uint64_t> msgs_recvd{0};   ///< frames fully decoded
  std::atomic<std::uint64_t> wire_bytes_sent{0};   ///< raw socket bytes
  std::atomic<std::uint64_t> wire_bytes_recvd{0};  ///< (incl. framing)
  std::atomic<std::uint64_t> progress_iters{0};
  std::atomic<std::uint64_t> idle_polls{0};
  std::atomic<std::uint64_t> partial_writes{0};
  std::atomic<std::uint64_t> inject_depth_hwm{0};  ///< queued frames
  std::atomic<std::uint64_t> inject_bytes_hwm{0};  ///< outstanding bytes
  std::atomic<std::uint64_t> backpressure_stalls{0};
  std::atomic<std::uint64_t> backpressure_stall_us{0};
  std::atomic<std::uint64_t> control_msgs{0};     ///< control frames sent
  std::atomic<std::uint64_t> telemetry_sent{0};   ///< telemetry frames sent
  std::atomic<std::uint64_t> telemetry_recvd{0};  ///< telemetry frames recvd
};

/// Result of the startup clock-sync exchange against rank 0: the
/// estimated steady-clock offset of THIS rank relative to rank 0
/// (rank0_steady ≈ local_steady - offset_s), with a conservative error
/// bound.  Midpoint estimation over ping/pong round trips: each sample
/// gives offset = remote_ts - (t_send + t_recv)/2 with error ≤ RTT/2;
/// the sample with the smallest RTT wins.
struct ClockSyncResult {
  double offset_s = 0.0;       ///< local steady clock minus rank 0's
  double uncertainty_s = 0.0;  ///< ≤ best-sample RTT / 2
  std::uint32_t samples = 0;   ///< round trips that produced an estimate
};

/// Point-to-point socket transport for one locality: a full mesh of
/// stream connections to every peer rank plus one progress-engine thread
/// running an explicit poll/progress loop (the "explicit progress" that
/// PAPERS.md's HPX+LCI study identifies as load-bearing for AMT runtimes
/// — progress never depends on a worker happening to enter the library).
///
/// Threading contract:
///  - start() bootstraps the mesh synchronously, then launches the
///    progress thread; callbacks (on_batch / on_control / on_failure)
///    run ON the progress thread and must not block on transport state.
///  - post_batch()/post_control() are thread safe (worker threads).
///  - post_batch() implements injection backpressure: it blocks while
///    the outstanding-encoded-bytes window is full, so a fast producer
///    cannot buffer unbounded frames.  The progress thread itself never
///    blocks on the window (it only shrinks it), which makes the
///    backpressure deadlock-free: the window always drains.
///  - Control frames bypass the window: the termination protocol must
///    make progress even when the window is saturated with batches.
///
/// Failure model: a peer closing its connection without a goodbye — or
/// any malformed byte stream — moves the transport into a sticky
/// failed state, unblocks all posters (their frames are dropped), and
/// invokes on_failure once.  The owner surfaces the error from drain();
/// quiescence is never waited on a dead mesh.
class NetTransport {
 public:
  using BatchFn = std::function<void(ParcelBatch&&)>;
  using ControlFn = std::function<void(const ControlMsg&)>;
  using FailFn = std::function<void(const std::string&)>;
  using TelemetryFn =
      std::function<void(std::uint32_t src, std::vector<std::byte>&&)>;

  NetTransport(NetConfig cfg, BatchFn on_batch, ControlFn on_control,
               FailFn on_failure);
  ~NetTransport();

  NetTransport(const NetTransport&) = delete;
  NetTransport& operator=(const NetTransport&) = delete;

  /// Bootstraps the full mesh (listen; connect to lower ranks with retry;
  /// accept from higher ranks; kHello identifies accepted peers), then
  /// starts the progress thread.  Throws net_error on timeout.
  void start();

  /// Encodes and enqueues one batch for `dst`.  Blocks under
  /// backpressure.  Returns false when the frame was dropped because the
  /// transport failed or stopped — the caller's drain() reports the
  /// failure; nothing is silently lost on the success path.
  bool post_batch(std::uint32_t dst, const ParcelBatch& b);

  void post_control(std::uint32_t dst, const ControlMsg& m);
  /// Sends a control message to every peer rank (not self).
  void broadcast_control(const ControlMsg& m);

  /// Best-effort telemetry side channel.  Telemetry frames bypass the
  /// injection window AND the parcel accounting the termination protocol
  /// cuts over (sent/recvd parcel counters never see them), so a sampler
  /// shipping on a timer can never destabilize a quiescence cut.  Frames
  /// to failed/closed peers are silently dropped — losing a sample is
  /// fine, wedging shutdown on one is not.  Returns false when dropped.
  bool post_telemetry(std::uint32_t dst, std::span<const std::byte> payload);

  /// Installs (or clears) the telemetry receive callback.  Callable any
  /// time; runs ON the progress thread and must be cheap/non-blocking.
  void set_on_telemetry(TelemetryFn fn);

  /// Runs the ping/pong clock-sync exchange against rank 0 (`rounds`
  /// sequential round trips, midpoint estimation, min-RTT sample wins).
  /// On rank 0 / world 1 this is a no-op identity result.  Safe to call
  /// any time after start().
  ClockSyncResult clock_sync(int rounds = 8);

  /// Flushes queued frames, stops the progress thread, closes the mesh.
  /// Idempotent; called by the destructor.
  void stop();

  bool failed() const {
    // relaxed-ok: sticky flag; failure_text() takes the lock for the why.
    return failed_.load(std::memory_order_relaxed);
  }
  std::string failure_text() const;

  const NetStats& stats() const { return stats_; }
  const NetConfig& config() const { return cfg_; }

 private:
  struct OutMsg {
    std::vector<std::byte> bytes;
    bool counts_window = false;  ///< batch frames only
  };
  /// Per-peer state confined to the progress thread: bootstrap fills fd
  /// before the thread starts; afterwards only progress_main and its
  /// callees touch these fields.  The shared pieces (outbox queue, closed
  /// flag) live in outboxes_ / peer_closed_ below so they can carry
  /// GUARDED_BY(mu_) — a nested struct cannot name the outer class's
  /// mutex in a thread-safety annotation.
  struct Peer {
    Fd fd;
    FrameDecoder decoder;
    std::size_t write_off = 0;  ///< progress into the front outbox frame
    /// Peer announced an orderly close (kGoodbye).  Stream FIFO means the
    /// announcement always arrives before the EOF, so an announced EOF is
    /// benign while a crash (EOF with no goodbye) still fails fast.
    bool said_goodbye = false;
  };

  void progress_main();
  /// Reads until EAGAIN, feeding the peer's frame decoder.
  void do_read(std::uint32_t rank, std::vector<std::byte>& buf);
  /// Writes queued frames until EAGAIN or the outbox empties.
  void do_write(std::uint32_t rank);
  void dispatch(std::uint32_t rank, FrameDecoder::Frame&& f);
  /// Dispatches every complete frame in the peer's decoder; false (after
  /// fail()) when the stream is malformed.
  bool dispatch_buffered(std::uint32_t rank);
  void on_peer_closed(std::uint32_t rank);
  void fail(const std::string& why);
  bool outboxes_empty() const REQUIRES(mu_);

  Fd connect_with_retry(std::uint32_t peer, double deadline);
  Fd accept_with_deadline(double deadline);

  NetConfig cfg_;
  BatchFn on_batch_;
  ControlFn on_control_;
  FailFn on_failure_;
  mutable SyncMutex telem_mu_;  ///< set_on_telemetry vs dispatch
  TelemetryFn on_telemetry_ GUARDED_BY(telem_mu_);

  std::vector<Peer> peers_;  // indexed by rank; self entry unused
  Fd listener_;
  WakePipe wake_;
  std::thread progress_;
  NetStats stats_;

  mutable SyncMutex mu_;  ///< outboxes, window accounting, failure text
  SyncCondVar window_cv_;
  /// Outbound frame queues, indexed by rank (self entry unused).  Posters
  /// append under mu_; only the progress thread pops.
  std::vector<std::deque<OutMsg>> outboxes_ GUARDED_BY(mu_);
  /// Peer closed its connection — published under mu_ so posters observe
  /// it coherently with the outbox they would otherwise append to.
  std::vector<char> peer_closed_ GUARDED_BY(mu_);
  /// Posted batch bytes not yet written to a socket.
  std::size_t outstanding_bytes_ GUARDED_BY(mu_) = 0;
  std::size_t queued_msgs_ GUARDED_BY(mu_) = 0;  ///< frames, all outboxes
  std::string failure_ GUARDED_BY(mu_);
  std::atomic<bool> failed_{false};
  std::atomic<bool> stop_requested_{false};
  bool started_ = false;

  /// Clock-sync rendezvous between the caller of clock_sync() (worker
  /// side, sends pings) and the progress thread (records pong arrivals).
  mutable SyncMutex sync_mu_;
  SyncCondVar sync_cv_;
  /// Sample id of the last pong.
  std::uint64_t sync_pong_id_ GUARDED_BY(sync_mu_) = 0;
  /// Replier steady ns (ControlMsg.c).
  std::uint64_t sync_pong_remote_ GUARDED_BY(sync_mu_) = 0;
  /// Local steady ns at pong receipt.
  std::uint64_t sync_pong_recv_ GUARDED_BY(sync_mu_) = 0;
  bool sync_pong_valid_ GUARDED_BY(sync_mu_) = false;
};

}  // namespace amtfmm::net
