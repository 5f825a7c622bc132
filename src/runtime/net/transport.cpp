#include "runtime/net/transport.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace amtfmm::net {

namespace {

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t steady_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void sleep_ms(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

std::string unix_path(const NetConfig& cfg, std::uint32_t rank) {
  return cfg.dir + "/sock." + std::to_string(rank);
}

std::string port_path(const NetConfig& cfg, std::uint32_t rank) {
  return cfg.dir + "/port." + std::to_string(rank);
}

/// Publishes this rank's TCP port.  Write-to-temp + rename so a peer
/// never reads a half-written file.
void publish_port(const NetConfig& cfg, int port) {
  const std::string final_path = port_path(cfg, cfg.rank);
  const std::string tmp_path = final_path + ".tmp";
  {
    std::ofstream out(tmp_path);
    if (!out) throw net_error("cannot write " + tmp_path);
    out << port << "\n";
  }
  if (std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    throw net_error("cannot publish " + final_path);
  }
}

std::optional<int> read_port(const NetConfig& cfg, std::uint32_t rank) {
  std::ifstream in(port_path(cfg, rank));
  if (!in) return std::nullopt;
  int port = 0;
  in >> port;
  if (!in || port <= 0 || port > 65535) return std::nullopt;
  return port;
}

/// Blocking write of a whole buffer during bootstrap (sockets are still
/// blocking there, so a zero-byte result means EAGAIN cannot happen).
void write_all(const Fd& fd, const std::byte* p, std::size_t n) {
  while (n > 0) {
    IoResult r = write_some(fd, p, n);
    if (!r.ok()) throw net_error("bootstrap write: " + r.error);
    if (r.closed) throw net_error("bootstrap write: peer closed");
    AMTFMM_ASSERT(r.bytes > 0);
    p += r.bytes;
    n -= r.bytes;
  }
}

}  // namespace

std::optional<NetConfig> net_config_from_env() {
  const char* rank_s = std::getenv("AMTFMM_NET_RANK");
  if (rank_s == nullptr) return std::nullopt;
  NetConfig cfg;
  cfg.rank = static_cast<std::uint32_t>(std::atoi(rank_s));
  const char* size_s = std::getenv("AMTFMM_NET_SIZE");
  cfg.world = size_s ? static_cast<std::uint32_t>(std::atoi(size_s)) : 1;
  const char* kind_s = std::getenv("AMTFMM_NET_TRANSPORT");
  if (kind_s != nullptr && std::string(kind_s) == "tcp") {
    cfg.kind = TransportKind::kTcp;
  }
  const char* dir_s = std::getenv("AMTFMM_NET_DIR");
  cfg.dir = dir_s ? dir_s : ".";
  if (const char* w = std::getenv("AMTFMM_NET_WINDOW")) {
    cfg.window_bytes = static_cast<std::size_t>(std::atoll(w));
    if (cfg.window_bytes == 0) cfg.window_bytes = 1;
  }
  if (cfg.world == 0 || cfg.rank >= cfg.world) {
    throw net_error("AMTFMM_NET_RANK/SIZE inconsistent");
  }
  return cfg;
}

NetTransport::NetTransport(NetConfig cfg, BatchFn on_batch,
                           ControlFn on_control, FailFn on_failure)
    : cfg_(std::move(cfg)),
      on_batch_(std::move(on_batch)),
      on_control_(std::move(on_control)),
      on_failure_(std::move(on_failure)) {
  AMTFMM_ASSERT(cfg_.world >= 1 && cfg_.rank < cfg_.world);
}

NetTransport::~NetTransport() { stop(); }

Fd NetTransport::connect_with_retry(std::uint32_t peer, double deadline) {
  for (;;) {
    Fd fd;
    if (cfg_.kind == TransportKind::kUnix) {
      fd = try_connect_unix(unix_path(cfg_, peer));
    } else if (auto port = read_port(cfg_, peer)) {
      fd = try_connect_tcp_loopback(*port);
    }
    if (fd.valid()) return fd;
    if (steady_seconds() > deadline) {
      throw net_error("rank " + std::to_string(cfg_.rank) +
                      ": timed out connecting to rank " +
                      std::to_string(peer));
    }
    sleep_ms(2);
  }
}

Fd NetTransport::accept_with_deadline(double deadline) {
  for (;;) {
    auto ready = poll_ready({listener_.get()}, {false}, 100);
    if (!ready.empty()) {
      Fd c = accept_conn(listener_);
      if (c.valid()) return c;
    }
    if (steady_seconds() > deadline) {
      throw net_error("rank " + std::to_string(cfg_.rank) +
                      ": timed out accepting peer connections");
    }
  }
}

void NetTransport::start() {
  AMTFMM_ASSERT(!started_);
  started_ = true;
  if (cfg_.world == 1) return;  // no peers, no progress engine

  peers_.resize(cfg_.world);
  {
    SyncLockGuard lk(mu_);
    outboxes_.assign(cfg_.world, {});
    peer_closed_.assign(cfg_.world, 0);
  }
  if (cfg_.kind == TransportKind::kUnix) {
    listener_ = listen_unix(unix_path(cfg_, cfg_.rank));
  } else {
    int port = 0;
    listener_ = listen_tcp_loopback(&port);
    publish_port(cfg_, port);
  }

  const double deadline = steady_seconds() + cfg_.connect_timeout_s;

  // Mesh protocol: every rank connects to all lower ranks and accepts
  // from all higher ones — acyclic, so bootstrap cannot deadlock.  The
  // connector introduces itself with one kHello frame; the acceptor
  // learns who arrived from it (accept order is nondeterministic).
  for (std::uint32_t r = 0; r < cfg_.rank; ++r) {
    Fd fd = connect_with_retry(r, deadline);
    ControlMsg hello;
    hello.type = static_cast<std::uint8_t>(ControlType::kHello);
    hello.rank = cfg_.rank;
    auto frame = encode_control_frame(hello);
    write_all(fd, frame.data(), frame.size());
    peers_[r].fd = std::move(fd);
  }
  for (std::uint32_t i = cfg_.rank + 1; i < cfg_.world; ++i) {
    Fd fd = accept_with_deadline(deadline);
    // Read exactly the hello frame (blocking socket).
    FrameDecoder dec;
    std::optional<FrameDecoder::Frame> f;
    std::byte buf[256];
    while (!(f = dec.next())) {
      if (dec.failed()) throw net_error("bootstrap: " + dec.error());
      IoResult r = read_some(fd, buf, sizeof(buf));
      if (!r.ok()) throw net_error("bootstrap read: " + r.error);
      if (r.closed) throw net_error("bootstrap read: peer closed");
      if (r.bytes == 0) continue;  // blocking socket: spurious wake only
      dec.feed(buf, r.bytes);
    }
    std::string err;
    auto hello = decode_control(f->payload, &err);
    if (!hello ||
        hello->type != static_cast<std::uint8_t>(ControlType::kHello)) {
      throw net_error("bootstrap: bad hello (" + err + ")");
    }
    if (hello->rank >= cfg_.world || hello->rank == cfg_.rank ||
        peers_[hello->rank].fd.valid()) {
      throw net_error("bootstrap: duplicate or out-of-range hello rank");
    }
    // The connector may already have sent more (its first clock-sync ping
    // can share a read with the hello).  Those bytes stay in this decoder,
    // which becomes the peer's stream decoder; progress_main dispatches any
    // frame already complete there before its first poll.
    stats_.wire_bytes_recvd.fetch_add(dec.buffered(),
                                      std::memory_order_relaxed);
    peers_[hello->rank].fd = std::move(fd);
    peers_[hello->rank].decoder = std::move(dec);
  }

  for (std::uint32_t r = 0; r < cfg_.world; ++r) {
    if (r == cfg_.rank) continue;
    AMTFMM_ASSERT(peers_[r].fd.valid());
    set_nonblocking(peers_[r].fd);
  }
  wake_ = make_wake_pipe();
  // thread-ok: the progress engine is the transport's dedicated
  // poll/progress thread (explicit progress, never borrowed from workers).
  progress_ = std::thread([this] { progress_main(); });
}

bool NetTransport::post_batch(std::uint32_t dst, const ParcelBatch& b) {
  AMTFMM_ASSERT(dst < cfg_.world && dst != cfg_.rank);
  OutMsg m;
  m.bytes = encode_batch_frame(b);
  m.counts_window = true;
  const std::size_t sz = m.bytes.size();
  {
    SyncUniqueLock lk(mu_);
    // Window admission: block while the frame would overflow the window,
    // except that an empty window always admits one frame (a single
    // outsized batch must not deadlock).  The progress thread only ever
    // shrinks outstanding_bytes_, so this wait always terminates unless
    // the transport fails or stops — both of which broadcast.
    bool stalled = false;
    double t0 = 0.0;
    while (!failed_.load(std::memory_order_relaxed) &&
           !stop_requested_.load(std::memory_order_relaxed) &&
           outstanding_bytes_ > 0 &&
           outstanding_bytes_ + sz > cfg_.window_bytes) {
      if (!stalled) {
        stalled = true;
        t0 = steady_seconds();
        stats_.backpressure_stalls.fetch_add(1, std::memory_order_relaxed);
      }
      window_cv_.wait(lk);
    }
    if (stalled) {
      stats_.backpressure_stall_us.fetch_add(
          static_cast<std::uint64_t>((steady_seconds() - t0) * 1e6),
          std::memory_order_relaxed);
    }
    if (failed_.load(std::memory_order_relaxed) ||
        stop_requested_.load(std::memory_order_relaxed)) {
      return false;  // dropped; drain() surfaces the failure
    }
    if (peer_closed_[dst] != 0) {
      // An orderly goodbye makes EOF benign, but batches still have
      // nowhere to go — epochs out of agreement is a protocol bug, and
      // failing beats wedging shutdown on an undeliverable frame.
      lk.unlock();
      fail("posting batch to rank " + std::to_string(dst) +
           " which already closed");
      return false;
    }
    outstanding_bytes_ += sz;
    stats_.inject_bytes_hwm.store(
        std::max(stats_.inject_bytes_hwm.load(std::memory_order_relaxed),
                 static_cast<std::uint64_t>(outstanding_bytes_)),
        std::memory_order_relaxed);
    outboxes_[dst].push_back(std::move(m));
    ++queued_msgs_;
    stats_.inject_depth_hwm.store(
        std::max(stats_.inject_depth_hwm.load(std::memory_order_relaxed),
                 static_cast<std::uint64_t>(queued_msgs_)),
        std::memory_order_relaxed);
  }
  poke(wake_);
  return true;
}

void NetTransport::post_control(std::uint32_t dst, const ControlMsg& m) {
  AMTFMM_ASSERT(dst < cfg_.world && dst != cfg_.rank);
  OutMsg out;
  out.bytes = encode_control_frame(m);
  {
    SyncLockGuard lk(mu_);
    if (failed_.load(std::memory_order_relaxed)) return;
    // A frame queued for a closed peer can never be written and would
    // wedge shutdown's outboxes_empty() check; the peer already left.
    if (peer_closed_[dst] != 0) return;
    outboxes_[dst].push_back(std::move(out));
    ++queued_msgs_;
  }
  stats_.control_msgs.fetch_add(1, std::memory_order_relaxed);
  poke(wake_);
}

void NetTransport::broadcast_control(const ControlMsg& m) {
  for (std::uint32_t r = 0; r < cfg_.world; ++r) {
    if (r != cfg_.rank) post_control(r, m);
  }
}

bool NetTransport::post_telemetry(std::uint32_t dst,
                                  std::span<const std::byte> payload) {
  AMTFMM_ASSERT(dst < cfg_.world && dst != cfg_.rank);
  OutMsg out;
  out.bytes = encode_frame(FrameKind::kTelemetry, payload);
  {
    SyncLockGuard lk(mu_);
    if (failed_.load(std::memory_order_relaxed) ||
        stop_requested_.load(std::memory_order_relaxed)) {
      return false;
    }
    if (peer_closed_[dst] != 0) return false;  // best-effort: drop sample
    outboxes_[dst].push_back(std::move(out));
    ++queued_msgs_;
  }
  stats_.telemetry_sent.fetch_add(1, std::memory_order_relaxed);
  poke(wake_);
  return true;
}

void NetTransport::set_on_telemetry(TelemetryFn fn) {
  SyncLockGuard lk(telem_mu_);
  on_telemetry_ = std::move(fn);
}

ClockSyncResult NetTransport::clock_sync(int rounds) {
  if (cfg_.world == 1 || cfg_.rank == 0) {
    // Rank 0 IS the reference timeline; nothing to estimate.
    ClockSyncResult identity;
    identity.samples = 1;
    return identity;
  }
  ClockSyncResult best;
  std::uint64_t best_rtt = ~0ull;
  for (int i = 0; i < rounds; ++i) {
    ControlMsg ping;
    ping.type = static_cast<std::uint8_t>(ControlType::kPing);
    ping.rank = cfg_.rank;
    ping.a = static_cast<std::uint64_t>(i + 1);
    const std::uint64_t t_send = steady_ns();
    ping.b = t_send;
    post_control(0, ping);
    SyncUniqueLock lk(sync_mu_);
    // Deadline loop instead of wait_for(pred): SyncCondVar has no
    // predicate overload (a predicate lambda defeats the thread-safety
    // analysis; see sync_hook.hpp).
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
      if ((sync_pong_valid_ && sync_pong_id_ == ping.a) ||
          failed_.load(std::memory_order_relaxed)) {
        break;
      }
      if (sync_cv_.wait_until(lk, deadline) == std::cv_status::timeout) break;
    }
    const bool got = sync_pong_valid_ && sync_pong_id_ == ping.a;
    if (!got || failed_.load(std::memory_order_relaxed)) break;
    sync_pong_valid_ = false;
    const std::uint64_t t_recv = sync_pong_recv_;
    const std::uint64_t remote = sync_pong_remote_;
    lk.unlock();
    if (t_recv < t_send) continue;  // nonsense sample
    const std::uint64_t rtt = t_recv - t_send;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      // Midpoint estimate: remote stamped its clock ~RTT/2 after t_send.
      const double midpoint =
          (static_cast<double>(t_send) + static_cast<double>(t_recv)) / 2.0;
      best.offset_s = (midpoint - static_cast<double>(remote)) * 1e-9;
      best.uncertainty_s = static_cast<double>(rtt) / 2.0 * 1e-9;
    }
    ++best.samples;
  }
  return best;
}

void NetTransport::stop() {
  if (!progress_.joinable()) return;
  // Announce the close before the sockets disappear.  Ranks finish their
  // final drain at different times; a peer that is still waiting for its
  // own terminate must not read our EOF as a death.  The goodbye rides
  // the same stream, so it is guaranteed to arrive first.
  if (!failed_.load(std::memory_order_relaxed)) {
    ControlMsg bye;
    bye.type = static_cast<std::uint8_t>(ControlType::kGoodbye);
    bye.rank = cfg_.rank;
    broadcast_control(bye);
  }
  stop_requested_.store(true, std::memory_order_relaxed);
  {
    SyncLockGuard lk(mu_);
    window_cv_.notify_all();
  }
  poke(wake_);
  progress_.join();
  for (auto& p : peers_) p.fd.reset();
  listener_.reset();
}

std::string NetTransport::failure_text() const {
  SyncLockGuard lk(mu_);
  return failure_;
}

void NetTransport::fail(const std::string& why) {
  bool first = false;
  {
    SyncLockGuard lk(mu_);
    if (!failed_.load(std::memory_order_relaxed)) {
      failed_.store(true, std::memory_order_relaxed);
      failure_ = why;
      first = true;
    }
    window_cv_.notify_all();
  }
  {
    SyncLockGuard lk(sync_mu_);
    sync_cv_.notify_all();  // clock_sync() must not outlive the mesh
  }
  if (first) {
    std::fprintf(stderr, "rank %u: NET FAIL: %s\n", cfg_.rank, why.c_str());
  }
  if (first && on_failure_) on_failure_(why);
}

bool NetTransport::outboxes_empty() const { return queued_msgs_ == 0; }

void NetTransport::progress_main() {
  std::vector<std::byte> rbuf(1u << 16);
  std::vector<int> fds;
  std::vector<bool> want_write;
  std::vector<std::uint32_t> idx_rank;
  // Frames that arrived with a peer's hello are complete already; no poll
  // would ever report them.
  for (std::uint32_t r = 0; r < cfg_.world; ++r) {
    if (r != cfg_.rank && peers_[r].fd.valid()) dispatch_buffered(r);
  }
  for (;;) {
    fds.clear();
    want_write.clear();
    idx_rank.clear();
    fds.push_back(wake_.rx.get());
    want_write.push_back(false);
    idx_rank.push_back(cfg_.world);  // sentinel: the wake pipe
    bool any_queued = false;
    {
      SyncLockGuard lk(mu_);
      for (std::uint32_t r = 0; r < cfg_.world; ++r) {
        Peer& p = peers_[r];
        if (r == cfg_.rank || !p.fd.valid()) continue;
        fds.push_back(p.fd.get());
        want_write.push_back(!outboxes_[r].empty());
        idx_rank.push_back(r);
        any_queued = any_queued || !outboxes_[r].empty();
      }
      if (stop_requested_.load(std::memory_order_relaxed) &&
          (outboxes_empty() || failed_.load(std::memory_order_relaxed))) {
        return;  // clean shutdown: everything queued has been written
      }
    }
    auto ready = poll_ready(fds, want_write, 100);
    stats_.progress_iters.fetch_add(1, std::memory_order_relaxed);
    if (ready.empty()) {
      stats_.idle_polls.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    (void)any_queued;
    for (std::size_t i : ready) {
      if (idx_rank[i] == cfg_.world) {
        drain(wake_);
        continue;
      }
      const std::uint32_t r = idx_rank[i];
      if (peers_[r].fd.valid()) do_read(r, rbuf);
      if (peers_[r].fd.valid()) do_write(r);
    }
    // A wake for new outbound frames may race the poll: retry writes for
    // every peer with queued frames, not just poll-ready ones.
    for (std::uint32_t r = 0; r < cfg_.world; ++r) {
      if (r == cfg_.rank || !peers_[r].fd.valid()) continue;
      do_write(r);
    }
  }
}

void NetTransport::do_read(std::uint32_t rank, std::vector<std::byte>& buf) {
  Peer& p = peers_[rank];
  for (;;) {
    IoResult r = read_some(p.fd, buf.data(), buf.size());
    if (!r.ok()) {
      fail("recv from rank " + std::to_string(rank) + ": " + r.error);
      return;
    }
    if (r.bytes > 0) {
      stats_.wire_bytes_recvd.fetch_add(r.bytes, std::memory_order_relaxed);
      p.decoder.feed(buf.data(), r.bytes);
      if (!dispatch_buffered(rank)) return;
      continue;  // keep reading until EAGAIN
    }
    if (r.closed) {
      on_peer_closed(rank);
      return;
    }
    return;  // EAGAIN
  }
}

bool NetTransport::dispatch_buffered(std::uint32_t rank) {
  FrameDecoder& dec = peers_[rank].decoder;
  while (auto f = dec.next()) dispatch(rank, std::move(*f));
  if (dec.failed()) {
    fail("stream from rank " + std::to_string(rank) + ": " + dec.error());
    return false;
  }
  return true;
}

void NetTransport::on_peer_closed(std::uint32_t rank) {
  Peer& p = peers_[rank];
  p.fd.reset();
  p.write_off = 0;
  {
    // Frames queued for a dead peer can never be written; drop them so
    // shutdown's outboxes_empty() check still converges.  The closed
    // flag is set under the same critical section — posters read it
    // under mu_ before appending, so they can never observe "open" after
    // the outbox has been cleared.  (Thread-safety analysis caught the
    // old unlocked `closed = true` store racing post_batch's read.)
    SyncLockGuard lk(mu_);
    peer_closed_[rank] = 1;
    for (const OutMsg& m : outboxes_[rank]) {
      if (m.counts_window) outstanding_bytes_ -= m.bytes.size();
    }
    queued_msgs_ -= outboxes_[rank].size();
    outboxes_[rank].clear();
    window_cv_.notify_all();
  }
  if (!p.said_goodbye && !stop_requested_.load(std::memory_order_relaxed)) {
    fail("rank " + std::to_string(rank) +
         " closed its connection unexpectedly (peer died?)");
  }
}

void NetTransport::do_write(std::uint32_t rank) {
  Peer& p = peers_[rank];
  for (;;) {
    SyncUniqueLock lk(mu_);
    if (outboxes_[rank].empty()) return;
    // std::deque guarantees front() stays valid across concurrent
    // push_back from posters, and only this thread pops — so the write
    // syscall can run unlocked.  Deliberately NOT holding mu_ across the
    // send: a blocked socket would stall every poster on the window.
    OutMsg& m = outboxes_[rank].front();
    lk.unlock();
    IoResult r =
        write_some(p.fd, m.bytes.data() + p.write_off,
                   m.bytes.size() - p.write_off);
    if (!r.ok()) {
      fail("send to rank " + std::to_string(rank) + ": " + r.error);
      return;
    }
    if (r.closed) {
      on_peer_closed(rank);
      return;
    }
    if (r.bytes == 0) {  // EAGAIN mid-frame
      if (p.write_off > 0) {
        stats_.partial_writes.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    stats_.wire_bytes_sent.fetch_add(r.bytes, std::memory_order_relaxed);
    p.write_off += r.bytes;
    if (p.write_off < m.bytes.size()) continue;  // more of this frame
    stats_.msgs_sent.fetch_add(1, std::memory_order_relaxed);
    lk.lock();
    if (m.counts_window) {
      outstanding_bytes_ -= m.bytes.size();
      window_cv_.notify_all();
    }
    outboxes_[rank].pop_front();
    --queued_msgs_;
    p.write_off = 0;
  }
}

void NetTransport::dispatch(std::uint32_t rank, FrameDecoder::Frame&& f) {
  std::string err;
  if (f.kind == FrameKind::kBatch) {
    auto b = decode_batch(f.payload, &err);
    if (!b) {
      fail("batch from rank " + std::to_string(rank) + ": " + err);
      return;
    }
    stats_.msgs_recvd.fetch_add(1, std::memory_order_relaxed);
    if (on_batch_) on_batch_(std::move(*b));
    return;
  }
  if (f.kind == FrameKind::kTelemetry) {
    stats_.telemetry_recvd.fetch_add(1, std::memory_order_relaxed);
    TelemetryFn fn;
    {
      SyncLockGuard lk(telem_mu_);
      fn = on_telemetry_;  // copy: the call runs outside the lock
    }
    if (fn) fn(rank, std::move(f.payload));
    return;
  }
  auto m = decode_control(f.payload, &err);
  if (!m) {
    fail("control from rank " + std::to_string(rank) + ": " + err);
    return;
  }
  if (m->type == static_cast<std::uint8_t>(ControlType::kGoodbye)) {
    peers_[rank].said_goodbye = true;  // transport-internal, not forwarded
    return;
  }
  if (m->type == static_cast<std::uint8_t>(ControlType::kPing)) {
    // Transport-internal: stamp our steady clock and answer immediately
    // from the progress thread, keeping the echoed send timestamp intact.
    ControlMsg pong = *m;
    pong.type = static_cast<std::uint8_t>(ControlType::kPong);
    pong.rank = cfg_.rank;
    pong.c = steady_ns();
    post_control(rank, pong);
    return;
  }
  if (m->type == static_cast<std::uint8_t>(ControlType::kPong)) {
    SyncLockGuard lk(sync_mu_);
    sync_pong_id_ = m->a;
    sync_pong_remote_ = m->c;
    sync_pong_recv_ = steady_ns();
    sync_pong_valid_ = true;
    sync_cv_.notify_all();
    return;
  }
  if (on_control_) on_control_(*m);
}

}  // namespace amtfmm::net
