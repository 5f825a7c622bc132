#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "runtime/net/frame.hpp"
#include "runtime/net/socket.hpp"
#include "runtime/net/transport.hpp"

namespace amtfmm::net {
namespace {

using namespace std::chrono_literals;

/// Fresh bootstrap directory per test, removed on destruction.
struct TempDir {
  TempDir() {
    static std::atomic<int> counter{0};
    path = std::filesystem::temp_directory_path() /
           ("amtfmm_nt_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter.fetch_add(1)));
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::filesystem::path path;
};

NetConfig config_for(std::uint32_t rank, std::uint32_t world,
                     const std::string& dir, TransportKind kind) {
  NetConfig cfg;
  cfg.rank = rank;
  cfg.world = world;
  cfg.kind = kind;
  cfg.dir = dir;
  cfg.connect_timeout_s = 10.0;
  return cfg;
}

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  // An empty vector's data() may be null, and memcpy from/to null is UB
  // even for zero bytes.
  if (!s.empty()) std::memcpy(v.data(), s.data(), s.size());
  return v;
}

ParcelBatch one_parcel_batch(std::uint32_t src, std::uint32_t dst,
                             std::uint64_t seq, const std::string& text) {
  ParcelBatch b;
  b.src = src;
  b.dst = dst;
  b.seq = seq;
  b.bytes = text.size();
  b.coalesced = false;
  Task p;
  p.locality = dst;
  p.net_kind = 1;
  p.net_payload =
      std::make_shared<const std::vector<std::byte>>(bytes_of(text));
  b.tasks.push_back(std::move(p));
  return b;
}

/// Thread-safe recorder for a transport's callbacks, with timed waits so
/// a broken transport fails the test instead of hanging it.
struct Sink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<ParcelBatch> batches;
  std::vector<ControlMsg> controls;
  std::vector<std::string> failures;

  NetTransport::BatchFn batch_fn() {
    return [this](ParcelBatch&& b) {
      std::lock_guard<std::mutex> lk(mu);
      batches.push_back(std::move(b));
      cv.notify_all();
    };
  }
  NetTransport::ControlFn control_fn() {
    return [this](const ControlMsg& m) {
      std::lock_guard<std::mutex> lk(mu);
      controls.push_back(m);
      cv.notify_all();
    };
  }
  NetTransport::FailFn fail_fn() {
    return [this](const std::string& why) {
      std::lock_guard<std::mutex> lk(mu);
      failures.push_back(why);
      cv.notify_all();
    };
  }
  template <typename Pred>
  bool wait_for(Pred pred, std::chrono::seconds timeout = 10s) {
    std::unique_lock<std::mutex> lk(mu);
    return cv.wait_for(lk, timeout, [&] { return pred(); });
  }
};

/// Starts both ranks of a two-rank mesh concurrently (bootstrap blocks
/// until the full mesh is up, so the starts must overlap).
void start_pair(NetTransport& t0, NetTransport& t1) {
  std::thread peer([&] { t1.start(); });
  t0.start();
  peer.join();
}

class NetTransportPairTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(NetTransportPairTest, BatchesAndControlsRoundTripBothWays) {
  TempDir dir;
  Sink s0, s1;
  NetTransport t0(config_for(0, 2, dir.path, GetParam()), s0.batch_fn(),
                  s0.control_fn(), s0.fail_fn());
  NetTransport t1(config_for(1, 2, dir.path, GetParam()), s1.batch_fn(),
                  s1.control_fn(), s1.fail_fn());
  start_pair(t0, t1);

  ASSERT_TRUE(t0.post_batch(1, one_parcel_batch(0, 1, 0, "zero to one")));
  ASSERT_TRUE(t1.post_batch(0, one_parcel_batch(1, 0, 0, "one to zero")));
  ControlMsg probe;
  probe.type = static_cast<std::uint8_t>(ControlType::kProbe);
  probe.rank = 0;
  probe.a = 7;
  t0.post_control(1, probe);

  ASSERT_TRUE(s1.wait_for([&] { return s1.batches.size() == 1 &&
                                       s1.controls.size() == 1; }));
  ASSERT_TRUE(s0.wait_for([&] { return s0.batches.size() == 1; }));
  {
    std::lock_guard<std::mutex> lk(s1.mu);
    EXPECT_EQ(s1.batches[0].src, 0u);
    ASSERT_EQ(s1.batches[0].tasks.size(), 1u);
    EXPECT_EQ(*s1.batches[0].tasks[0].net_payload, bytes_of("zero to one"));
    EXPECT_EQ(s1.controls[0].type,
              static_cast<std::uint8_t>(ControlType::kProbe));
    EXPECT_EQ(s1.controls[0].a, 7u);
  }

  // Orderly shutdown from both ends: no failure callbacks, and the
  // transport-level counters saw the traffic.
  t0.stop();
  t1.stop();
  EXPECT_FALSE(t0.failed()) << t0.failure_text();
  EXPECT_FALSE(t1.failed()) << t1.failure_text();
  EXPECT_GE(t0.stats().msgs_sent.load(), 1u);
  EXPECT_GE(t0.stats().msgs_recvd.load(), 1u);
  EXPECT_GT(t0.stats().wire_bytes_sent.load(), 0u);
  EXPECT_GT(t0.stats().wire_bytes_recvd.load(), 0u);
  EXPECT_GE(t0.stats().control_msgs.load(), 1u);
  {
    std::lock_guard<std::mutex> lk(s0.mu);
    EXPECT_TRUE(s0.failures.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, NetTransportPairTest,
                         ::testing::Values(TransportKind::kUnix,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return info.param == TransportKind::kUnix
                                      ? "unix"
                                      : "tcp";
                         });

TEST(NetTransport, BackpressureWindowBoundsInjectedBytesAndDrains) {
  TempDir dir;
  Sink s0, s1;
  auto cfg0 = config_for(0, 2, dir.path, TransportKind::kUnix);
  cfg0.window_bytes = 2048;  // a few frames at most
  NetTransport t0(cfg0, s0.batch_fn(), s0.control_fn(), s0.fail_fn());
  NetTransport t1(config_for(1, 2, dir.path, TransportKind::kUnix),
                  s1.batch_fn(), s1.control_fn(), s1.fail_fn());
  start_pair(t0, t1);

  // Far more bytes than the window: the posting thread must block and
  // resume as the progress engine drains, never drop or wedge.
  const int kBatches = 200;
  const std::string payload(1024, 'p');
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(t0.post_batch(1, one_parcel_batch(0, 1, i, payload)));
  }
  ASSERT_TRUE(s1.wait_for(
      [&] { return s1.batches.size() == static_cast<std::size_t>(kBatches); },
      30s));
  EXPECT_GT(t0.stats().backpressure_stalls.load(), 0u);
  // The high-water mark respects the window: one frame may be admitted
  // into an empty window regardless of size, so the bound is window plus
  // one frame's worth, not an exact ceiling.
  EXPECT_LE(t0.stats().inject_bytes_hwm.load(),
            cfg0.window_bytes + 2048);
  t0.stop();
  t1.stop();
  EXPECT_FALSE(t0.failed()) << t0.failure_text();
}

TEST(NetTransport, OrderlyPeerStopIsNotAFailure) {
  TempDir dir;
  Sink s0, s1;
  NetTransport t0(config_for(0, 2, dir.path, TransportKind::kUnix),
                  s0.batch_fn(), s0.control_fn(), s0.fail_fn());
  NetTransport t1(config_for(1, 2, dir.path, TransportKind::kUnix),
                  s1.batch_fn(), s1.control_fn(), s1.fail_fn());
  start_pair(t0, t1);

  // Rank 1 stops while rank 0 is still live: the goodbye announcement
  // must make the EOF benign.
  t1.stop();
  std::this_thread::sleep_for(200ms);
  EXPECT_FALSE(t0.failed()) << t0.failure_text();
  {
    std::lock_guard<std::mutex> lk(s0.mu);
    EXPECT_TRUE(s0.failures.empty());
  }
  t0.stop();
}

TEST(NetTransport, PeerDeathFailsFastInsteadOfHanging) {
  TempDir dir;
  // The test plays rank 0 with a bare listener: accept rank 1's
  // connection, swallow its hello, then vanish without a goodbye —
  // exactly what a crashed process looks like from the outside.
  Fd listener = listen_unix((dir.path / "sock.0").string());

  Sink s1;
  NetTransport t1(config_for(1, 2, dir.path, TransportKind::kUnix),
                  s1.batch_fn(), s1.control_fn(), s1.fail_fn());
  std::thread starter([&] { t1.start(); });

  Fd conn;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!conn.valid()) {
    conn = accept_conn(listener);
    if (!conn.valid()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "rank 1 never connected";
      std::this_thread::sleep_for(1ms);
    }
  }
  // Read rank 1's hello (one control frame) so its start() completes.
  std::size_t got = 0;
  std::byte buf[64];
  while (got < sizeof(FrameHeader) + sizeof(ControlMsg)) {
    IoResult r = read_some(conn, buf, sizeof(buf));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.closed);
    got += r.bytes;
    if (r.bytes == 0) std::this_thread::sleep_for(1ms);
  }
  starter.join();

  conn.reset();  // abrupt close: EOF with no goodbye announcement

  ASSERT_TRUE(s1.wait_for([&] { return !s1.failures.empty(); }))
      << "peer death was never detected";
  EXPECT_TRUE(t1.failed());
  EXPECT_NE(t1.failure_text().find("closed"), std::string::npos)
      << t1.failure_text();
  // A failed transport drops further posts instead of blocking forever,
  // and stop() returns promptly on a dead mesh.
  EXPECT_FALSE(t1.post_batch(0, one_parcel_batch(1, 0, 0, "too late")));
  t1.stop();
}

TEST(NetTransport, FramesSharingTheHelloReadAreDispatched) {
  // Rank 1's hello and its first clock-sync ping can reach rank 0 in one
  // read; the frames after the hello must still reach the progress
  // thread.  The test plays rank 1 with a bare socket and sends hello,
  // ping and a probe in a single write().
  TempDir dir;
  Sink s0;
  NetTransport t0(config_for(0, 2, dir.path, TransportKind::kUnix),
                  s0.batch_fn(), s0.control_fn(), s0.fail_fn());
  std::thread starter([&] { t0.start(); });

  Fd conn;
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!conn.valid()) {
    conn = try_connect_unix((dir.path / "sock.0").string());
    if (!conn.valid()) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "rank 0 never listened";
      std::this_thread::sleep_for(1ms);
    }
  }
  std::vector<std::byte> out;
  auto append = [&](ControlType type, std::uint64_t a) {
    ControlMsg m;
    m.type = static_cast<std::uint8_t>(type);
    m.rank = 1;
    m.a = a;
    const auto f = encode_control_frame(m);
    out.insert(out.end(), f.begin(), f.end());
  };
  append(ControlType::kHello, 0);
  append(ControlType::kPing, 42);
  append(ControlType::kProbe, 7);
  const IoResult w = write_some(conn, out.data(), out.size());
  ASSERT_TRUE(w.ok()) << w.error;
  ASSERT_EQ(w.bytes, out.size());
  starter.join();

  // The probe reaches rank 0's control callback ...
  ASSERT_TRUE(s0.wait_for([&] { return !s0.controls.empty(); }))
      << "probe after the hello was never dispatched";
  {
    std::lock_guard<std::mutex> lk(s0.mu);
    EXPECT_EQ(s0.controls[0].type,
              static_cast<std::uint8_t>(ControlType::kProbe));
    EXPECT_EQ(s0.controls[0].a, 7u);
  }
  // ... and the ping is answered with a pong echoing its id.
  FrameDecoder dec;
  std::optional<FrameDecoder::Frame> f;
  std::byte buf[256];
  while (!(f = dec.next())) {
    ASSERT_FALSE(dec.failed()) << dec.error();
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "no pong";
    const IoResult r = read_some(conn, buf, sizeof(buf));
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_FALSE(r.closed);
    dec.feed(buf, r.bytes);
  }
  std::string err;
  const auto pong = decode_control(f->payload, &err);
  ASSERT_TRUE(pong.has_value()) << err;
  EXPECT_EQ(pong->type, static_cast<std::uint8_t>(ControlType::kPong));
  EXPECT_EQ(pong->a, 42u);

  t0.stop();
  EXPECT_FALSE(t0.failed()) << t0.failure_text();
}

TEST(NetTransport, WorldOfOneNeedsNoMesh) {
  TempDir dir;
  Sink s;
  NetTransport t(config_for(0, 1, dir.path, TransportKind::kUnix),
                 s.batch_fn(), s.control_fn(), s.fail_fn());
  t.start();  // no peers: nothing to bootstrap, no progress thread
  t.stop();
  EXPECT_FALSE(t.failed());
}

}  // namespace
}  // namespace amtfmm::net
