#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "runtime/net/frame.hpp"

namespace amtfmm::net {
namespace {

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> v(s.size());
  // An empty vector's data() may be null, and memcpy from/to null is UB
  // even for zero bytes.
  if (!s.empty()) std::memcpy(v.data(), s.data(), s.size());
  return v;
}

/// A parcel at locality `dst` carrying `text`.
Task parcel(std::uint8_t kind, bool high, std::uint32_t dst,
            const std::string& text) {
  Task t;
  t.locality = dst;
  t.high_priority = high;
  t.net_kind = kind;
  t.net_payload =
      std::make_shared<const std::vector<std::byte>>(bytes_of(text));
  return t;
}

/// A batch of `parcels`, its byte count their summed payloads.
ParcelBatch batch_of(std::uint32_t src, std::uint32_t dst, std::uint64_t seq,
                     FlushReason reason, std::vector<Task> parcels) {
  ParcelBatch b;
  b.src = src;
  b.dst = dst;
  b.seq = seq;
  b.reason = reason;
  for (const Task& t : parcels) {
    b.bytes += t.net_payload->size();
    b.any_high = b.any_high || t.high_priority;
  }
  b.tasks = std::move(parcels);
  return b;
}

ParcelBatch sample_batch() {
  return batch_of(2, 5, 41, FlushReason::kQuiescence,
                  {parcel(1, true, 5, "hello parcel"), parcel(2, false, 5, ""),
                   parcel(0x10, false, 5, std::string(1000, 'x'))});
}

/// Feeds `wire` to a decoder in chunks of `step` bytes and returns every
/// frame that comes out — the torn-read path a socket produces.
std::vector<FrameDecoder::Frame> decode_chunked(
    const std::vector<std::byte>& wire, std::size_t step) {
  FrameDecoder d;
  std::vector<FrameDecoder::Frame> out;
  for (std::size_t off = 0; off < wire.size(); off += step) {
    const std::size_t n = std::min(step, wire.size() - off);
    d.feed(wire.data() + off, n);
    while (auto f = d.next()) out.push_back(std::move(*f));
  }
  EXPECT_FALSE(d.failed()) << d.error();
  return out;
}

TEST(Crc32, MatchesIeeeCheckVector) {
  // The canonical IEEE 802.3 check value for the ASCII digits 1-9.
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(FrameCodec, BatchRoundTripsThroughWireBytes) {
  const ParcelBatch b = sample_batch();
  const auto wire = encode_batch_frame(b);
  FrameDecoder d;
  d.feed(wire.data(), wire.size());
  auto f = d.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->kind, FrameKind::kBatch);
  std::string err;
  auto got = decode_batch(f->payload, &err);
  ASSERT_TRUE(got.has_value()) << err;
  EXPECT_EQ(got->src, b.src);
  EXPECT_EQ(got->dst, b.dst);
  EXPECT_EQ(got->seq, b.seq);
  EXPECT_EQ(got->reason, b.reason);
  EXPECT_EQ(got->any_high, b.any_high);
  EXPECT_EQ(got->coalesced, b.coalesced);
  ASSERT_EQ(got->tasks.size(), b.tasks.size());
  for (std::size_t i = 0; i < b.tasks.size(); ++i) {
    const Task& t = got->tasks[i];
    EXPECT_EQ(t.locality, b.dst) << "a decoded parcel runs at dst";
    EXPECT_EQ(t.net_kind, b.tasks[i].net_kind);
    EXPECT_EQ(t.high_priority, b.tasks[i].high_priority);
    ASSERT_TRUE(t.net_payload);
    EXPECT_EQ(*t.net_payload, *b.tasks[i].net_payload);
    EXPECT_FALSE(t.fn) << "a decoded parcel carries no closure";
  }
  EXPECT_EQ(got->bytes, b.bytes);
}

/// Lower-case hex of `bytes`, for readable layout mismatches.
std::string hex(const std::vector<std::byte>& bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out += digits[static_cast<unsigned>(b) >> 4];
    out += digits[static_cast<unsigned>(b) & 0xf];
  }
  return out;
}

TEST(FrameCodec, BatchFrameLayoutIsPinned) {
  // Three parcels of mixed kinds, one high-priority and one empty, in a
  // coalesced batch flushed on its deadline: every byte of the frame is
  // fixed, so a codec change cannot alter what goes on the socket.
  const ParcelBatch b = batch_of(
      1, 3, 7, FlushReason::kDeadline,
      {parcel(1, true, 3, "abc"), parcel(2, false, 3, ""),
       parcel(0x10, false, 3, std::string("\x00\x01\x02\x03\x04", 5))});
  ASSERT_TRUE(b.coalesced);
  const std::string expected =
      // Frame header: magic, kind kBatch, flags, reserved, 64 payload
      // bytes, header CRC.
      "50464d41" "01" "00" "0000" "40000000" "388c408c"
      // Batch header: src 1, dst 3, seq 7, 3 parcels, any_high, reason
      // kDeadline, coalesced, pad, 8 payload bytes.
      "01000000" "03000000" "0700000000000000" "03000000"
      "01" "01" "01" "00" "0800000000000000"
      // Parcels: length, kind, high, reserved, payload.
      "03000000" "01" "01" "0000" "616263"
      "00000000" "02" "00" "0000"
      "05000000" "10" "00" "0000" "0001020304";
  EXPECT_EQ(hex(encode_batch_frame(b)), expected);
}

TEST(FrameCodec, ControlRoundTripsEveryType) {
  for (std::uint8_t t = 1; t <= 5; ++t) {
    ControlMsg m;
    m.type = t;
    m.rank = 7;
    m.a = 0x0102030405060708ull;
    m.b = 42;
    m.c = ~0ull;
    const auto wire = encode_control_frame(m);
    FrameDecoder d;
    d.feed(wire.data(), wire.size());
    auto f = d.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->kind, FrameKind::kControl);
    std::string err;
    auto got = decode_control(f->payload, &err);
    ASSERT_TRUE(got.has_value()) << err;
    EXPECT_EQ(got->type, t);
    EXPECT_EQ(got->rank, m.rank);
    EXPECT_EQ(got->a, m.a);
    EXPECT_EQ(got->b, m.b);
    EXPECT_EQ(got->c, m.c);
  }
}

TEST(FrameDecoder, ReassemblesFramesFromTornReads) {
  // Several frames back to back, delivered at every chunk granularity
  // down to one byte at a time — partial reads are the normal case.
  std::vector<std::byte> wire;
  const auto b = encode_batch_frame(sample_batch());
  ControlMsg m;
  m.type = static_cast<std::uint8_t>(ControlType::kProbe);
  m.a = 9;
  const auto c = encode_control_frame(m);
  for (int i = 0; i < 3; ++i) {
    wire.insert(wire.end(), b.begin(), b.end());
    wire.insert(wire.end(), c.begin(), c.end());
  }
  for (const std::size_t step : {1ul, 2ul, 3ul, 7ul, 16ul, 64ul, 1024ul}) {
    auto frames = decode_chunked(wire, step);
    ASSERT_EQ(frames.size(), 6u) << "step=" << step;
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(frames[2 * i].kind, FrameKind::kBatch);
      EXPECT_EQ(frames[2 * i + 1].kind, FrameKind::kControl);
    }
  }
}

TEST(FrameDecoder, CompactionSurvivesManySmallFrames) {
  // Enough traffic to trigger the internal buffer compaction repeatedly.
  ControlMsg m;
  m.type = static_cast<std::uint8_t>(ControlType::kAck);
  const auto c = encode_control_frame(m);
  FrameDecoder d;
  std::size_t got = 0;
  for (int i = 0; i < 2000; ++i) {
    d.feed(c.data(), c.size());
    while (d.next()) ++got;
  }
  EXPECT_EQ(got, 2000u);
  EXPECT_FALSE(d.failed());
  EXPECT_EQ(d.buffered(), 0u);
}

TEST(FrameDecoder, MalformedHeadersFailSticky) {
  struct Case {
    const char* name;
    std::size_t flip_off;  ///< byte to corrupt in a valid frame
  };
  // Corrupting any header byte must either break the magic or the CRC;
  // both land in the sticky error state without reading the payload.
  const auto wire = encode_batch_frame(sample_batch());
  for (std::size_t off = 0; off < sizeof(FrameHeader); ++off) {
    auto bad = wire;
    bad[off] ^= std::byte{0x5a};
    FrameDecoder d;
    d.feed(bad.data(), bad.size());
    auto f = d.next();
    EXPECT_FALSE(f.has_value()) << "header byte " << off;
    EXPECT_TRUE(d.failed()) << "header byte " << off;
    // Sticky: feeding good bytes afterwards cannot resurrect the stream.
    d.feed(wire.data(), wire.size());
    EXPECT_FALSE(d.next().has_value());
    EXPECT_TRUE(d.failed());
  }
}

TEST(FrameDecoder, TruncatedStreamYieldsNothingAndNoError) {
  // A prefix of a valid frame is not an error — just an incomplete read.
  const auto wire = encode_batch_frame(sample_batch());
  for (const std::size_t keep : {0ul, 1ul, 15ul, 16ul, wire.size() - 1}) {
    FrameDecoder d;
    d.feed(wire.data(), keep);
    EXPECT_FALSE(d.next().has_value()) << "keep=" << keep;
    EXPECT_FALSE(d.failed()) << "keep=" << keep;
  }
}

TEST(BatchDecode, MalformedPayloadsRejectedWithoutUB) {
  const auto good_frame = encode_batch_frame(sample_batch());
  const std::span<const std::byte> good(
      good_frame.data() + sizeof(FrameHeader),
      good_frame.size() - sizeof(FrameHeader));
  std::string err;
  ASSERT_TRUE(decode_batch(good, &err).has_value());

  struct Case {
    const char* name;
    std::vector<std::byte> payload;
  };
  std::vector<Case> cases;
  cases.push_back({"empty", {}});
  cases.push_back({"short header", std::vector<std::byte>(16)});
  {  // parcel count far beyond the bytes present
    std::vector<std::byte> p(good.begin(), good.end());
    const std::uint32_t huge = 0x7fffffff;
    std::memcpy(p.data() + 16, &huge, 4);
    cases.push_back({"hostile parcel count", std::move(p)});
  }
  {  // truncated mid-parcel
    std::vector<std::byte> p(good.begin(), good.end() - 10);
    cases.push_back({"truncated parcel payload", std::move(p)});
  }
  {  // trailing garbage after the declared parcels
    std::vector<std::byte> p(good.begin(), good.end());
    p.push_back(std::byte{0});
    cases.push_back({"trailing garbage", std::move(p)});
  }
  {  // declared payload_bytes disagrees with the parcels
    std::vector<std::byte> p(good.begin(), good.end());
    const std::uint64_t wrong = 1;
    std::memcpy(p.data() + 24, &wrong, 8);
    cases.push_back({"payload_bytes mismatch", std::move(p)});
  }
  {  // one parcel's length field points past the end
    std::vector<std::byte> p(good.begin(), good.end());
    const std::uint32_t big = 0x00ffffff;
    std::memcpy(p.data() + 32, &big, 4);  // first parcel header
    cases.push_back({"parcel length overruns", std::move(p)});
  }
  {  // kind 0 is local work, never a parcel
    std::vector<std::byte> p(good.begin(), good.end());
    p[32 + 4] = std::byte{0};  // first parcel's kind
    cases.push_back({"parcel kind 0", std::move(p)});
  }
  {  // flush reasons end at kQuiescence (2)
    std::vector<std::byte> p(good.begin(), good.end());
    p[21] = std::byte{3};
    cases.push_back({"unknown flush reason", std::move(p)});
  }
  for (auto& c : cases) {
    err.clear();
    auto got = decode_batch(c.payload, &err);
    EXPECT_FALSE(got.has_value()) << c.name;
    EXPECT_FALSE(err.empty()) << c.name;
  }
}

TEST(BatchDecode, RandomizedMutationsNeverCrash) {
  // Fuzz-style sweep: random single- and multi-byte mutations of a valid
  // batch payload must decode or be rejected, never misbehave.  Run under
  // ASan in CI, this is the no-UB guarantee for hostile input.
  const auto frame = encode_batch_frame(sample_batch());
  const std::vector<std::byte> good(frame.begin() + sizeof(FrameHeader),
                                    frame.end());
  std::mt19937 rng(12345);
  std::uniform_int_distribution<std::size_t> pos(0, good.size() - 1);
  std::uniform_int_distribution<int> val(0, 255);
  for (int iter = 0; iter < 2000; ++iter) {
    auto p = good;
    const int flips = 1 + iter % 4;
    for (int f = 0; f < flips; ++f) {
      p[pos(rng)] = static_cast<std::byte>(val(rng));
    }
    std::string err;
    (void)decode_batch(p, &err);  // outcome irrelevant; must not misbehave
  }
}

TEST(ControlDecode, RejectsWrongSizeAndUnknownType) {
  std::string err;
  EXPECT_FALSE(decode_control(std::vector<std::byte>(31), &err).has_value());
  EXPECT_FALSE(decode_control(std::vector<std::byte>(33), &err).has_value());
  // Type 0 and types past kPong are invalid.
  for (const std::uint8_t t : {0, 8, 9, 255}) {
    ControlMsg m;
    m.type = t;
    auto wire = encode_control_frame(m);
    const std::span<const std::byte> payload(wire.data() + sizeof(FrameHeader),
                                             wire.size() - sizeof(FrameHeader));
    err.clear();
    EXPECT_FALSE(decode_control(payload, &err).has_value()) << unsigned(t);
    EXPECT_FALSE(err.empty()) << unsigned(t);
  }
}

TEST(FrameCodec, OversizedPayloadRejectedAtBothEnds) {
  // encode_frame refuses to build an illegal frame...
  std::vector<std::byte> big;
  EXPECT_THROW(
      {
        std::vector<std::byte> huge(kMaxFramePayload + 1ull);
        encode_frame(FrameKind::kBatch, huge);
      },
      net_error);
  // ...and a hand-forged header announcing one is rejected by the decoder
  // before any allocation happens.
  std::vector<std::byte> h(sizeof(FrameHeader));
  const std::uint32_t magic = kFrameMagic;
  std::memcpy(h.data(), &magic, 4);
  h[4] = std::byte{1};  // kBatch
  const std::uint32_t len = kMaxFramePayload + 1;
  std::memcpy(h.data() + 8, &len, 4);
  const std::uint32_t crc = crc32(h.data(), 12);
  std::memcpy(h.data() + 12, &crc, 4);
  FrameDecoder d;
  d.feed(h.data(), h.size());
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());
}

}  // namespace
}  // namespace amtfmm::net
