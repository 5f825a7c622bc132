// net-ok: frame codec is pure byte manipulation (no sockets), but lives in
// src/runtime/net as part of the transport layer.
#include "runtime/net/frame.hpp"

#include <array>
#include <cstring>
#include <memory>

#include "support/error.hpp"

namespace amtfmm::net {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[i] = c;
  }
  return t;
}

/// Little-endian field access.  The codec reads/writes through memcpy on
/// explicitly laid-out offsets rather than casting structs, so it is
/// byte-order and padding safe on any platform we build for.
template <typename T>
T load_le(const std::byte* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store_le(std::byte* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

// Batch payload layout (all little-endian):
//   BatchHeader (32 bytes):
//     u32 src, u32 dst, u64 seq, u32 parcel_count,
//     u8 any_high, u8 reason, u8 coalesced, u8 pad, u64 payload_bytes
//   then per parcel:
//     u32 bytes, u8 kind, u8 high, u16 reserved, then `bytes` of payload
constexpr std::size_t kBatchHeaderBytes = 32;
constexpr std::size_t kParcelHeaderBytes = 8;

/// A frame of `payload_bytes`: the 16-byte header written, the payload
/// left for the caller to fill.
std::vector<std::byte> new_frame(FrameKind kind, std::size_t payload_bytes) {
  if (payload_bytes > kMaxFramePayload) {
    throw net_error("encode_frame: payload exceeds kMaxFramePayload");
  }
  std::vector<std::byte> out(sizeof(FrameHeader) + payload_bytes);
  std::byte* h = out.data();
  store_le<std::uint32_t>(h + 0, kFrameMagic);
  store_le<std::uint8_t>(h + 4, static_cast<std::uint8_t>(kind));
  store_le<std::uint8_t>(h + 5, 0);   // flags
  store_le<std::uint16_t>(h + 6, 0);  // reserved
  store_le<std::uint32_t>(h + 8, static_cast<std::uint32_t>(payload_bytes));
  store_le<std::uint32_t>(h + 12, crc32(h, 12));
  return out;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t n) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::vector<std::byte> encode_frame(FrameKind kind,
                                    std::span<const std::byte> payload) {
  std::vector<std::byte> out = new_frame(kind, payload.size());
  if (!payload.empty()) {
    std::memcpy(out.data() + sizeof(FrameHeader), payload.data(),
                payload.size());
  }
  return out;
}

std::vector<std::byte> encode_batch_frame(const ParcelBatch& b) {
  std::size_t payload_bytes = 0;
  for (const Task& t : b.tasks) {
    AMTFMM_ASSERT_MSG(t.net_kind != 0 && t.net_payload,
                      "batch frame: task is not a parcel");
    payload_bytes += t.net_payload->size();
  }
  AMTFMM_ASSERT_MSG(payload_bytes == b.bytes,
                    "batch frame: payloads are not the parcels' wire bytes");
  const std::size_t body = kBatchHeaderBytes +
                           kParcelHeaderBytes * b.tasks.size() + payload_bytes;
  std::vector<std::byte> out = new_frame(FrameKind::kBatch, body);
  std::byte* q = out.data() + sizeof(FrameHeader);
  store_le<std::uint32_t>(q + 0, b.src);
  store_le<std::uint32_t>(q + 4, b.dst);
  store_le<std::uint64_t>(q + 8, b.seq);
  store_le<std::uint32_t>(q + 16, static_cast<std::uint32_t>(b.tasks.size()));
  store_le<std::uint8_t>(q + 20, b.any_high ? 1 : 0);
  store_le<std::uint8_t>(q + 21, static_cast<std::uint8_t>(b.reason));
  store_le<std::uint8_t>(q + 22, b.coalesced ? 1 : 0);
  store_le<std::uint8_t>(q + 23, 0);
  store_le<std::uint64_t>(q + 24, static_cast<std::uint64_t>(payload_bytes));
  q += kBatchHeaderBytes;
  for (const Task& t : b.tasks) {
    const std::vector<std::byte>& p = *t.net_payload;
    store_le<std::uint32_t>(q + 0, static_cast<std::uint32_t>(p.size()));
    store_le<std::uint8_t>(q + 4, t.net_kind);
    store_le<std::uint8_t>(q + 5, t.high_priority ? 1 : 0);
    store_le<std::uint16_t>(q + 6, 0);
    q += kParcelHeaderBytes;
    if (!p.empty()) {
      std::memcpy(q, p.data(), p.size());
      q += p.size();
    }
  }
  return out;
}

std::vector<std::byte> encode_control_frame(const ControlMsg& m) {
  std::vector<std::byte> payload(sizeof(ControlMsg));
  std::byte* q = payload.data();
  store_le<std::uint8_t>(q + 0, m.type);
  store_le<std::uint8_t>(q + 1, 0);
  store_le<std::uint16_t>(q + 2, 0);
  store_le<std::uint32_t>(q + 4, m.rank);
  store_le<std::uint64_t>(q + 8, m.a);
  store_le<std::uint64_t>(q + 16, m.b);
  store_le<std::uint64_t>(q + 24, m.c);
  return encode_frame(FrameKind::kControl, payload);
}

std::optional<ParcelBatch> decode_batch(std::span<const std::byte> payload,
                                        std::string* err) {
  auto fail = [&](const char* why) -> std::optional<ParcelBatch> {
    if (err) *err = why;
    return std::nullopt;
  };
  if (payload.size() < kBatchHeaderBytes) return fail("batch: short header");
  const std::byte* q = payload.data();
  ParcelBatch b;
  b.src = load_le<std::uint32_t>(q + 0);
  b.dst = load_le<std::uint32_t>(q + 4);
  b.seq = load_le<std::uint64_t>(q + 8);
  const std::uint32_t count = load_le<std::uint32_t>(q + 16);
  b.any_high = load_le<std::uint8_t>(q + 20) != 0;
  const std::uint8_t reason = load_le<std::uint8_t>(q + 21);
  if (reason > static_cast<std::uint8_t>(FlushReason::kQuiescence)) {
    return fail("batch: unknown flush reason");
  }
  b.reason = static_cast<FlushReason>(reason);
  b.coalesced = load_le<std::uint8_t>(q + 22) != 0;
  const std::uint64_t declared = load_le<std::uint64_t>(q + 24);
  // Each parcel needs at least its 8-byte header, so `count` is bounded by
  // the bytes actually present — rejects hostile counts before reserve().
  if (count > (payload.size() - kBatchHeaderBytes) / kParcelHeaderBytes) {
    return fail("batch: parcel count exceeds payload");
  }
  b.tasks.reserve(count);
  std::size_t off = kBatchHeaderBytes;
  std::uint64_t total = 0;
  for (std::uint32_t i = 0; i < count; ++i) {
    if (payload.size() - off < kParcelHeaderBytes) {
      return fail("batch: truncated parcel header");
    }
    const std::uint32_t nbytes = load_le<std::uint32_t>(q + off);
    Task t;
    t.locality = b.dst;
    t.net_kind = load_le<std::uint8_t>(q + off + 4);
    t.high_priority = load_le<std::uint8_t>(q + off + 5) != 0;
    if (t.net_kind == 0) return fail("batch: parcel kind 0");
    off += kParcelHeaderBytes;
    if (payload.size() - off < nbytes) {
      return fail("batch: truncated parcel payload");
    }
    t.net_payload = std::make_shared<const std::vector<std::byte>>(
        q + off, q + off + nbytes);
    off += nbytes;
    total += nbytes;
    b.tasks.push_back(std::move(t));
  }
  if (off != payload.size()) return fail("batch: trailing garbage");
  if (total != declared) return fail("batch: payload_bytes mismatch");
  b.bytes = static_cast<std::size_t>(total);
  return b;
}

std::optional<ControlMsg> decode_control(std::span<const std::byte> payload,
                                         std::string* err) {
  if (payload.size() != sizeof(ControlMsg)) {
    if (err) *err = "control: wrong size";
    return std::nullopt;
  }
  const std::byte* q = payload.data();
  ControlMsg m;
  m.type = load_le<std::uint8_t>(q + 0);
  m.rank = load_le<std::uint32_t>(q + 4);
  m.a = load_le<std::uint64_t>(q + 8);
  m.b = load_le<std::uint64_t>(q + 16);
  m.c = load_le<std::uint64_t>(q + 24);
  if (m.type < static_cast<std::uint8_t>(ControlType::kHello) ||
      m.type > static_cast<std::uint8_t>(ControlType::kPong)) {
    if (err) *err = "control: unknown type";
    return std::nullopt;
  }
  return m;
}

void FrameDecoder::feed(const std::byte* data, std::size_t n) {
  if (failed() || n == 0) return;
  // Compact once the consumed prefix dominates, keeping feed() amortized
  // O(n) without re-copying the tail on every frame.
  if (pos_ > 4096 && pos_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<FrameDecoder::Frame> FrameDecoder::next() {
  if (failed()) return std::nullopt;
  if (buffered() < sizeof(FrameHeader)) return std::nullopt;
  const std::byte* h = buf_.data() + pos_;
  const std::uint32_t magic = [&] {
    std::uint32_t v;
    std::memcpy(&v, h, 4);
    return v;
  }();
  if (magic != kFrameMagic) {
    error_ = "frame: bad magic";
    return std::nullopt;
  }
  std::uint32_t stored_crc;
  std::memcpy(&stored_crc, h + 12, 4);
  if (stored_crc != crc32(h, 12)) {
    error_ = "frame: header crc mismatch";
    return std::nullopt;
  }
  const auto kind = static_cast<std::uint8_t>(h[4]);
  const auto flags = static_cast<std::uint8_t>(h[5]);
  std::uint32_t payload_bytes;
  std::memcpy(&payload_bytes, h + 8, 4);
  if (kind != static_cast<std::uint8_t>(FrameKind::kBatch) &&
      kind != static_cast<std::uint8_t>(FrameKind::kControl) &&
      kind != static_cast<std::uint8_t>(FrameKind::kTelemetry)) {
    error_ = "frame: unknown kind";
    return std::nullopt;
  }
  if (flags != 0) {
    error_ = "frame: nonzero flags";
    return std::nullopt;
  }
  if (payload_bytes > kMaxFramePayload) {
    error_ = "frame: oversized payload";
    return std::nullopt;
  }
  if (buffered() < sizeof(FrameHeader) + payload_bytes) return std::nullopt;
  Frame f;
  f.kind = static_cast<FrameKind>(kind);
  const std::byte* p = h + sizeof(FrameHeader);
  f.payload.assign(p, p + payload_bytes);
  pos_ += sizeof(FrameHeader) + payload_bytes;
  return f;
}

}  // namespace amtfmm::net
