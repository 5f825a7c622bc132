#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/coalescer.hpp"

namespace amtfmm::net {

/// Thrown for transport-level failures: bootstrap timeouts, peer death
/// during an active drain, malformed byte streams.  Distinct from
/// config_error (user mistakes) and AMTFMM_ASSERT (internal invariants):
/// a remote process dying is an environmental fault the caller may want
/// to report cleanly rather than abort on.
class net_error : public std::runtime_error {
 public:
  explicit net_error(const std::string& what) : std::runtime_error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `n` bytes.
/// Table-driven, dependency-free; validates frame headers so a corrupted
/// or desynchronized stream fails loudly instead of being interpreted.
std::uint32_t crc32(const void* data, std::size_t n);

inline constexpr std::uint32_t kFrameMagic = 0x414d4650u;  // "PFMA" LE

/// Upper bound on one frame's payload; a header announcing more is
/// malformed by definition (protects the decoder from hostile lengths —
/// a batch near this size would mean the coalescer buffered a gigabyte).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;

enum class FrameKind : std::uint8_t {
  kBatch = 1,      ///< payload: one encoded ParcelBatch
  kControl = 2,    ///< payload: one ControlMsg
  kTelemetry = 3,  ///< payload: opaque telemetry sample (see telemetry.hpp)
};

/// Fixed 16-byte header preceding every frame on a connection.  The CRC
/// covers the first 12 header bytes, so header corruption — including a
/// desynchronized stream making random bytes look like a header — is
/// detected before `payload_bytes` is trusted.
struct FrameHeader {
  std::uint32_t magic = kFrameMagic;
  std::uint8_t kind = 0;
  std::uint8_t flags = 0;  ///< reserved, must be 0
  std::uint16_t reserved = 0;
  std::uint32_t payload_bytes = 0;
  std::uint32_t crc = 0;  ///< crc32 of the 12 bytes above
};
static_assert(sizeof(FrameHeader) == 16);

/// Fixed-size control message: connection handshake plus the distributed
/// termination protocol (see DESIGN.md §5).  a/b/c are type-specific.
enum class ControlType : std::uint8_t {
  kHello = 1,      ///< handshake: `rank` identifies the connecting peer
  kProbe = 2,      ///< coordinator probe: a = round id
  kAck = 3,        ///< answer: a = round, b = parcels sent, c = received
  kTerminate = 4,  ///< coordinator decision: a = drain epoch (1-based)
  kGoodbye = 5,    ///< announced close: the following EOF is not a failure
  kPing = 6,       ///< clock sync probe: a = sample id, b = sender steady ns
  kPong = 7,       ///< clock sync reply: a/b echoed, c = replier steady ns
};

struct ControlMsg {
  std::uint8_t type = 0;
  std::uint8_t pad = 0;
  std::uint16_t reserved = 0;
  std::uint32_t rank = 0;  ///< sender rank
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};
static_assert(sizeof(ControlMsg) == 32);

/// Encodes a complete frame (header + payload) ready for the socket.
std::vector<std::byte> encode_frame(FrameKind kind,
                                    std::span<const std::byte> payload);
/// Encodes a parcel batch as one frame, each parcel's payload copied once,
/// straight into the frame.  Every task must be a parcel, and `b.bytes`
/// must be the summed payload sizes: a parcel's payload IS its logical
/// wire-byte count (what the sender passed to Executor::send), so
/// `wire_bytes == bytes_sent` stays exact over sockets; framing overhead
/// is accounted separately under net.* counters.
std::vector<std::byte> encode_batch_frame(const ParcelBatch& b);
std::vector<std::byte> encode_control_frame(const ControlMsg& m);

/// Decodes a batch-frame payload into a ParcelBatch whose tasks are
/// parcels at `dst` (kind, high flag and payload; `bytes` is the summed
/// payload).  Returns nullopt (with *err set when non-null) on any
/// malformed or truncated structure, a parcel of kind 0 (that would be
/// local work) or an unknown flush reason; every field is bounds-checked
/// before use, so hostile input cannot read out of range.
std::optional<ParcelBatch> decode_batch(std::span<const std::byte> payload,
                                        std::string* err);
std::optional<ControlMsg> decode_control(std::span<const std::byte> payload,
                                         std::string* err);

/// Incremental frame reassembly over a byte stream delivered in arbitrary
/// chunks — partial reads are the normal case on a socket.  feed()
/// appends raw bytes; next() yields complete frames as they close.  A
/// malformed header (bad magic, bad CRC, oversized payload, unknown kind,
/// nonzero flags) moves the decoder into a sticky error state: a stream
/// that lost framing cannot be trusted again, the connection must die.
class FrameDecoder {
 public:
  struct Frame {
    FrameKind kind;
    std::vector<std::byte> payload;
  };

  void feed(const std::byte* data, std::size_t n);
  /// The next complete frame, or nullopt (need more bytes / failed()).
  std::optional<Frame> next();

  bool failed() const { return !error_.empty(); }
  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed by next().
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  std::vector<std::byte> buf_;
  std::size_t pos_ = 0;  ///< consumed prefix of buf_
  std::string error_;
};

}  // namespace amtfmm::net
