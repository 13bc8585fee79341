// The transport tier's framing: length-prefixed, CRC-guarded messages over
// an untrusted byte stream. A frame is the unit the collector client and
// agent exchange; the payload is opaque here (record batches, queries,
// query replies — see transport/messages.h).
//
//   frame: magic "RLTF" | u8 version | u8 type | u16 reserved (0)
//          | u32 payload length | u32 CRC-32C(payload) | payload bytes
//
// Same conventions as every other wire format in the repo (little-endian,
// field-by-field packing via common/wire.h, magic + version up front,
// corruption guards that reject instead of guessing). The CRC is over the
// payload only — the header fields are each individually validatable, and
// a corrupted length is caught by the length guard before any allocation.
//
// FrameDecoder is incremental: feed it whatever read_some produced, pop
// complete frames as they materialize with next_view(), the one way to pop
// a frame (its payload borrows the decoder's buffer). Malformed input
// throws FrameError; the only safe recovery on a byte stream with no resync
// marks is to drop the connection, which is what both ends do.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

namespace rlir::transport {

/// Bumped whenever a payload layout changes incompatibly (2: the query
/// codec in transport/messages.h; 3: the scrape's events segment lost its
/// per-kind totals, obs/wire.h; 4: the sketch segment lost its accuracy and
/// bin budget, RLES version 2 in collect/estimate_record.h; 5: records lost
/// their RLI sender, RLES version 3); a peer on any other version is refused
/// at its first frame.
inline constexpr std::uint8_t kFrameVersion = 5;

/// Header bytes preceding every payload: magic(4) + version(1) + type(1) +
/// reserved(2) + length(4) + crc(4).
inline constexpr std::size_t kFrameHeaderSize = 4 + 1 + 1 + 2 + 4 + 4;

/// Corruption guard: no honest frame carries more than this. A flipped bit
/// in the length field must not make the decoder allocate gigabytes.
inline constexpr std::uint32_t kMaxFramePayload = 64u << 20;

enum class FrameType : std::uint8_t {
  /// One or more EstimateRecord batches, back-to-back (decode with
  /// collect::decode_record_views_prefix until the payload is exhausted).
  kRecordBatch = 1,
  /// A fleet query (transport/messages.h encoding).
  kQuery = 2,
  /// The answer to the connection's oldest unanswered kQuery.
  kQueryReply = 3,
};

/// A complete frame whose payload is borrowed from the decoder's buffer
/// (zero-copy). Valid until the decoder's next feed() — consume the frame
/// before buffering more stream bytes, as a poll loop naturally does.
struct FrameView {
  FrameType type = FrameType::kRecordBatch;
  const std::uint8_t* payload = nullptr;
  std::size_t size = 0;
};

/// Thrown on malformed input: bad magic, unsupported version, unknown type,
/// oversized length, or a payload failing its CRC.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes one frame (header + CRC + payload copy).
[[nodiscard]] std::vector<std::uint8_t> encode_frame(FrameType type,
                                                     const std::uint8_t* payload,
                                                     std::size_t size);
[[nodiscard]] std::vector<std::uint8_t> encode_frame(FrameType type,
                                                     const std::vector<std::uint8_t>& payload);

/// Incremental frame parser over an arbitrary chunking of the byte stream.
class FrameDecoder {
 public:
  /// Appends raw stream bytes (any chunk size, including one byte at a
  /// time). Cheap; parsing happens in next_view().
  void feed(const std::uint8_t* data, std::size_t size);

  /// Pops the next complete frame, or nullopt when the buffered bytes end
  /// mid-frame (feed more). The payload borrows the decoder's buffer (valid
  /// until the next feed()): the agent decodes records and the client its
  /// reply straight out of it. Throws FrameError on malformed input; after
  /// a throw the decoder is poisoned and every later call rethrows — drop
  /// the connection.
  [[nodiscard]] std::optional<FrameView> next_view();

  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  std::vector<std::uint8_t> buffer_;
  /// Prefix of buffer_ already handed out as frames (compacted lazily so
  /// feed() isn't O(buffer) per call).
  std::size_t consumed_ = 0;
  bool poisoned_ = false;
};

}  // namespace rlir::transport
