#include "transport/frame.h"

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <string>

#include "common/wire.h"
#include "net/hash.h"

namespace rlir::transport {

namespace {

using common::wire::put;
using common::wire::take;

constexpr std::array<char, 4> kMagic = {'R', 'L', 'T', 'F'};

/// Bytes of the trace context, which ends the header.
constexpr std::size_t kTraceBytes = 8 + 8;

/// CRC-32C over the header's trace bytes and the payload that follows them.
[[nodiscard]] std::uint32_t frame_crc(const std::uint8_t* trace, std::size_t payload_size) {
  return net::crc32c(
      std::as_bytes(std::span<const std::uint8_t>(trace, kTraceBytes + payload_size)));
}

[[nodiscard]] bool known_type(std::uint8_t t) {
  return t == static_cast<std::uint8_t>(FrameType::kRecordBatch) ||
         t == static_cast<std::uint8_t>(FrameType::kQuery) ||
         t == static_cast<std::uint8_t>(FrameType::kQueryReply);
}

}  // namespace

std::vector<std::uint8_t> encode_frame(FrameType type, const std::uint8_t* payload,
                                       std::size_t size, obs::TraceContext trace) {
  std::vector<std::uint8_t> buf(kFrameHeaderSize + size);
  std::uint8_t* p = buf.data();
  for (char c : kMagic) put<std::uint8_t>(p, static_cast<std::uint8_t>(c));
  put<std::uint8_t>(p, kFrameVersion);
  put<std::uint8_t>(p, static_cast<std::uint8_t>(type));
  put<std::uint16_t>(p, 0);  // reserved
  put<std::uint32_t>(p, static_cast<std::uint32_t>(size));
  std::uint8_t* crc_at = p;
  p += 4;  // the CRC, written once the bytes it covers are in place
  const std::uint8_t* trace_at = p;
  put<std::uint64_t>(p, trace.trace_id);
  put<std::uint64_t>(p, trace.span_id);
  std::copy_n(payload, size, p);
  put<std::uint32_t>(crc_at, frame_crc(trace_at, size));
  return buf;
}

std::vector<std::uint8_t> encode_frame(FrameType type, const std::vector<std::uint8_t>& payload,
                                       obs::TraceContext trace) {
  return encode_frame(type, payload.data(), payload.size(), trace);
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  // Compact once the consumed prefix dominates, so long-lived connections
  // don't grow the buffer without bound while staying O(1) amortized.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), data, data + size);
}

// Byte layout, CRC coverage, and the poisoning rules enforced here are
// specified in docs/WIRE.md ("RLTF framing").
std::optional<FrameView> FrameDecoder::next_view() {
  if (poisoned_) throw FrameError("FrameDecoder: stream already failed");
  if (buffer_.size() - consumed_ < kFrameHeaderSize) return std::nullopt;

  const std::uint8_t* p = buffer_.data() + consumed_;
  for (char c : kMagic) {
    if (take<std::uint8_t>(p) != static_cast<std::uint8_t>(c)) {
      poisoned_ = true;
      throw FrameError("Frame: bad magic");
    }
  }
  const auto version = take<std::uint8_t>(p);
  if (version != kFrameVersion) {
    poisoned_ = true;
    throw FrameError("Frame: unsupported version " + std::to_string(version));
  }
  const auto type = take<std::uint8_t>(p);
  if (!known_type(type)) {
    poisoned_ = true;
    throw FrameError("Frame: unknown type " + std::to_string(type));
  }
  const auto reserved = take<std::uint16_t>(p);
  if (reserved != 0) {
    poisoned_ = true;
    throw FrameError("Frame: nonzero reserved field");
  }
  const auto length = take<std::uint32_t>(p);
  if (length > kMaxFramePayload) {
    poisoned_ = true;
    throw FrameError("Frame: implausible payload length " + std::to_string(length));
  }
  const auto crc = take<std::uint32_t>(p);

  if (buffer_.size() - consumed_ < kFrameHeaderSize + length) return std::nullopt;

  if (frame_crc(p, length) != crc) {
    poisoned_ = true;
    throw FrameError("Frame: CRC mismatch");
  }
  FrameView view;
  view.trace.trace_id = take<std::uint64_t>(p);
  view.trace.span_id = take<std::uint64_t>(p);
  view.type = static_cast<FrameType>(type);
  view.payload = p;
  view.size = length;
  consumed_ += kFrameHeaderSize + length;
  return view;
}

}  // namespace rlir::transport
