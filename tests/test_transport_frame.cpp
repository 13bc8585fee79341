// The framed message layer: exact round-trips under arbitrary stream
// chunking, the header's trace context, and rejection of every corruption
// class the protocol guards against — bad magic, wrong version, unknown
// type, reserved bits, implausible lengths, and CRC mismatches in the trace
// bytes or the payload.
#include "transport/frame.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "net/hash.h"

namespace rlir::transport {
namespace {

std::vector<std::uint8_t> payload_of(std::size_t n, std::uint8_t start = 0) {
  std::vector<std::uint8_t> p(n);
  std::iota(p.begin(), p.end(), start);
  return p;
}

/// A copy of the bytes a frame view borrows from its decoder.
std::vector<std::uint8_t> bytes_of(const FrameView& frame) {
  return {frame.payload, frame.payload + frame.size};
}

TEST(TransportFrame, RoundTripsOneFrame) {
  const auto payload = payload_of(257);
  const auto bytes = encode_frame(FrameType::kRecordBatch, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next_view();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kRecordBatch);
  EXPECT_EQ(bytes_of(*frame), payload);
  EXPECT_FALSE(decoder.next_view().has_value());
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
}

/// Header offsets of the CRC and the trace context (docs/WIRE.md).
constexpr std::size_t kCrcAt = 12;
constexpr std::size_t kTraceAt = 16;

TEST(TransportFrame, RoundTripsTraceContext) {
  const auto payload = payload_of(40);
  const obs::TraceContext trace{0x1122334455667788ULL, 0xa1b2c3d4e5f60718ULL};
  const auto bytes = encode_frame(FrameType::kRecordBatch, payload, trace);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());
  // trace_id then span_id, little-endian, ending the header.
  EXPECT_EQ(bytes[kTraceAt], 0x88);
  EXPECT_EQ(bytes[kTraceAt + 7], 0x11);
  EXPECT_EQ(bytes[kTraceAt + 8], 0x18);
  EXPECT_EQ(bytes[kTraceAt + 15], 0xa1);
  // The CRC covers the trace bytes, then the payload: one digest over the
  // header's tail and the payload, equal to the chained digests.
  const std::uint32_t crc = static_cast<std::uint32_t>(bytes[kCrcAt]) |
                            static_cast<std::uint32_t>(bytes[kCrcAt + 1]) << 8 |
                            static_cast<std::uint32_t>(bytes[kCrcAt + 2]) << 16 |
                            static_cast<std::uint32_t>(bytes[kCrcAt + 3]) << 24;
  const auto tail = std::as_bytes(std::span(bytes).subspan(kTraceAt));
  EXPECT_EQ(crc, net::crc32c(tail));
  EXPECT_EQ(crc, net::crc32c(tail.subspan(16), net::crc32c(tail.first(16))));

  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next_view();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->trace.trace_id, trace.trace_id);
  EXPECT_EQ(frame->trace.span_id, trace.span_id);
  EXPECT_EQ(bytes_of(*frame), payload);

  // Untraced is sixteen zero bytes, and decodes as no context.
  const auto plain = encode_frame(FrameType::kRecordBatch, payload);
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(plain[kTraceAt + i], 0u) << i;
  decoder.feed(plain.data(), plain.size());
  const auto untraced = decoder.next_view();
  ASSERT_TRUE(untraced.has_value());
  EXPECT_FALSE(untraced->trace.valid());
  EXPECT_EQ(untraced->trace.span_id, 0u);
}

TEST(TransportFrame, RoundTripsEmptyPayload) {
  const auto bytes = encode_frame(FrameType::kQuery, std::vector<std::uint8_t>{});
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  const auto frame = decoder.next_view();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, FrameType::kQuery);
  EXPECT_EQ(frame->size, 0u);
}

TEST(TransportFrame, ReassemblesByteAtATime) {
  // The harshest chunking a byte stream can produce: one byte per feed.
  const auto payload = payload_of(64, 7);
  const auto bytes = encode_frame(FrameType::kQueryReply, payload);
  FrameDecoder decoder;
  for (std::size_t i = 0; i + 1 < bytes.size(); ++i) {
    decoder.feed(&bytes[i], 1);
    EXPECT_FALSE(decoder.next_view().has_value()) << "frame completed early at byte " << i;
  }
  decoder.feed(&bytes.back(), 1);
  const auto frame = decoder.next_view();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(bytes_of(*frame), payload);
}

TEST(TransportFrame, SplitsCoalescedFrames) {
  // Several frames in one feed — the normal case after a large read.
  std::vector<std::uint8_t> wire;
  for (int i = 0; i < 5; ++i) {
    const auto bytes = encode_frame(FrameType::kRecordBatch,
                                    payload_of(static_cast<std::size_t>(10 * i + 1)));
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  for (int i = 0; i < 5; ++i) {
    const auto frame = decoder.next_view();
    ASSERT_TRUE(frame.has_value()) << "frame " << i;
    EXPECT_EQ(frame->size, static_cast<std::size_t>(10 * i + 1));
  }
  EXPECT_FALSE(decoder.next_view().has_value());
}

TEST(TransportFrame, TruncatedFrameStaysPending) {
  const auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(100));
  // Every proper prefix is "incomplete", never "corrupt".
  for (std::size_t cut : {std::size_t{1}, kFrameHeaderSize - 1, kFrameHeaderSize,
                          bytes.size() - 1}) {
    FrameDecoder decoder;
    decoder.feed(bytes.data(), cut);
    EXPECT_FALSE(decoder.next_view().has_value()) << "cut=" << cut;
    EXPECT_EQ(decoder.buffered_bytes(), cut);
  }
}

TEST(TransportFrame, RejectsBadMagic) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(8));
  bytes[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsWrongVersion) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(8));
  bytes[4] = kFrameVersion + 1;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsUnknownType) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(8));
  bytes[5] = 0x7f;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsNonzeroReserved) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(8));
  bytes[6] = 1;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsImplausibleLength) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(8));
  // Length field is bytes 8..11 little-endian; claim ~4 GiB.
  bytes[8] = bytes[9] = bytes[10] = bytes[11] = 0xff;
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsCorruptPayload) {
  auto bytes = encode_frame(FrameType::kRecordBatch, payload_of(64));
  bytes[kFrameHeaderSize + 20] ^= 0x01;  // one flipped payload bit
  FrameDecoder decoder;
  decoder.feed(bytes.data(), bytes.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

TEST(TransportFrame, RejectsCorruptTraceBytes) {
  // The trace context is under the CRC like the payload: any flipped bit in
  // it, traced or untraced, poisons the stream instead of misparenting spans.
  for (const obs::TraceContext trace : {obs::TraceContext{}, obs::TraceContext{7, 9}}) {
    const auto good = encode_frame(FrameType::kQuery, payload_of(24), trace);
    for (std::size_t i = 0; i < 16; ++i) {
      auto bytes = good;
      bytes[kTraceAt + i] ^= 0x01;
      FrameDecoder decoder;
      decoder.feed(bytes.data(), bytes.size());
      EXPECT_THROW((void)decoder.next_view(), FrameError) << "trace byte " << i;
    }
  }
}

TEST(TransportFrame, PoisonedDecoderKeepsThrowing) {
  auto bad = encode_frame(FrameType::kRecordBatch, payload_of(8));
  bad[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.feed(bad.data(), bad.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
  // Feeding good bytes afterwards cannot resurrect the stream: there is no
  // resync point, so the decoder stays failed.
  const auto good = encode_frame(FrameType::kQuery, payload_of(4));
  decoder.feed(good.data(), good.size());
  EXPECT_THROW((void)decoder.next_view(), FrameError);
}

}  // namespace
}  // namespace rlir::transport
