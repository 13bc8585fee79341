// The tracing addition to the reply codec: the span-ring reply body —
// round-trips plus the reject-don't-guess validations (zero span ids,
// out-of-range span kinds, truncation, trailing bytes). The trace context
// every frame carries in its header is covered with the rest of the framing
// in test_transport_frame.cpp.
#include "transport/messages.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "obs/span.h"

namespace rlir::transport {
namespace {

obs::Span sample_span(std::uint64_t trace_id, std::uint64_t span_id,
                      std::uint64_t parent_id, obs::SpanKind kind, std::string label) {
  obs::Span span;
  span.trace_id = trace_id;
  span.span_id = span_id;
  span.parent_id = parent_id;
  span.kind = kind;
  span.start_ns = 1'700'000'000'123'456'789;
  span.end_ns = 1'700'000'000'123'500'000;
  span.label = std::move(label);
  return span;
}

QueryReply sample_trace_reply() {
  QueryReply reply;
  reply.body = ReplyBody::kSpans;
  reply.spans.spans.push_back(
      sample_span(10, 11, 0, obs::SpanKind::kCoordMerge, "fleet"));
  reply.spans.spans.push_back(
      sample_span(10, 12, 11, obs::SpanKind::kAgentAnswer, ""));
  reply.spans.dropped = 7;
  reply.spans.total = 9;
  return reply;
}

TEST(TracingWireTest, TraceSpansReplyRoundTrips) {
  const auto reply = sample_trace_reply();
  const auto bytes = encode_reply(reply);
  const auto decoded = decode_reply(bytes.data(), bytes.size());

  EXPECT_EQ(decoded.body, ReplyBody::kSpans);
  const auto& spans = decoded.spans.spans;
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].trace_id, 10u);
  EXPECT_EQ(spans[0].span_id, 11u);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].kind, obs::SpanKind::kCoordMerge);
  EXPECT_EQ(spans[0].start_ns, reply.spans.spans[0].start_ns);
  EXPECT_EQ(spans[0].end_ns, reply.spans.spans[0].end_ns);
  EXPECT_EQ(spans[0].label, "fleet");
  EXPECT_EQ(spans[1].parent_id, 11u);
  EXPECT_EQ(spans[1].label, "");
  EXPECT_EQ(decoded.spans.dropped, 7u);
  EXPECT_EQ(decoded.spans.total, 9u);
}

// Reply layout: u8 body | u8 flags | u32 count | entries | u64 dropped
// | u64 total. First entry at 6; within an entry: trace(8) span(8)
// parent(8) kind(1) ...
constexpr std::size_t kFirstEntry = 1 + 1 + 4;
constexpr std::size_t kEntrySpanId = kFirstEntry + 8;
constexpr std::size_t kEntryKind = kFirstEntry + 24;

TEST(TracingWireTest, TraceSpansReplyRejectsBadSpanKind) {
  auto bytes = encode_reply(sample_trace_reply());
  bytes[kEntryKind] = 0;
  EXPECT_THROW((void)decode_reply(bytes.data(), bytes.size()), std::runtime_error);
  bytes[kEntryKind] = static_cast<std::uint8_t>(obs::kSpanKindCount + 1);
  EXPECT_THROW((void)decode_reply(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TracingWireTest, TraceSpansReplyRejectsZeroSpanId) {
  auto bytes = encode_reply(sample_trace_reply());
  for (std::size_t i = 0; i < 8; ++i) bytes[kEntrySpanId + i] = 0;
  EXPECT_THROW((void)decode_reply(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(TracingWireTest, TraceSpansReplyRejectsTruncationAndTrailingBytes) {
  auto bytes = encode_reply(sample_trace_reply());
  EXPECT_THROW((void)decode_reply(bytes.data(), bytes.size() - 1), std::runtime_error);
  EXPECT_THROW((void)decode_reply(bytes.data(), kFirstEntry + 10), std::runtime_error);
  bytes.push_back(0);
  EXPECT_THROW((void)decode_reply(bytes.data(), bytes.size()), std::runtime_error);
}

}  // namespace
}  // namespace rlir::transport
