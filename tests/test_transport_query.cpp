// The query-plane codec: one Query (a target, an optional epoch window, the
// trace context) and one QueryReply (an optional coverage block, then sketch
// entries, a scrape, or spans). Round-trips every valid (target, window)
// pair and every reply body, and checks each reject-don't-guess rule: an
// unknown target or body, a window where the history store reports no
// coverage, a reversed window, reserved flag bits, a quantile outside
// [0, 1], a wrong size, trailing bytes, and an entry count the payload
// cannot hold. Known-answer bytes pin one sketch entry. RLTF frames of
// versions 1-3 are refused.
#include "transport/messages.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "transport/frame.h"

namespace rlir::transport {
namespace {

/// target | flags | link | 5-tuple | k | q | first | last | trace | parent.
constexpr std::size_t kQuerySize = 1 + 1 + 4 + 13 + 4 + 8 + 4 + 4 + 8 + 8;
constexpr std::size_t kQueryFlags = 1;
constexpr std::size_t kQueryTrace = 1 + 1 + 4 + 13 + 4 + 8 + 4 + 4;

constexpr Target kAllTargets[] = {Target::kFleet,  Target::kLink,    Target::kLinks,
                                  Target::kFlow,   Target::kTopK,    Target::kMetrics,
                                  Target::kSpans};

net::FiveTuple sample_flow() {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 3, 0, 1);
  key.dst = net::Ipv4Address(192, 168, 1, 1);
  key.src_port = 6001;
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return key;
}

Query sample_query(Target target) {
  return Query{.target = target, .link = 17, .flow = sample_flow(), .k = 5, .q = 0.95};
}

bool windowable(Target target) {
  return target == Target::kFleet || target == Target::kLink || target == Target::kFlow;
}

void expect_round_trips(const Query& want) {
  const auto bytes = encode_query(want);
  ASSERT_EQ(bytes.size(), kQuerySize);  // one size, traced or not
  const Query got = decode_query(bytes.data(), bytes.size());
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.link, want.link);
  EXPECT_EQ(got.flow, want.flow);
  EXPECT_EQ(got.k, want.k);
  EXPECT_EQ(got.q, want.q);
  ASSERT_EQ(got.window.has_value(), want.window.has_value());
  if (want.window.has_value()) {
    EXPECT_EQ(got.window->first, want.window->first);
    EXPECT_EQ(got.window->last, want.window->last);
  }
  EXPECT_EQ(got.trace.trace_id, want.trace.trace_id);
  EXPECT_EQ(got.trace.span_id, want.trace.span_id);
}

void expect_rejected(const std::vector<std::uint8_t>& bytes) {
  EXPECT_THROW((void)decode_query(bytes.data(), bytes.size()), std::runtime_error);
}

/// `bytes` with one byte overwritten (or, past the end, appended).
std::vector<std::uint8_t> with_byte(std::vector<std::uint8_t> bytes, std::size_t at,
                                    std::uint8_t value) {
  if (at == bytes.size()) bytes.push_back(value);
  bytes[at] = value;
  return bytes;
}

common::LatencySketch sample_sketch(int n) {
  common::LatencySketch sketch;
  for (int i = 1; i <= n; ++i) sketch.add(1e3 * i);
  return sketch;
}

// --- Query ------------------------------------------------------------------

TEST(TransportQuery, EveryValidTargetAndWindowRoundTrips) {
  // Untraced (trace id 0) and traced; for a span pull the trace id is the
  // ring filter. A window only where the history store reports coverage.
  const obs::TraceContext traces[] = {
      {}, {0x1122334455667788ULL, 0xa1b2c3d4e5f60718ULL}, {42, 0}};
  for (const Target target : kAllTargets) {
    for (const auto& trace : traces) {
      Query q = sample_query(target);
      q.trace = trace;
      SCOPED_TRACE(query_name(q) + " trace " + std::to_string(trace.trace_id));
      expect_round_trips(q);
      if (!windowable(target)) continue;
      q.window = EpochWindow{3, 1u << 20};
      expect_round_trips(q);
      q.window = EpochWindow{7, 7};  // a one-epoch window is not reversed
      expect_round_trips(q);
    }
  }
  // Untraced means sixteen zero bytes, not an absent block.
  const auto bytes = encode_query(sample_query(Target::kTopK));
  for (std::size_t i = 0; i < 16; ++i) EXPECT_EQ(bytes[kQueryTrace + i], 0u);
}

TEST(TransportQuery, DecodeRejectsMalformedQueries) {
  const auto good = encode_query(sample_query(Target::kFleet));
  // One size only: truncation and trailing bytes are both corruption.
  expect_rejected({good.begin(), good.end() - 1});
  expect_rejected(with_byte(good, good.size(), 0));
  // Unknown targets on either side of the range; reserved flag bits.
  for (const std::uint8_t target : {0, 8, 255}) expect_rejected(with_byte(good, 0, target));
  for (const std::uint8_t flags : {0x02, 0x80, 0xff}) {
    expect_rejected(with_byte(good, kQueryFlags, flags));
  }
  // A window on a target the history store reports no coverage for.
  for (const Target target : {Target::kLinks, Target::kTopK, Target::kMetrics, Target::kSpans}) {
    expect_rejected(with_byte(encode_query(sample_query(target)), kQueryFlags, 1));
  }
  // A reversed window is rejected, not guessed at.
  Query reversed = sample_query(Target::kLink);
  reversed.window = EpochWindow{10, 3};
  expect_rejected(encode_query(reversed));
  // Quantiles outside [0, 1], NaN included.
  for (const double q : {-0.1, 1.5, std::nan("")}) {
    Query bad_q = sample_query(Target::kTopK);
    bad_q.q = q;
    expect_rejected(encode_query(bad_q));
  }
}

TEST(TransportQuery, QueryNamesAreStable) {
  EXPECT_EQ(query_name(sample_query(Target::kFleet)), "fleet");
  EXPECT_EQ(query_name(sample_query(Target::kTopK)), "top_k");
  EXPECT_EQ(query_name(sample_query(Target::kSpans)), "spans");
  Query windowed = sample_query(Target::kFlow);
  windowed.window = EpochWindow{1, 2};
  EXPECT_EQ(query_name(windowed), "window_flow");
}

// --- Reply ------------------------------------------------------------------

TEST(TransportQuery, SketchReplyRoundTripsWithAndWithoutCoverage) {
  QueryReply reply;
  reply.entries.push_back({0, {}, sample_sketch(10)});              // fleet-shaped
  reply.entries.push_back({4, {}, sample_sketch(0)});               // empty link
  reply.entries.push_back({0, sample_flow(), sample_sketch(100)});  // flow-shaped
  for (const bool covered : {false, true}) {
    if (covered) reply.coverage = WindowInfo{true, false, 7, 21, 123456};
    const auto bytes = encode_reply(reply);
    const auto back = decode_reply(bytes.data(), bytes.size());
    EXPECT_EQ(back.body, ReplyBody::kSketches);
    ASSERT_EQ(back.coverage.has_value(), covered);
    if (covered) {
      EXPECT_TRUE(back.coverage->covered);
      EXPECT_FALSE(back.coverage->complete);
      EXPECT_EQ(back.coverage->first, 7u);
      EXPECT_EQ(back.coverage->last, 21u);
      EXPECT_EQ(back.coverage->records, 123456u);
    }
    ASSERT_EQ(back.entries.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(back.entries[i].link, reply.entries[i].link) << i;
      EXPECT_EQ(back.entries[i].flow, reply.entries[i].flow) << i;
      EXPECT_EQ(back.entries[i].sketch.bins(), reply.entries[i].sketch.bins()) << i;
      EXPECT_EQ(back.entries[i].sketch.count(), reply.entries[i].sketch.count()) << i;
      EXPECT_EQ(back.entries[i].sketch.sum(), reply.entries[i].sketch.sum()) << i;
    }
  }

  // Uncovered window, or an unseen flow or link: no entries at all.
  QueryReply empty;
  empty.coverage = WindowInfo{};
  const auto bytes = encode_reply(empty);
  const auto back = decode_reply(bytes.data(), bytes.size());
  ASSERT_TRUE(back.coverage.has_value());
  EXPECT_FALSE(back.coverage->covered);
  EXPECT_TRUE(back.entries.empty());
}

TEST(TransportQuery, SketchReplyKnownAnswerBytes) {
  // One sketch entry, written out by hand from docs/WIRE.md: the reply
  // header, then link | 5-tuple | the 36 + 12·bins byte sketch segment.
  QueryReply reply;
  SketchEntry entry;
  entry.link = 9;
  entry.flow.src = net::Ipv4Address(10, 0, 0, 1);
  entry.flow.dst = net::Ipv4Address(10, 0, 0, 2);
  entry.flow.src_port = 1000;
  entry.flow.dst_port = 80;
  entry.flow.proto = 6;
  entry.sketch.add(1000.0, 2);  // bin 346
  entry.sketch.add(2000.0);     // bin 381
  reply.entries.push_back(entry);
  const std::vector<std::uint8_t> want = {
      1, 0,                                            // body kSketches, flags
      1, 0, 0, 0,                                      // entry count
      9, 0, 0, 0,                                      // link
      1, 0, 0, 10, 2, 0, 0, 10, 0xe8, 0x03, 80, 0, 6,  // 5-tuple
      0, 0, 0, 0, 0, 0, 0, 0,                          // zero count
      0, 0, 0, 0, 0, 0x40, 0xaf, 0x40,                 // sum 4000.0
      0, 0, 0, 0, 0, 0x40, 0x8f, 0x40,                 // min 1000.0
      0, 0, 0, 0, 0, 0x40, 0x9f, 0x40,                 // max 2000.0
      2, 0, 0, 0,                                      // bin count
      0x5a, 0x01, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,        // bin 346 x2
      0x7d, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,        // bin 381 x1
  };
  EXPECT_EQ(encode_reply(reply), want);
  const auto back = decode_reply(want.data(), want.size());
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].flow, entry.flow);
  EXPECT_EQ(back.entries[0].sketch.bins(), entry.sketch.bins());
}

TEST(TransportQuery, ScrapeReplyRoundTrips) {
  obs::MetricsRegistry registry;
  registry.counter("rlir_agent_queries_answered_total", {{"instance", "a1"}})->add(3);
  registry.histogram("rlir_agent_batch_records")->observe(12.0);
  QueryReply reply;
  reply.body = ReplyBody::kScrape;
  reply.scrape.metrics = registry.snapshot();
  reply.scrape.events.dropped = 2;
  const auto bytes = encode_reply(reply);
  const auto back = decode_reply(bytes.data(), bytes.size());
  EXPECT_EQ(back.body, ReplyBody::kScrape);
  EXPECT_EQ(obs::counter_total(back.scrape.metrics, "rlir_agent_queries_answered_total"), 3u);
  ASSERT_EQ(back.scrape.metrics.samples.size(), 2u);
  EXPECT_EQ(back.scrape.events.dropped, 2u);
}

TEST(TransportQuery, DecodeRejectsMalformedReplies) {
  QueryReply reply;
  reply.coverage = WindowInfo{true, true, 1, 2, 3};
  reply.entries.push_back({1, sample_flow(), sample_sketch(5)});
  const auto good = encode_reply(reply);
  ASSERT_NO_THROW((void)decode_reply(good.data(), good.size()));

  // A coverage block belongs to sketch bodies only.
  QueryReply spans;
  spans.body = ReplyBody::kSpans;
  auto covered_spans = with_byte(encode_reply(spans), 1, 1);
  covered_spans.insert(covered_spans.begin() + 2, 17, 0);

  // An entry that counts no observation yet carries a sum would start a
  // coordinator's merge (merge_sketch_replies begins with the first agent's
  // sketch) and poison the fleet's sum() and mean().
  QueryReply empty;
  empty.entries.push_back({1, sample_flow(), common::LatencySketch{}});
  const auto honest_empty = encode_reply(empty);
  ASSERT_NO_THROW((void)decode_reply(honest_empty.data(), honest_empty.size()));
  // body, flags | u32 count | u32 link | 5-tuple | u64 zero count | f64 sum
  const auto empty_with_sum = with_byte(honest_empty, 2 + 4 + 4 + 13 + 8 + 7, 0x40);

  const std::vector<std::uint8_t> bad[] = {
      {},
      {good.begin(), good.end() - 1},
      with_byte(good, good.size(), 0),          // trailing byte
      with_byte(good, 0, 0),                    // unknown bodies
      with_byte(good, 0, 4),
      with_byte(good, 1, 0x03),                 // reserved reply flag bit
      with_byte(good, 2, 0x04),                 // reserved coverage flag bit
      covered_spans,
      with_byte(encode_reply(QueryReply{}), 2, 2),  // 2 entries, 0 bytes left
      empty_with_sum,                           // sum 2.0 on an empty sketch
  };
  for (std::size_t i = 0; i < std::size(bad); ++i) {
    EXPECT_THROW((void)decode_reply(bad[i].data(), bad[i].size()), std::runtime_error) << i;
  }
}

// --- Framing ------------------------------------------------------------------

TEST(TransportQuery, VersionOneFrameIsRefused) {
  // Frame version 5 carries records without an RLI sender. A peer still
  // speaking the per-kind query layouts (version 1), the scrape with
  // per-kind event totals (version 2), the old sketch segment (version 3)
  // or records with a sender (version 4) is dropped at its first frame.
  ASSERT_EQ(kFrameVersion, 5);
  for (const int old_version : {1, 2, 3, 4}) {
    auto bytes = encode_frame(FrameType::kQuery, encode_query(Query{}));
    bytes[4] = static_cast<std::uint8_t>(old_version);
    FrameDecoder decoder;
    decoder.feed(bytes.data(), bytes.size());
    EXPECT_THROW((void)decoder.next_view(), FrameError) << old_version;
  }
}

}  // namespace
}  // namespace rlir::transport
