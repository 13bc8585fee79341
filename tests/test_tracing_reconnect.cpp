// Trace context under connection faults: when a connection dies mid-query
// or mid-batch, the span story must stay truthful — the lost query's span
// closes exactly once (labeled as lost), the resent batch produces exactly
// one agent-side decode/ingest pair per delivered frame (no orphans from
// the partial frame, no duplicates from the resend), and every agent span
// parents back to a real client flush span.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "fault_stream.h"
#include "obs/span.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/client.h"
#include "transport/messages.h"

namespace rlir::transport {
namespace {

std::vector<collect::EstimateRecord> make_batch(std::size_t n, std::uint32_t epoch) {
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
    r.key.dst = net::Ipv4Address(10, 1, 0, 1);
    r.key.src_port = static_cast<std::uint16_t>(5000 + i);
    r.key.dst_port = 80;
    r.epoch = epoch;
    for (int j = 0; j < 8; ++j) r.sketch.add(40e3 + 1e3 * static_cast<double>(j));
    records.push_back(std::move(r));
  }
  return records;
}

std::vector<obs::Span> spans_of_kind(const obs::SpanRecorder& recorder, obs::SpanKind kind) {
  std::vector<obs::Span> out;
  for (const auto& span : recorder.snapshot().spans) {
    if (span.kind == kind) out.push_back(span);
  }
  return out;
}

TEST(TracingReconnectTest, LostQuerySpanClosesOnceAsLost) {
  obs::SpanRecorder spans;
  CollectorAgent agent;
  testutil::FaultyByteStream* faulty = nullptr;
  int dials = 0;
  CollectorClientConfig cfg;
  cfg.instruments.spans = &spans;
  CollectorClient client(cfg, [&]() -> std::unique_ptr<ByteStream> {
    auto [client_end, agent_end] = make_loopback();
    agent.add_connection(std::move(agent_end));
    ++dials;
    if (dials == 1) {
      auto wrapped = std::make_unique<testutil::FaultyByteStream>(std::move(client_end),
                                                                  testutil::FaultPlan{});
      faulty = wrapped.get();
      return wrapped;
    }
    return std::move(client_end);
  });

  const Query query{.target = Target::kMetrics};
  client.send_query(query);
  ASSERT_NE(faulty, nullptr);
  faulty->cut_now();  // the query frame dies with the connection
  for (int i = 0; i < 20 && client.stats().queries_lost == 0; ++i) {
    client.pump();
    agent.poll();
  }
  EXPECT_EQ(client.stats().queries_lost, 1u);
  EXPECT_FALSE(client.query_outstanding());

  auto query_spans = spans_of_kind(spans, obs::SpanKind::kClientQuery);
  ASSERT_EQ(query_spans.size(), 1u);
  EXPECT_EQ(query_spans[0].label, "metrics lost");
  EXPECT_GE(query_spans[0].end_ns, query_spans[0].start_ns);

  // The retry on the fresh connection succeeds and closes its OWN span —
  // the lost span is not reopened or re-recorded.
  client.send_query(query);
  std::optional<QueryReply> reply;
  for (int i = 0; i < 1000 && !reply.has_value(); ++i) {
    client.pump();
    agent.poll();
    reply = client.poll_reply();
  }
  ASSERT_TRUE(reply.has_value());

  query_spans = spans_of_kind(spans, obs::SpanKind::kClientQuery);
  ASSERT_EQ(query_spans.size(), 2u);
  EXPECT_EQ(query_spans[1].label, "metrics");
  EXPECT_NE(query_spans[0].span_id, query_spans[1].span_id);
}

TEST(TracingReconnectTest, BatchSpansSurviveMidFrameCutWithoutOrphansOrDuplicates) {
  obs::SpanRecorder client_spans;
  obs::SpanRecorder agent_spans;
  CollectorAgentConfig acfg;
  acfg.instruments.spans = &agent_spans;
  CollectorAgent agent(acfg);

  int dials = 0;
  CollectorClientConfig cfg;
  cfg.instruments.spans = &client_spans;
  cfg.coalesce_bytes = 2u << 10;  // several sealed frames across the run
  CollectorClient client(cfg, [&]() -> std::unique_ptr<ByteStream> {
    auto [client_end, agent_end] = make_loopback();
    agent.add_connection(std::move(agent_end));
    ++dials;
    if (dials == 1) {
      // Die mid-frame: the partial frame dies with the connection and is
      // resent in full on the next one.
      testutil::FaultPlan plan;
      plan.cut_after_write_bytes = 3000;
      return std::make_unique<testutil::FaultyByteStream>(std::move(client_end), plan);
    }
    return std::move(client_end);
  });

  for (std::uint32_t epoch = 0; epoch < 6; ++epoch) {
    client.submit(epoch, make_batch(40, epoch));
    client.pump();
    agent.poll();
  }
  for (int i = 0; i < 1000 && !client.drain(8); ++i) agent.poll();
  agent.poll();

  ASSERT_EQ(client.stats().records_shed, 0u);
  EXPECT_EQ(agent.protocol_errors(), 0u);
  EXPECT_GE(client.stats().reconnects, 1u);
  // Conservation first: every record made it despite the cut.
  EXPECT_EQ(agent.stats().records_ingested, client.stats().records_submitted);

  const auto flushes = spans_of_kind(client_spans, obs::SpanKind::kClientFlush);
  const auto decodes = spans_of_kind(agent_spans, obs::SpanKind::kAgentDecode);
  const auto ingests = spans_of_kind(agent_spans, obs::SpanKind::kAgentIngest);
  ASSERT_GE(flushes.size(), 2u);  // the cut landed between sealed frames

  std::set<std::uint64_t> flush_traces;
  std::set<std::uint64_t> flush_ids;
  for (const auto& span : flushes) {
    EXPECT_NE(span.trace_id, 0u);
    EXPECT_TRUE(flush_traces.insert(span.trace_id).second) << "duplicate flush trace";
    flush_ids.insert(span.span_id);
  }

  // Exactly one decode+ingest pair per delivered frame: no span for the
  // partial frame (orphan), none doubled by the resend (duplicate).
  EXPECT_EQ(decodes.size(), flushes.size());
  EXPECT_EQ(ingests.size(), flushes.size());
  std::set<std::uint64_t> decode_traces;
  for (const auto& span : decodes) {
    EXPECT_TRUE(flush_traces.count(span.trace_id) > 0) << "orphan decode span";
    EXPECT_TRUE(decode_traces.insert(span.trace_id).second) << "duplicate decode span";
    EXPECT_TRUE(flush_ids.count(span.parent_id) > 0) << "decode not parented to a flush";
  }
  for (const auto& span : ingests) {
    EXPECT_TRUE(flush_traces.count(span.trace_id) > 0) << "orphan ingest span";
    EXPECT_TRUE(flush_ids.count(span.parent_id) > 0) << "ingest not parented to a flush";
  }
}

}  // namespace
}  // namespace rlir::transport
