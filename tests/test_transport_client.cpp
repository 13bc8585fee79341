// CollectorClient failure machinery: batch coalescing, bounded send
// buffering with oldest-batch shedding (counted), reconnect-with-backoff
// after dial failures and mid-stream disconnects, and whole-frame resend so
// a connection death never corrupts the framing the agent sees.
#include "transport/client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <memory>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/frame.h"

namespace rlir::transport {
namespace {

std::vector<collect::EstimateRecord> make_batch(std::size_t n, std::uint32_t epoch,
                                                std::uint64_t seed = 11) {
  common::Xoshiro256 rng(seed);
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
    r.key.dst = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(i));
    r.key.src_port = static_cast<std::uint16_t>(1000 + i);
    r.key.dst_port = 80;
    r.epoch = epoch;
    r.link = 0;
    for (int j = 0; j < 50; ++j) r.sketch.add(rng.lognormal(9.0, 1.0));
    records.push_back(std::move(r));
  }
  return records;
}

/// A factory wired to a fresh loopback pipe per dial, handing the agent end
/// to `agent` — plus dial-failure injection for the backoff tests.
struct LoopbackDialer {
  CollectorAgent* agent;
  std::size_t capacity = 0;
  /// Dials to fail before connections start succeeding.
  int failures_remaining = 0;
  int dials = 0;
  /// The client side's current pipe peer (to kill the connection).
  ByteStream* last_agent_end = nullptr;

  CollectorClient::StreamFactory factory() {
    return [this]() -> std::unique_ptr<ByteStream> {
      ++dials;
      if (failures_remaining > 0) {
        --failures_remaining;
        return nullptr;
      }
      auto [client_end, agent_end] = make_loopback(capacity);
      last_agent_end = agent_end.get();
      agent->add_connection(std::move(agent_end));
      return std::move(client_end);
    };
  }
};

TEST(TransportClient, CoalescesSmallBatchesIntoOneFrame) {
  CollectorAgent agent;
  LoopbackDialer dialer{&agent};
  CollectorClientConfig cfg;
  cfg.coalesce_bytes = 1u << 20;  // far above what we submit: nothing seals early
  CollectorClient client(cfg, dialer.factory());

  for (std::uint32_t e = 0; e < 5; ++e) client.submit(e, make_batch(3, e));
  EXPECT_EQ(client.coalescing_records(), 15u);
  EXPECT_EQ(client.stats().frames_queued, 0u);  // still coalescing, no frame yet

  client.flush();
  EXPECT_EQ(client.coalescing_records(), 0u);
  EXPECT_EQ(client.stats().frames_queued, 1u);  // five batches, ONE frame
  ASSERT_TRUE(client.drain());
  agent.poll();

  const auto stats = agent.stats();
  EXPECT_EQ(stats.frames_received, 1u);
  EXPECT_EQ(stats.batches_received, 5u);  // prefix decoder split them back apart
  EXPECT_EQ(stats.records_ingested, 15u);
}

TEST(TransportClient, SealsWhenCoalesceBytesReached) {
  CollectorAgent agent;
  LoopbackDialer dialer{&agent};
  CollectorClientConfig cfg;
  cfg.coalesce_bytes = 1;  // every submit seals immediately
  CollectorClient client(cfg, dialer.factory());
  client.submit(0, make_batch(2, 0));
  client.submit(1, make_batch(2, 1));
  EXPECT_EQ(client.stats().frames_queued, 2u);
}

TEST(TransportClient, ShedsOldestBatchWhenBufferFull) {
  CollectorAgent agent;
  LoopbackDialer dialer{&agent};
  CollectorClientConfig cfg;
  cfg.coalesce_bytes = 1;
  // Room for roughly two encoded 20-record frames, not five.
  const auto probe = collect::encode_records(make_batch(20, 0));
  cfg.max_buffered_bytes = (probe.size() + kFrameHeaderSize) * 2 + 16;
  CollectorClient client(cfg, dialer.factory());

  // No pump between submits: everything queues, the cap must shed.
  for (std::uint32_t e = 0; e < 5; ++e) client.submit(e, make_batch(20, e));
  EXPECT_LE(client.buffered_bytes(), cfg.max_buffered_bytes);
  EXPECT_EQ(client.stats().batch_frames_shed, 3u);
  EXPECT_EQ(client.stats().records_shed, 60u);

  ASSERT_TRUE(client.drain());
  agent.poll();
  // The SURVIVORS are the newest epochs — oldest-first shedding.
  EXPECT_EQ(agent.stats().records_ingested, 40u);
  const auto epochs = agent.collector().snapshot().epochs_seen();
  EXPECT_EQ(epochs, (std::vector<std::uint32_t>{3, 4}));
}

TEST(TransportClient, DialFailuresBackOffThenRecover) {
  CollectorAgent agent;
  LoopbackDialer dialer{&agent};
  dialer.failures_remaining = 3;
  CollectorClient client(CollectorClientConfig{}, dialer.factory());  // eager dial #1 fails
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.stats().connect_failures, 1u);

  client.submit(0, make_batch(4, 0));
  client.flush();
  // Backoff doubles per failure (1, then 2, then 4 pumps of silence), so
  // the dial count grows slower than the pump count.
  int pumps = 0;
  for (; pumps < 32 && !client.connected(); ++pumps) client.pump();
  EXPECT_TRUE(client.connected());
  EXPECT_EQ(dialer.dials, 4);  // 3 failures + 1 success, not one per pump
  EXPECT_EQ(pumps, 1 + 2 + 4 + 3);  // the silent pumps, then the 3 that dialed
  EXPECT_EQ(client.stats().connect_failures, 3u);
  // First successful dial is a connect, not a REconnect.
  EXPECT_EQ(client.stats().reconnects, 0u);

  ASSERT_TRUE(client.drain());
  agent.poll();
  EXPECT_EQ(agent.stats().records_ingested, 4u);
}

TEST(TransportClient, MidStreamDisconnectResendsWholeFrameAfterReconnect) {
  CollectorAgent agent;
  // Tiny pipe capacity: a frame takes many pumps, so we can kill the
  // connection with the front frame half-written.
  LoopbackDialer dialer{&agent, /*capacity=*/64};
  CollectorClientConfig cfg;
  cfg.coalesce_bytes = 1;
  CollectorClient client(cfg, dialer.factory());
  ASSERT_TRUE(client.connected());

  client.submit(0, make_batch(8, 0));
  client.pump();  // writes the first 64 bytes of a ~1KiB frame
  ASSERT_GT(client.buffered_bytes(), 0u) << "frame unexpectedly fit the pipe";

  // The agent dies mid-frame: its end closes, taking the partial frame.
  dialer.last_agent_end->close();
  agent.poll();  // reaps the dead connection
  EXPECT_EQ(agent.connections_closed(), 1u);
  EXPECT_EQ(agent.stats().records_ingested, 0u);

  // The client notices, re-dials, and resends the frame FROM ITS FIRST
  // BYTE on the new connection — the new decoder never sees a torn frame.
  for (int i = 0; i < 200 && !client.drain(8); ++i) agent.poll();
  agent.poll();
  EXPECT_EQ(client.stats().reconnects, 1u);
  EXPECT_EQ(agent.stats().records_ingested, 8u);
  EXPECT_EQ(agent.stats().protocol_errors, 0u);
}

TEST(TransportClient, QueryReplyRoundTripOverLoopback) {
  CollectorAgent agent;
  LoopbackDialer dialer{&agent};
  CollectorClient client(CollectorClientConfig{}, dialer.factory());

  client.submit(0, make_batch(6, 0));
  const Query q{.target = Target::kMetrics};
  client.send_query(q);
  // A second query while one is outstanding is a programming error.
  EXPECT_THROW(client.send_query(q), std::logic_error);

  std::optional<QueryReply> reply;
  for (int i = 0; i < 100 && !reply.has_value(); ++i) {
    client.pump();
    agent.poll();
    reply = client.poll_reply();
  }
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->body, ReplyBody::kScrape);
  // send_query sealed the coalescing buffer first, so the reply reflects
  // the records submitted before it.
  const auto& metrics = reply->scrape.metrics;
  EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_records_ingested_total"), 6u);
  EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_queries_answered_total"), 1u);
}

TEST(TransportClient, AgentDropsGarbageSpeakingPeer) {
  CollectorAgent agent;
  auto [client_end, agent_end] = make_loopback();
  agent.add_connection(std::move(agent_end));

  const std::uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef, 0x00, 0x01, 0x02, 0x03,
                                  0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b};
  ASSERT_EQ(client_end->write_some(garbage, sizeof(garbage)), sizeof(garbage));
  agent.poll();
  EXPECT_EQ(agent.protocol_errors(), 1u);
  EXPECT_EQ(agent.connection_count(), 0u);  // dropped, not tolerated
}

TEST(TransportClient, AgentDropsPeerThatNeverReadsReplies) {
  // The reply outbox is bounded like every other allocation on the agent's
  // untrusted path: a peer that queries forever without reading is dropped.
  CollectorAgentConfig cfg;
  cfg.max_outbox_bytes = 256;
  CollectorAgent agent(cfg);
  auto [client_end, agent_end] = make_loopback(/*capacity=*/64);  // tiny: replies back up
  agent.add_connection(std::move(agent_end));

  const auto frame = encode_frame(FrameType::kQuery, encode_query(Query{}));
  int sent = 0;
  for (; sent < 100 && agent.connection_count() > 0; ++sent) {
    std::size_t off = 0;
    while (off < frame.size()) {
      const auto n = client_end->write_some(frame.data() + off, frame.size() - off);
      if (n == 0) break;
      off += n;
    }
    agent.poll();  // never reading client_end: replies pile up agent-side
  }
  EXPECT_EQ(agent.connection_count(), 0u);
  EXPECT_GE(agent.protocol_errors(), 1u);
  EXPECT_LT(sent, 100) << "outbox cap never tripped";
}

TEST(TransportClient, AgentStartsNoThreads) {
  // Ingest runs inline on the poll thread; the agent owns no workers.
  const std::filesystem::path tasks = "/proc/self/task";
  if (!std::filesystem::exists(tasks)) GTEST_SKIP() << "no /proc/self/task on this platform";
  const auto threads = [&tasks] {
    return std::distance(std::filesystem::directory_iterator(tasks),
                         std::filesystem::directory_iterator());
  };
  const auto before = threads();
  CollectorAgent agent;
  EXPECT_EQ(threads(), before);
}

TEST(TransportClient, AgentDropsPeerSpeakingFrameVersionThree) {
  // A peer built before the sketch segment lost its accuracy and budget
  // still frames at version 3: it is refused at its first frame, dropped
  // like any protocol violator, and every other peer keeps streaming.
  CollectorAgent agent;
  LoopbackDialer good_dialer{&agent};
  CollectorClient good(CollectorClientConfig{}, good_dialer.factory());
  auto [old_end, agent_end] = make_loopback();
  agent.add_connection(std::move(agent_end));

  good.submit(0, make_batch(20, 0));
  ASSERT_TRUE(good.drain());
  auto old_frame = encode_frame(FrameType::kRecordBatch,
                                collect::encode_records(make_batch(20, 0, 12)));
  ASSERT_EQ(old_frame[4], kFrameVersion);
  old_frame[4] = 3;  // the version byte; the CRC covers only the payload
  ASSERT_EQ(old_end->write_some(old_frame.data(), old_frame.size()), old_frame.size());
  EXPECT_NO_THROW(agent.poll());
  EXPECT_EQ(agent.protocol_errors(), 1u);
  EXPECT_EQ(agent.connection_count(), 1u);  // only the old peer is gone
  const auto events = agent.events().snapshot();
  EXPECT_EQ(std::count_if(events.events.begin(), events.events.end(),
                          [](const obs::Event& ev) {
                            return ev.kind == obs::EventKind::kCrcPoison;
                          }),
            1);

  good.submit(1, make_batch(20, 1));
  ASSERT_TRUE(good.drain());
  EXPECT_NO_THROW(agent.poll());
  EXPECT_EQ(good.stats().reconnects, 0u);
  EXPECT_EQ(agent.stats().records_ingested, 40u);  // all of the good peer's, none of the old's
  EXPECT_EQ(agent.protocol_errors(), 1u);
}

TEST(TransportClient, AgentDropsPeerOnCorruptPayloadInsideValidFrame) {
  // Framing intact (CRC matches the corrupted bytes), but the payload is
  // not a record batch: the per-format validation must still catch it.
  CollectorAgent agent;
  auto [client_end, agent_end] = make_loopback();
  agent.add_connection(std::move(agent_end));

  std::vector<std::uint8_t> not_records(64, 0x5a);
  const auto frame = encode_frame(FrameType::kRecordBatch, not_records);
  ASSERT_EQ(client_end->write_some(frame.data(), frame.size()), frame.size());
  agent.poll();
  EXPECT_EQ(agent.protocol_errors(), 1u);
  EXPECT_EQ(agent.connection_count(), 0u);
}

TEST(TransportClient, ClientDropsConnectionOnCorruptReplyInsideValidFrame) {
  // The client-side mirror: a sound kQueryReply frame whose payload is not a
  // reply (unknown body 0x7f) poisons the connection like a bad frame. The
  // query is lost, not received, whether the caller polls or uses query().
  obs::SpanRecorder spans;
  std::vector<std::unique_ptr<ByteStream>> peers;
  CollectorClientConfig cfg;
  cfg.instruments.spans = &spans;
  CollectorClient client(cfg, [&peers]() -> std::unique_ptr<ByteStream> {
    auto [client_end, peer_end] = make_loopback();
    peers.push_back(std::move(peer_end));
    return std::move(client_end);
  });
  const std::vector<std::uint8_t> not_a_reply = {0x7f, 0x00};
  const auto frame = encode_frame(FrameType::kQueryReply, not_a_reply);
  const auto answer = [&] {
    ASSERT_EQ(peers.back()->write_some(frame.data(), frame.size()), frame.size());
  };

  client.send_query(Query{.target = Target::kFleet});
  client.pump();
  ASSERT_EQ(peers.size(), 1u);
  answer();
  EXPECT_THROW((void)client.poll_reply(), std::runtime_error);
  EXPECT_FALSE(client.connected());
  EXPECT_FALSE(client.query_outstanding());
  EXPECT_EQ(client.stats().replies_received, 0u);
  EXPECT_EQ(client.stats().queries_lost, 1u);

  // Through query(): the next round re-dials, the peer answers garbage again.
  bool answered = false;
  const auto reply = client.query(Query{.target = Target::kFleet}, 10, [&] {
    if (!answered && peers.size() == 2) {
      answer();
      answered = true;
    }
  });
  EXPECT_FALSE(reply.has_value());
  EXPECT_TRUE(answered);
  EXPECT_FALSE(client.connected());
  EXPECT_EQ(client.stats().replies_received, 0u);
  EXPECT_EQ(client.stats().queries_lost, 2u);

  // Each query's span closed once, as a failure.
  std::size_t query_spans = 0;
  for (const auto& span : spans.snapshot().spans) {
    if (span.kind != obs::SpanKind::kClientQuery) continue;
    ++query_spans;
    EXPECT_EQ(span.label, "fleet abandoned");
  }
  EXPECT_EQ(query_spans, 2u);
}

}  // namespace
}  // namespace rlir::transport
