// The fault-injection decorator itself, then the decorator driving the
// transport tier's failure paths deterministically: a bit flip on the wire
// must poison the frame and drop the connection (CRC catches it), a
// mid-frame connection cut must end in a whole-frame resend with no
// duplicates, and a backpressure stall must push the client into bounded
// buffering with oldest-first shedding — with conservation checkable at
// every step.
#include "fault_stream.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/client.h"
#include "transport/frame.h"

namespace rlir::transport {
namespace {

using testutil::FaultPlan;
using testutil::FaultyByteStream;
using testutil::make_faulty_loopback;

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

// --- Decorator semantics ----------------------------------------------------

TEST(FaultStream, CutAfterWriteBytesKillsAtExactOffset) {
  FaultPlan plan;
  plan.cut_after_write_bytes = 4;
  auto [faulty, peer] = make_faulty_loopback(plan);
  auto* f = static_cast<FaultyByteStream*>(faulty.get());

  const std::uint8_t data[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  // Exactly the bytes before the cut point get through, never one more.
  EXPECT_EQ(faulty->write_some(data, sizeof data), 4u);
  EXPECT_TRUE(f->cut_fired());
  EXPECT_TRUE(faulty->closed());
  EXPECT_EQ(faulty->write_some(data, sizeof data), 0u);

  // The peer drains what was delivered before seeing the death.
  std::uint8_t got[10] = {};
  EXPECT_EQ(peer->read_some(got, sizeof got), 4u);
  EXPECT_EQ(std::memcmp(got, data, 4), 0);
  EXPECT_EQ(peer->read_some(got, sizeof got), 0u);
  EXPECT_TRUE(peer->closed());
}

TEST(FaultStream, FlipCorruptsExactlyOneByte) {
  FaultPlan plan;
  plan.flip_write_byte = 2;
  auto [faulty, peer] = make_faulty_loopback(plan);
  auto* f = static_cast<FaultyByteStream*>(faulty.get());

  const std::uint8_t data[8] = {'A', 'B', 'C', 'D', 'E', 'F', 'G', 'H'};
  ASSERT_EQ(faulty->write_some(data, sizeof data), sizeof data);
  EXPECT_EQ(f->flips(), 1u);

  std::uint8_t got[8] = {};
  ASSERT_EQ(peer->read_some(got, sizeof got), sizeof got);
  EXPECT_EQ(got[2], 'C' ^ 0x20);
  got[2] = 'C';
  EXPECT_EQ(std::memcmp(got, data, sizeof data), 0);
}

TEST(FaultStream, StallWindowAcceptsNothingThenResumes) {
  FaultPlan plan;
  plan.stall_after_write_bytes = 4;
  plan.stall_writes = 2;
  auto [faulty, peer] = make_faulty_loopback(plan);
  auto* f = static_cast<FaultyByteStream*>(faulty.get());

  const std::uint8_t data[4] = {1, 2, 3, 4};
  EXPECT_EQ(faulty->write_some(data, 4), 4u);
  // The stall window: zero-byte writes, connection still alive.
  EXPECT_EQ(faulty->write_some(data, 3), 0u);
  EXPECT_EQ(faulty->write_some(data, 3), 0u);
  EXPECT_FALSE(faulty->closed());
  EXPECT_EQ(f->stalled_writes(), 2u);
  // Window exhausted: flow resumes.
  EXPECT_EQ(faulty->write_some(data, 3), 3u);
  EXPECT_EQ(f->bytes_written(), 7u);
}

TEST(FaultStream, CutAfterReadBytesDropsUndrainedBytes) {
  FaultPlan plan;
  plan.cut_after_read_bytes = 6;
  auto [faulty, peer] = make_faulty_loopback(plan);

  const std::uint8_t data[10] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_EQ(peer->write_some(data, sizeof data), sizeof data);

  std::uint8_t got[10] = {};
  EXPECT_EQ(faulty->read_some(got, sizeof got), 6u);
  EXPECT_EQ(std::memcmp(got, data, 6), 0);
  EXPECT_TRUE(faulty->closed());
  // The four written-but-unread bytes died with the connection.
  EXPECT_EQ(faulty->read_some(got, sizeof got), 0u);
}

// --- Driving the transport tier's failure paths -----------------------------

/// Dials through a FaultyByteStream on the FIRST connection, clean loopback
/// afterwards — the shape of "one network incident, then recovery".
struct FaultyDialer {
  CollectorAgent* agent = nullptr;
  FaultPlan first_plan = {};
  int dials = 0;
  FaultyByteStream* faulty = nullptr;  // the first connection's client end

  CollectorClient::StreamFactory factory() {
    return [this]() -> std::unique_ptr<ByteStream> {
      auto [client_end, agent_end] = make_loopback();
      agent->add_connection(std::move(agent_end));
      if (dials++ == 0) {
        auto wrapped = std::make_unique<FaultyByteStream>(std::move(client_end), first_plan);
        faulty = wrapped.get();
        return wrapped;
      }
      return std::move(client_end);
    };
  }
};

TEST(FaultStream, BitFlipPoisonsFrameAndClientRecovers) {
  CollectorAgent agent;
  FaultyDialer dialer{&agent};
  // Flip a payload byte of the first frame: the frame CRC must catch it.
  dialer.first_plan.flip_write_byte = kFrameHeaderSize + 8;
  CollectorClient client(CollectorClientConfig{}, dialer.factory());

  const auto first = make_batch(10, 0);
  client.submit(0, first);
  client.flush();
  client.pump();
  ASSERT_EQ(dialer.faulty->flips(), 1u);

  // The agent sees a CRC mismatch: protocol error, connection dropped,
  // nothing ingested — a corrupt frame never half-applies.
  agent.poll();
  EXPECT_EQ(agent.protocol_errors(), 1u);
  EXPECT_EQ(agent.stats().records_ingested, 0u);

  // The client notices the death and re-dials (clean stream this time).
  // The flipped frame was already on the wire — at-most-once delivery says
  // its records are lost, not resent out of frame.
  for (int i = 0; i < 8 && !client.connected(); ++i) client.pump();
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.stats().reconnects, 1u);

  const auto second = make_batch(7, 1, 22);
  client.submit(1, second);
  ASSERT_TRUE(client.drain());
  agent.poll();
  EXPECT_EQ(agent.stats().records_ingested, second.size());
  EXPECT_EQ(agent.protocol_errors(), 1u);
}

TEST(FaultStream, MidFrameCutResendsWholeFrameWithoutDuplicates) {
  CollectorAgent agent;
  FaultyDialer dialer{&agent};
  // Die 10 payload bytes into the first frame: the agent holds a partial
  // frame (connection death, NOT a protocol violation), the client must
  // resend the frame from byte zero on the next connection.
  dialer.first_plan.cut_after_write_bytes = kFrameHeaderSize + 10;
  CollectorClient client(CollectorClientConfig{}, dialer.factory());

  const auto batch = make_batch(10, 0);
  client.submit(0, batch);
  client.flush();
  client.pump();
  ASSERT_TRUE(dialer.faulty->cut_fired());
  agent.poll();  // partial frame + EOF: reap, no error
  EXPECT_EQ(agent.protocol_errors(), 0u);
  EXPECT_EQ(agent.stats().records_ingested, 0u);

  ASSERT_TRUE(client.drain());
  agent.poll();
  // Exactly once: the whole frame went out on the second connection.
  EXPECT_EQ(agent.stats().records_ingested, batch.size());
  EXPECT_EQ(client.stats().records_shed, 0u);
  EXPECT_EQ(client.stats().reconnects, 1u);
}

TEST(FaultStream, StallBackpressureShedsOldestAndConservationHolds) {
  CollectorAgent agent;
  FaultyDialer dialer{&agent};
  // The connection accepts nothing, forever (within this test): pure
  // backpressure, never a death.
  dialer.first_plan.stall_after_write_bytes = 0;
  dialer.first_plan.stall_writes = 1u << 20;

  CollectorClientConfig cfg;
  cfg.coalesce_bytes = 1;  // every batch seals into its own frame
  const auto probe = collect::encode_records(make_batch(20, 0));
  cfg.max_buffered_bytes = (probe.size() + kFrameHeaderSize) * 2 + 16;
  CollectorClient client(cfg, dialer.factory());

  for (std::uint32_t e = 0; e < 5; ++e) {
    client.submit(e, make_batch(20, e));
    client.pump();
  }
  EXPECT_FALSE(client.drain(16));
  EXPECT_TRUE(client.connected());  // stalled, not dead
  EXPECT_GT(static_cast<const FaultyByteStream*>(dialer.faulty)->stalled_writes(), 0u);

  // Bounded buffering under stall: cap respected, oldest shed first, and
  // every submitted record is accounted for — shed or still queued.
  EXPECT_LE(client.buffered_bytes(), cfg.max_buffered_bytes);
  EXPECT_EQ(client.stats().batch_frames_shed, 3u);
  EXPECT_EQ(client.stats().records_shed, 60u);
  EXPECT_EQ(client.stats().records_submitted,
            client.stats().records_shed + client.queued_records());
  EXPECT_EQ(agent.stats().records_ingested, 0u);
}

}  // namespace
}  // namespace rlir::transport
