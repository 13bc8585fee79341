// PartitionedClient: deterministic flow-hash routing (every flow's records
// on exactly ONE agent), endpoint health tracking, rebalance on agent loss
// with sticky home slots, fail-back on recovery, and record conservation
// through all of it — the invariants the fleet query tier's exactness
// rests on.
#include "transport/partitioned_client.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fault_stream.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"

namespace rlir::transport {
namespace {

using testutil::FaultPlan;
using testutil::FaultyByteStream;

std::vector<collect::EstimateRecord> make_batch(std::size_t n, std::uint32_t epoch,
                                                std::uint64_t seed = 17) {
  common::Xoshiro256 rng(seed);
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                                 static_cast<std::uint8_t>(i));
    r.key.dst = net::Ipv4Address(10, 1, 0, 1);
    r.key.src_port = static_cast<std::uint16_t>(1000 + i);
    r.key.dst_port = 80;
    r.epoch = epoch;
    r.link = static_cast<collect::LinkId>(i % 3);
    for (int j = 0; j < 20; ++j) r.sketch.add(rng.lognormal(9.0, 1.0));
    records.push_back(std::move(r));
  }
  return records;
}

/// N loopback agents, each endpoint's connection wrapped in a (no-fault)
/// FaultyByteStream so the test can kill it at will; `alive[i] = false`
/// makes endpoint i's re-dials fail.
struct AgentFleet {
  explicit AgentFleet(std::size_t n)
      : agents(n), alive(n, true), conns(n, nullptr) {
    for (std::size_t i = 0; i < n; ++i) agents[i] = std::make_unique<CollectorAgent>();
  }

  CollectorClient::StreamFactory factory(std::size_t i) {
    return [this, i]() -> std::unique_ptr<ByteStream> {
      if (!alive[i]) return nullptr;
      auto [client_end, agent_end] = make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      auto wrapped =
          std::make_unique<FaultyByteStream>(std::move(client_end), FaultPlan{});
      conns[i] = wrapped.get();
      return wrapped;
    };
  }

  void kill(std::size_t i) {
    alive[i] = false;
    ASSERT_NE(conns[i], nullptr);
    conns[i]->cut_now();
  }

  void revive(std::size_t i) { alive[i] = true; }

  void poll_all() {
    for (auto& agent : agents) agent->poll();
  }

  std::uint64_t total_ingested() {
    std::uint64_t total = 0;
    for (auto& agent : agents) total += agent->stats().records_ingested;
    return total;
  }

  std::vector<std::unique_ptr<CollectorAgent>> agents;
  std::vector<bool> alive;
  std::vector<FaultyByteStream*> conns;
};

void add_all_endpoints(PartitionedClient& pc, AgentFleet& fleet) {
  for (std::size_t i = 0; i < fleet.agents.size(); ++i) {
    pc.add_endpoint(fleet.factory(i));
  }
}

/// drain() + agent polling until everything healthy has landed.
void settle(PartitionedClient& pc, AgentFleet& fleet) {
  for (int i = 0; i < 200; ++i) {
    pc.drain(8);
    fleet.poll_all();
    if (pc.records_inflight() == 0) break;
    bool all_healthy_empty = true;
    for (std::size_t e = 0; e < pc.endpoint_count(); ++e) {
      if (pc.endpoint_healthy(e) && pc.client(e).queued_records() > 0) {
        all_healthy_empty = false;
      }
    }
    if (all_healthy_empty) break;
  }
  fleet.poll_all();
}

TEST(PartitionedClient, ValidatesConfigAndSealsEndpoints) {
  {
    // No endpoints: the first submit has nowhere to route.
    PartitionedClient pc;
    EXPECT_THROW(pc.submit(0, make_batch(1, 0)), std::logic_error);
  }
  {
    // More endpoints than hash slots cannot each own a slot.
    PartitionedClient pc;
    for (std::size_t i = 0; i < PartitionedClient::kSlotCount + 1; ++i) {
      pc.add_endpoint([] { return std::unique_ptr<ByteStream>(); });
    }
    EXPECT_THROW(pc.submit(0, make_batch(1, 0)), std::invalid_argument);
  }
  {
    // The endpoint set is fixed once routing started.
    AgentFleet fleet(2);
    PartitionedClient pc;
    add_all_endpoints(pc, fleet);
    pc.pump();
    EXPECT_THROW(pc.add_endpoint(fleet.factory(0)), std::logic_error);
  }
}

TEST(PartitionedClient, RoutesEveryFlowToExactlyOneAgent) {
  AgentFleet fleet(4);
  PartitionedClient pc;
  add_all_endpoints(pc, fleet);
  const auto batch = make_batch(200, 0);
  pc.submit(0, batch);
  settle(pc, fleet);

  // The home table is the plain modulo spray while everyone is healthy.
  for (std::size_t s = 0; s < PartitionedClient::kSlotCount; ++s) {
    EXPECT_EQ(pc.endpoint_for_slot(s), s % 4);
  }

  // Conservation across the spray: routed sums to submitted, ingested
  // matches routed per endpoint.
  EXPECT_EQ(pc.stats().records_submitted, batch.size());
  std::uint64_t routed = 0;
  for (std::size_t e = 0; e < 4; ++e) {
    routed += pc.records_routed(e);
    EXPECT_EQ(fleet.agents[e]->stats().records_ingested, pc.records_routed(e));
    EXPECT_GT(pc.records_routed(e), 0u) << "endpoint " << e << " got nothing";
  }
  EXPECT_EQ(routed, batch.size());
  EXPECT_EQ(fleet.total_ingested(), batch.size());

  // Disjointness: each flow's records live on the ONE agent the table says.
  std::vector<collect::ShardedCollector> states;
  for (auto& agent : fleet.agents) states.push_back(agent->collector().snapshot());
  for (const auto& r : batch) {
    const auto owner = pc.endpoint_for(r.key);
    for (std::size_t e = 0; e < 4; ++e) {
      const auto* sketch = states[e].flow(r.key);
      if (e == owner) {
        ASSERT_NE(sketch, nullptr) << r.key.to_string();
      } else {
        EXPECT_EQ(sketch, nullptr) << r.key.to_string() << " leaked to " << e;
      }
    }
  }
}

TEST(PartitionedClient, EndpointLossRebalancesOnlyItsSlots) {
  AgentFleet fleet(4);
  PartitionedClient pc;
  add_all_endpoints(pc, fleet);
  pc.submit(0, make_batch(100, 0));
  settle(pc, fleet);
  const auto ingested_before = fleet.agents[1]->stats().records_ingested;

  fleet.kill(1);
  // Deterministic declaration: healthy until kDownAfterPumps disconnected
  // pumps, down right after.
  for (std::uint32_t i = 0; i + 1 < PartitionedClient::kDownAfterPumps; ++i) pc.pump();
  EXPECT_TRUE(pc.endpoint_healthy(1));
  pc.pump();
  EXPECT_FALSE(pc.endpoint_healthy(1));
  EXPECT_EQ(pc.healthy_count(), 3u);
  EXPECT_EQ(pc.stats().rebalances, 1u);
  // Exactly the dead endpoint's home slots moved, nobody else's.
  EXPECT_EQ(pc.stats().slots_reassigned, PartitionedClient::kSlotCount / 4);
  for (std::size_t s = 0; s < PartitionedClient::kSlotCount; ++s) {
    if (s % 4 == 1) {
      EXPECT_NE(pc.endpoint_for_slot(s), 1u) << "slot " << s << " still on the dead agent";
    } else {
      EXPECT_EQ(pc.endpoint_for_slot(s), s % 4) << "slot " << s << " moved needlessly";
    }
  }

  // Post-rebalance traffic lands entirely on the survivors; conservation
  // holds with nothing shed and nothing stranded.
  const auto batch = make_batch(100, 1, 29);
  pc.submit(1, batch);
  settle(pc, fleet);
  EXPECT_EQ(fleet.agents[1]->stats().records_ingested, ingested_before);
  EXPECT_EQ(pc.records_shed(), 0u);
  EXPECT_EQ(pc.records_inflight(), 0u);
  EXPECT_EQ(fleet.total_ingested(), pc.stats().records_submitted);
}

TEST(PartitionedClient, RecoveryFailsBackToHomeSlots) {
  AgentFleet fleet(4);
  PartitionedClient pc;
  add_all_endpoints(pc, fleet);
  pc.pump();  // seal + connect

  fleet.kill(2);
  for (int i = 0; i < 8 && pc.endpoint_healthy(2); ++i) pc.pump();
  ASSERT_FALSE(pc.endpoint_healthy(2));
  const auto moved_down = pc.stats().slots_reassigned;

  fleet.revive(2);
  // The endpoint's client never stops re-dialing (with backoff); once it
  // reconnects the home slots move back.
  for (int i = 0; i < 128 && !pc.endpoint_healthy(2); ++i) pc.pump();
  ASSERT_TRUE(pc.endpoint_healthy(2));
  EXPECT_EQ(pc.healthy_count(), 4u);
  EXPECT_EQ(pc.stats().recoveries, 1u);
  EXPECT_EQ(pc.stats().slots_reassigned, moved_down * 2);  // same slots, moved back
  for (std::size_t s = 0; s < PartitionedClient::kSlotCount; ++s) {
    EXPECT_EQ(pc.endpoint_for_slot(s), s % 4);
  }
}

TEST(PartitionedClient, QueuedRecordsOnDownEndpointAreInflightThenDelivered) {
  AgentFleet fleet(2);
  PartitionedClientConfig cfg;
  cfg.client.coalesce_bytes = 1;  // every submit seals: records sit in frames
  PartitionedClient pc(cfg);
  add_all_endpoints(pc, fleet);
  pc.pump();

  // Kill endpoint 1 and submit WITHOUT pumping first: its share queues in
  // the dead endpoint's client.
  fleet.kill(1);
  const auto batch = make_batch(120, 0);
  pc.submit(0, batch);
  const auto stranded = pc.client(1).queued_records();
  ASSERT_GT(stranded, 0u);

  for (int i = 0; i < 8 && pc.endpoint_healthy(1); ++i) pc.pump();
  ASSERT_FALSE(pc.endpoint_healthy(1));
  // drain() succeeds by delivering the healthy endpoint's share; the
  // stranded records are the inflight conservation term, not a failure.
  EXPECT_TRUE(pc.drain(64));
  fleet.poll_all();
  EXPECT_EQ(pc.records_inflight(), stranded);
  EXPECT_EQ(fleet.total_ingested() + pc.records_shed() + pc.records_inflight(),
            pc.stats().records_submitted);

  // "Delivered if it returns": revive the endpoint and the stranded frames
  // flow — conservation closes with inflight at zero.
  fleet.revive(1);
  for (int i = 0; i < 128 && !pc.endpoint_healthy(1); ++i) pc.pump();
  ASSERT_TRUE(pc.endpoint_healthy(1));
  settle(pc, fleet);
  EXPECT_EQ(pc.records_inflight(), 0u);
  EXPECT_EQ(fleet.total_ingested() + pc.records_shed(), pc.stats().records_submitted);
}

}  // namespace
}  // namespace rlir::transport
