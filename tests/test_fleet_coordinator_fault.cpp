// The fault half of the fleet tier's acceptance bar: kill 1 of 4 agents
// MID-STREAM during the standard workload and prove the system degrades
// the way the design promises —
//
//   (a) the partitioned client declares the endpoint down and reroutes
//       exactly its hash slots to the survivors (sticky homes elsewhere);
//   (b) record conservation holds end to end:
//         submitted == sum(ingested) + shed + inflight
//       (exact, because the kill lands where every pipe is drained — nothing
//       was in flight to be silently destroyed);
//   (c) post-rebalance fleet queries merge the reachable agents without
//       double counting: flows that never lived on the dead agent answer
//       bin-for-bin identically to the no-fault baseline, and the fleet
//       totals account for exactly the records the dead agent took with it.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fault_stream.h"
#include "fleet_workload.h"
#include "obs/metrics.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"

namespace rlir {
namespace {

using transport::testutil::FaultPlan;
using transport::testutil::FaultyByteStream;

constexpr std::size_t kAgents = 4;
constexpr std::size_t kVictim = 1;

struct KillableFleet {
  KillableFleet() : alive(kAgents, true), conns(kAgents, nullptr) {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = testutil::kWorkloadShards;
    for (std::size_t i = 0; i < kAgents; ++i) {
      agents.push_back(std::make_unique<transport::CollectorAgent>(cfg));
    }
  }

  /// Every connection is wrapped in a no-fault FaultyByteStream: the kill
  /// switch, flipped at a moment the TEST chooses.
  transport::CollectorClient::StreamFactory factory(std::size_t i) {
    return [this, i]() -> std::unique_ptr<transport::ByteStream> {
      if (!alive[i]) return nullptr;
      auto [client_end, agent_end] = transport::make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      auto wrapped = std::make_unique<FaultyByteStream>(std::move(client_end), FaultPlan{});
      conns[i] = wrapped.get();
      return wrapped;
    };
  }

  void kill(std::size_t i) {
    alive[i] = false;
    conns[i]->cut_now();
  }

  void poll_all() {
    for (auto& agent : agents) agent->poll();
  }

  std::vector<std::unique_ptr<transport::CollectorAgent>> agents;
  std::vector<bool> alive;
  std::vector<FaultyByteStream*> conns;
};

TEST(FleetCoordinatorFault, AgentKillMidStreamRebalancesAndConserves) {
  auto want = testutil::fleet_baseline_state();

  KillableFleet fleet;
  transport::PartitionedClient pc;
  for (std::size_t i = 0; i < kAgents; ++i) pc.add_endpoint(fleet.factory(i));
  // The slot->home map BEFORE any fault: which flows never depend on the
  // victim. Captured via a probe pump (seals the endpoint set).
  pc.pump();

  int steps = 0;
  bool killed = false;
  std::uint64_t routed_to_victim_at_kill = 0;
  testutil::run_fleet_workload({pc.make_sink()}, [&] {
    pc.pump();
    fleet.poll_all();
    ++steps;
    // Mid-stream (several epochs delivered, several to come), at an idle
    // point: drain every client buffer and pipe first, so the cut
    // destroys no in-flight bytes and conservation stays EXACT. (A cut
    // with bytes in the pipe loses them silently — at-most-once delivery —
    // which a test of exact accounting must not race with.)
    if (!killed && steps == 12) {
      for (int i = 0; i < 200 && !pc.drain(8); ++i) fleet.poll_all();
      fleet.poll_all();
      ASSERT_EQ(pc.records_inflight(), 0u) << "kill point not idle";
      routed_to_victim_at_kill = pc.records_routed(kVictim);
      ASSERT_GT(routed_to_victim_at_kill, 0u) << "victim saw no traffic before the kill";
      fleet.kill(kVictim);
      killed = true;
    }
  });
  ASSERT_TRUE(killed) << "workload too short to kill mid-stream";
  for (int i = 0; i < 200 && !pc.drain(8); ++i) fleet.poll_all();
  fleet.poll_all();

  // (a) Rebalance: the victim is down, exactly its home slots moved, and
  // they moved to survivors.
  EXPECT_FALSE(pc.endpoint_healthy(kVictim));
  EXPECT_EQ(pc.healthy_count(), kAgents - 1);
  EXPECT_EQ(pc.stats().rebalances, 1u);
  EXPECT_EQ(pc.stats().recoveries, 0u);
  constexpr std::size_t kSlots = transport::PartitionedClient::kSlotCount;
  EXPECT_EQ(pc.stats().slots_reassigned, kSlots / kAgents);
  for (std::size_t s = 0; s < kSlots; ++s) {
    if (s % kAgents == kVictim) {
      EXPECT_NE(pc.endpoint_for_slot(s), kVictim) << "slot " << s;
    } else {
      EXPECT_EQ(pc.endpoint_for_slot(s), s % kAgents) << "slot " << s;
    }
  }
  // The victim ingested everything routed to it before the kill, nothing
  // after (anything routed in the down-detection window is still queued in
  // its client = inflight, not lost silently).
  EXPECT_EQ(fleet.agents[kVictim]->stats().records_ingested, routed_to_victim_at_kill);

  // (b) Conservation, exact: every submitted record is ingested somewhere,
  // shed under the buffer cap, or queued toward the dead endpoint.
  std::uint64_t ingested = 0;
  for (auto& agent : fleet.agents) ingested += agent->stats().records_ingested;
  EXPECT_EQ(ingested + pc.records_shed() + pc.records_inflight(),
            pc.stats().records_submitted);
  EXPECT_EQ(pc.stats().records_submitted, want.records_ingested());

  // (c) Post-rebalance queries over the REACHABLE fleet (the victim's
  // factory refuses: a dead process), merged without double counting.
  transport::QueryCoordinatorConfig qcfg;
  qcfg.reply_rounds = 64;
  transport::QueryCoordinator coord(qcfg);
  for (std::size_t i = 0; i < kAgents; ++i) coord.add_agent(fleet.factory(i));
  coord.set_drive([&fleet] { fleet.poll_all(); });

  // Fleet totals: exactly the survivors' estimates — each record counted
  // once, the victim's share absent, nothing double-merged.
  std::uint64_t survivor_estimates = 0;
  for (std::size_t i = 0; i < kAgents; ++i) {
    if (i != kVictim) survivor_estimates += fleet.agents[i]->stats().estimates_ingested;
  }
  const auto fleet_sketch = coord.fleet();
  EXPECT_EQ(fleet_sketch.count(), survivor_estimates);
  EXPECT_LT(fleet_sketch.count(), want.fleet().count());  // partial truth
  EXPECT_EQ(obs::counter_total(coord.fleet_metrics().metrics,
                              "rlir_agent_records_ingested_total"),
            ingested - fleet.agents[kVictim]->stats().records_ingested);
  EXPECT_GE(coord.stats().agent_failures, 1u);  // the victim missed each fan-out

  // Flows that never depended on the victim (home slot elsewhere — sticky
  // homes guarantee they never moved) answer bin-for-bin as if no fault
  // had happened. Flows homed on the victim answer partial truth: never
  // MORE than the baseline (no duplication), possibly less.
  const auto all_flows = want.top_k_flows(want.flow_count(), 0.99);
  std::size_t unaffected = 0;
  std::size_t victim_homed = 0;
  for (const auto& flow : all_flows) {
    const auto slot = pc.slot_for(flow.key);
    const auto* want_sketch = want.flow(flow.key);
    const auto got = coord.flow_sketch(flow.key);
    if (slot % kAgents != kVictim) {
      ++unaffected;
      ASSERT_TRUE(got.has_value()) << flow.key.to_string();
      EXPECT_EQ(got->bins(), want_sketch->bins()) << flow.key.to_string();
      EXPECT_EQ(got->count(), want_sketch->count()) << flow.key.to_string();
      EXPECT_EQ(coord.flow_quantile(flow.key, 0.99), want.flow_quantile(flow.key, 0.99))
          << flow.key.to_string();
    } else {
      ++victim_homed;
      if (got.has_value()) {
        EXPECT_LE(got->count(), want_sketch->count())
            << flow.key.to_string() << " double counted";
      }
    }
  }
  EXPECT_GT(unaffected, 0u);
  EXPECT_GT(victim_homed, 0u) << "workload never exercised the victim's slots";
}

}  // namespace
}  // namespace rlir
