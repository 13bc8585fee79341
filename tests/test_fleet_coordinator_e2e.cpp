// The fleet-of-agents acceptance bar: the SAME FatTreeSim workload,
// collected two ways —
//
//   baseline:     vantages -> FleetCollector -> one in-process collector
//   partitioned:  vantages -> PartitionedClient (flow-hash spray) -> 4
//                 CollectorAgents -> QueryCoordinator merges
//
// — must agree bin for bin: every flow's sketch, every link distribution,
// the fleet sketch, and the ranked top-k. Partitioning changes WHERE
// records are aggregated, never WHAT the fleet answers. Proven over
// loopback pipes (single-threaded, deterministic) and real Unix sockets
// (agents on their own threads, kernel in the path).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "fleet_workload.h"
#include "obs/metrics.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

constexpr std::size_t kAgents = 4;

transport::CollectorAgentConfig agent_config() {
  transport::CollectorAgentConfig cfg;
  cfg.collector.shard_count = testutil::kWorkloadShards;
  return cfg;
}

/// Merged state of every agent — what "the fleet's collector" means.
collect::ShardedCollector merged_snapshot(
    std::vector<std::unique_ptr<transport::CollectorAgent>>& agents) {
  auto merged = agents.front()->collector().snapshot();
  for (std::size_t i = 1; i < agents.size(); ++i) {
    const auto part = agents[i]->collector().snapshot();
    merged.merge(part);
  }
  return merged;
}

/// Coordinator answers vs the baseline collector: fleet sketch, EVERY
/// flow's bins, link distributions, ranked top-k, and per-flow quantiles.
/// `flow_probe_limit` bounds the per-flow sweep (every query is a full
/// fan-out; socket runs probe a subset, loopback runs probe everything).
void expect_coordinator_matches(transport::QueryCoordinator& coord,
                                collect::ShardedCollector& want,
                                std::size_t flow_probe_limit) {
  const auto fleet = coord.fleet();
  EXPECT_EQ(fleet.bins(), want.fleet().bins());
  EXPECT_EQ(fleet.count(), want.fleet().count());

  const auto got_top = coord.top_k_ranked(10, 0.99);
  const auto want_top = want.top_k_ranked(10, 0.99);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].second.key, want_top[i].second.key) << "rank " << i;
    EXPECT_EQ(got_top[i].first, want_top[i].first) << "rank " << i;
    EXPECT_EQ(got_top[i].second.packets, want_top[i].second.packets) << "rank " << i;
  }

  const auto links = coord.link_distributions();
  ASSERT_EQ(links.size(), want.links().size());
  for (const auto& [link, dist] : links) {
    const auto want_dist = want.link_distribution(link);
    ASSERT_TRUE(want_dist.has_value()) << "link " << link;
    EXPECT_EQ(dist.bins(), want_dist->bins()) << "link " << link;
    EXPECT_EQ(dist.count(), want_dist->count()) << "link " << link;
  }

  const auto all_flows = want.top_k_flows(want.flow_count(), 0.99);
  ASSERT_EQ(all_flows.size(), want.flow_count());
  std::size_t probed = 0;
  for (const auto& flow : all_flows) {
    if (probed++ == flow_probe_limit) break;
    const auto sketch = coord.flow_sketch(flow.key);
    ASSERT_TRUE(sketch.has_value()) << flow.key.to_string();
    const auto* want_sketch = want.flow(flow.key);
    EXPECT_EQ(sketch->bins(), want_sketch->bins()) << flow.key.to_string();
    EXPECT_EQ(sketch->count(), want_sketch->count()) << flow.key.to_string();
    EXPECT_EQ(coord.flow_quantile(flow.key, 0.99), want.flow_quantile(flow.key, 0.99))
        << flow.key.to_string();
  }

  const auto totals = coord.fleet_metrics().metrics;
  EXPECT_EQ(obs::counter_total(totals, "rlir_agent_records_ingested_total"),
            want.records_ingested());
  EXPECT_EQ(obs::counter_total(totals, "rlir_agent_estimates_ingested_total"),
            want.estimates_ingested());
  EXPECT_EQ(obs::counter_total(totals, "rlir_agent_protocol_errors_total"), 0u);
  EXPECT_EQ(coord.stats().agent_failures, 0u);
}

TEST(FleetCoordinatorE2E, PartitionedLoopbackFleetMatchesSingleCollector) {
  auto want = testutil::fleet_baseline_state();

  std::vector<std::unique_ptr<transport::CollectorAgent>> agents;
  for (std::size_t i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<transport::CollectorAgent>(agent_config()));
  }
  const auto poll_all = [&agents] {
    for (auto& agent : agents) agent->poll();
  };
  const auto factory = [&agents](std::size_t i) {
    return [&agents, i]() {
      auto [client_end, agent_end] = transport::make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      return std::move(client_end);
    };
  };

  transport::PartitionedClient pc;
  for (std::size_t i = 0; i < kAgents; ++i) pc.add_endpoint(factory(i));

  testutil::run_fleet_workload({pc.make_sink()}, [&] {
    pc.pump();
    poll_all();
  });
  for (int i = 0; i < 200 && !pc.drain(8); ++i) poll_all();
  poll_all();

  // Lossless run: everything submitted was routed, delivered, ingested.
  EXPECT_EQ(pc.records_shed(), 0u);
  EXPECT_EQ(pc.records_inflight(), 0u);
  EXPECT_EQ(pc.stats().records_submitted, want.records_ingested());
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < kAgents; ++i) {
    EXPECT_EQ(agents[i]->stats().records_ingested, pc.records_routed(i)) << "agent " << i;
    EXPECT_GT(pc.records_routed(i), 0u) << "agent " << i << " got no share";
    ingested += agents[i]->stats().records_ingested;
  }
  EXPECT_EQ(ingested, want.records_ingested());

  // The four agents' merged state IS the single collector's state.
  auto got = merged_snapshot(agents);
  testutil::expect_identical_collectors(got, want);

  // And the coordinator derives the same answers over the wire.
  transport::QueryCoordinator coord;
  for (std::size_t i = 0; i < kAgents; ++i) coord.add_agent(factory(i));
  coord.set_drive(poll_all);
  ASSERT_EQ(coord.connected_count(), kAgents);
  expect_coordinator_matches(coord, want, want.flow_count());  // every flow
}

TEST(FleetCoordinatorE2E, PartitionedUnixSocketFleetMatchesSingleCollector) {
  std::vector<std::unique_ptr<transport::SocketListener>> listeners;
  std::vector<transport::SocketAddress> addresses;
  for (std::size_t i = 0; i < kAgents; ++i) {
    const std::string path = ::testing::TempDir() + "rlir_fc_" +
                             std::to_string(::getpid()) + "_" + std::to_string(i) + ".sock";
    try {
      listeners.push_back(std::make_unique<transport::SocketListener>(
          transport::SocketAddress::unix_path(path)));
    } catch (const std::system_error&) {
      GTEST_SKIP() << "sandbox forbids unix sockets";
    }
    addresses.push_back(listeners.back()->address());
  }

  auto want = testutil::fleet_baseline_state();

  // Deployment shape: each agent owns its thread (as it would its process).
  // The vector is fully built BEFORE any thread starts: a push_back
  // reallocation under a running reactor thread's agents[i] is a race.
  std::vector<std::unique_ptr<transport::CollectorAgent>> agents;
  for (std::size_t i = 0; i < kAgents; ++i) {
    agents.push_back(std::make_unique<transport::CollectorAgent>(agent_config()));
    agents[i]->set_listener(std::move(listeners[i]));
  }
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kAgents; ++i) {
    threads.emplace_back(
        [&agents, &stop, i] { agents[i]->run(stop, timebase::Duration::microseconds(100)); });
  }

  {
    transport::PartitionedClient pc;
    for (std::size_t i = 0; i < kAgents; ++i) {
      pc.add_endpoint([address = addresses[i]]() { return transport::connect_to(address); });
    }
    testutil::run_fleet_workload({pc.make_sink()}, [&pc] { pc.pump(); });
    ASSERT_TRUE(pc.drain(100000)) << "sockets never drained";

    // Per-endpoint conservation over the wire: each metrics query rides
    // the SAME connection as that endpoint's record frames, so its reply
    // proves every frame before it was processed.
    for (std::size_t i = 0; i < kAgents; ++i) {
      const auto reply = pc.client(i).query({.target = transport::Target::kMetrics});
      ASSERT_TRUE(reply.has_value()) << "agent " << i << " metrics query got no reply";
      const auto& metrics = reply->scrape.metrics;
      EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_records_ingested_total"),
                pc.records_routed(i))
          << "agent " << i;
      EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_protocol_errors_total"), 0u)
          << "agent " << i;
    }
    EXPECT_EQ(pc.records_shed(), 0u);
    EXPECT_EQ(pc.stats().records_submitted, want.records_ingested());
  }

  // Coordinator over fresh socket connections, agents still live on their
  // threads (no drive hook: rounds sleep, the reactor threads answer).
  {
    transport::QueryCoordinator coord;
    for (std::size_t i = 0; i < kAgents; ++i) {
      coord.add_agent([address = addresses[i]]() { return transport::connect_to(address); });
    }
    ASSERT_EQ(coord.connected_count(), kAgents);
    expect_coordinator_matches(coord, want, 10);  // loopback run swept all flows
  }

  stop.store(true);
  for (auto& thread : threads) thread.join();

  auto got = merged_snapshot(agents);
  testutil::expect_identical_collectors(got, want);
}

}  // namespace
}  // namespace rlir
