// The transport tier's acceptance bar: exporter -> CollectorClient ->
// byte stream -> CollectorAgent -> ShardedCollector must produce
// bin-for-bin identical collector state (and identical top-k / quantile
// answers) to the in-process FleetCollector path on the same FatTreeSim
// workload — under the loopback backend and over a real Unix socket.
//
// This is the property that makes shard-per-process deployment safe: moving
// collection across a process boundary changes WHERE merging happens, never
// WHAT the answers are.
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
#include "transport/client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

constexpr std::size_t kShards = testutil::kWorkloadShards;

/// The shared workload, single-sink (this file predates the partitioned
/// fleet; its transport runs ship everything to one agent).
template <typename BetweenSteps>
collect::ShardedCollector run_workload(collect::EpochScheduler::BatchSink sink,
                                       BetweenSteps between_steps) {
  std::vector<collect::EpochScheduler::BatchSink> sinks;
  if (sink) sinks.push_back(std::move(sink));
  return testutil::run_fleet_workload(std::move(sinks), between_steps);
}

collect::ShardedCollector baseline_state() { return testutil::fleet_baseline_state(); }

void expect_identical(collect::ShardedCollector& got, collect::ShardedCollector& want) {
  testutil::expect_identical_collectors(got, want);
}

TEST(TransportE2E, LoopbackMatchesInProcessBinForBin) {
  auto want = baseline_state();

  transport::CollectorAgentConfig agent_cfg;
  agent_cfg.collector.shard_count = kShards;
  transport::CollectorAgent agent(agent_cfg);
  transport::CollectorClientConfig client_cfg;
  client_cfg.coalesce_bytes = 16u << 10;  // several seals per run: exercises splitting
  transport::CollectorClient client(client_cfg, [&agent]() {
    auto [client_end, agent_end] = transport::make_loopback();
    agent.add_connection(std::move(agent_end));
    return std::move(client_end);
  });

  run_workload(client.make_sink(), [&] {
    client.pump();
    agent.poll();
  });
  for (int i = 0; i < 100 && !client.drain(8); ++i) agent.poll();
  agent.poll();

  EXPECT_EQ(client.stats().records_shed, 0u);
  EXPECT_EQ(agent.protocol_errors(), 0u);
  auto got = agent.collector().snapshot();
  expect_identical(got, want);
}

TEST(TransportE2E, UnixSocketMatchesInProcessBinForBin) {
  const std::string path =
      testing::TempDir() + "rlir_e2e_" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<transport::SocketListener> listener;
  try {
    listener = std::make_unique<transport::SocketListener>(
        transport::SocketAddress::unix_path(path));
  } catch (const std::system_error&) {
    GTEST_SKIP() << "sandbox forbids unix sockets";
  }
  const auto address = listener->address();

  auto want = baseline_state();

  // The deployment shape: the agent owns its thread (as it would own its
  // process), the workload streams over a real kernel socket.
  transport::CollectorAgentConfig agent_cfg;
  agent_cfg.collector.shard_count = kShards;
  transport::CollectorAgent agent(agent_cfg);
  agent.set_listener(std::move(listener));
  std::atomic<bool> stop{false};
  std::thread agent_thread(
      [&] { agent.run(stop, timebase::Duration::microseconds(100)); });

  {
    transport::CollectorClient client(transport::CollectorClientConfig{},
                                      [address]() { return transport::connect_to(address); });
    ASSERT_TRUE(client.connected());
    run_workload(client.make_sink(), [&client] { client.pump(); });
    ASSERT_TRUE(client.drain(100000)) << "socket never drained";

    // Conservation check over the wire before comparing state: the metrics
    // query round-trips on the same connection, so its reply proves every
    // record frame before it was processed.
    const auto reply = client.query({.target = transport::Target::kMetrics});
    ASSERT_TRUE(reply.has_value()) << "metrics query got no reply";
    const auto& metrics = reply->scrape.metrics;
    EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_records_ingested_total"),
              want.records_ingested());
    EXPECT_EQ(obs::counter_total(metrics, "rlir_agent_protocol_errors_total"), 0u);
  }

  stop.store(true);
  agent_thread.join();

  auto got = agent.collector().snapshot();
  expect_identical(got, want);
}

TEST(TransportE2E, RemoteQueriesMatchLocalAnswers) {
  // Loopback variant, exercising the query plane end to end: fleet sketch,
  // ranked top-k, and per-flow quantiles must equal the local collector's.
  auto want = baseline_state();

  transport::CollectorAgentConfig agent_cfg;
  agent_cfg.collector.shard_count = kShards;
  transport::CollectorAgent agent(agent_cfg);
  transport::CollectorClient client(transport::CollectorClientConfig{}, [&agent]() {
    auto [client_end, agent_end] = transport::make_loopback();
    agent.add_connection(std::move(agent_end));
    return std::move(client_end);
  });
  run_workload(client.make_sink(), [&] {
    client.pump();
    agent.poll();
  });
  for (int i = 0; i < 100 && !client.drain(8); ++i) agent.poll();

  const auto ask = [&](const transport::Query& q) {
    client.send_query(q);
    std::optional<transport::QueryReply> reply;
    for (int i = 0; i < 1000 && !reply.has_value(); ++i) {
      client.pump();
      agent.poll();
      reply = client.poll_reply();
    }
    return reply;
  };

  const auto fleet_reply = ask({.target = transport::Target::kFleet});
  ASSERT_TRUE(fleet_reply.has_value());
  ASSERT_EQ(fleet_reply->entries.size(), 1u);
  EXPECT_EQ(fleet_reply->entries[0].sketch.bins(), want.fleet().bins());
  EXPECT_EQ(fleet_reply->entries[0].sketch.count(), want.fleet().count());

  // Top-k ships each flow's sketch; its rank is the sketch's quantile.
  const auto top_reply = ask({.target = transport::Target::kTopK, .k = 10, .q = 0.99});
  ASSERT_TRUE(top_reply.has_value());
  const auto want_top = want.top_k_ranked(10, 0.99);
  ASSERT_EQ(top_reply->entries.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(top_reply->entries[i].flow, want_top[i].second.key) << "rank " << i;
    EXPECT_EQ(top_reply->entries[i].sketch.quantile(0.99), want_top[i].first) << "rank " << i;
  }

  // Per-flow quantile for the worst flow, plus the unseen-flow case.
  transport::Query flow_q{.target = transport::Target::kFlow,
                          .flow = want_top.front().second.key};
  const auto flow_reply = ask(flow_q);
  ASSERT_TRUE(flow_reply.has_value());
  ASSERT_EQ(flow_reply->entries.size(), 1u);
  EXPECT_EQ(flow_reply->entries[0].sketch.quantile(0.99), *want.flow_quantile(flow_q.flow, 0.99));

  flow_q.flow.src_port = 1;  // nobody sends from port 1 in this workload
  flow_q.flow.dst_port = 1;
  const auto miss_reply = ask(flow_q);
  ASSERT_TRUE(miss_reply.has_value());
  EXPECT_TRUE(miss_reply->entries.empty());
}

}  // namespace
}  // namespace rlir
