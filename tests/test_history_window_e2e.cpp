// Time-travel acceptance bar: the SAME FatTreeSim workload, history kept
// two ways —
//
//   baseline:     every epoch batch ingested into ONE SketchHistoryStore
//   partitioned:  flow-hash spray across 4 CollectorAgents, each with its
//                 own store; QueryCoordinator merges windowed replies
//
// — must answer every window query bin for bin identically. Partitioning
// changes WHERE history is retained, never WHAT the fleet remembers. Proven
// over loopback pipes (deterministic, every flow probed) and real Unix
// sockets (agents on threads, kernel in the path). raw_epochs exceeds the
// workload's epoch count so retention is exact; completeness is NOT
// asserted for the fleet — a sprayed agent legitimately first sees an epoch
// later than the baseline, and the coordinator labels that honestly. (The rest
// of the window codec's round-trips live in test_transport_query.cpp.)
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "collect/history.h"
#include "fleet_workload.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/messages.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

constexpr std::size_t kAgents = 4;

collect::HistoryConfig history_config() {
  collect::HistoryConfig cfg;
  cfg.raw_epochs = 256;  // > workload epochs: fully raw, retention exact
  return cfg;
}

transport::CollectorAgentConfig agent_config() {
  transport::CollectorAgentConfig cfg;
  cfg.collector.shard_count = testutil::kWorkloadShards;
  cfg.enable_history = true;
  cfg.history = history_config();
  return cfg;
}

/// The ground truth: one store fed every record of the workload.
struct BaselineHistory {
  collect::SketchHistoryStore store{history_config()};
  collect::ShardedCollector collector;

  BaselineHistory()
      : collector([] {
          collect::CollectorConfig cfg;
          cfg.shard_count = testutil::kWorkloadShards;
          return cfg;
        }()) {}

  collect::EpochScheduler::BatchSink make_sink() {
    // Only records seal epochs, in the baseline as in the sprayed agents, so
    // both retain the same range. Both stores ingest each record, as an
    // agent tees each batch.
    return [this](std::uint32_t, const std::vector<collect::EstimateRecord>& batch) {
      for (const auto& r : batch) {
        collector.ingest({r});
        store.ingest({r});
      }
    };
  }
};

/// Coordinator window answers vs the baseline store, over a sweep of
/// windows: full span, single epochs, and straddles. `flow_probe_limit`
/// bounds the per-flow sweep (each probe is a full fan-out).
void expect_windows_match(transport::QueryCoordinator& coord,
                          BaselineHistory& baseline,
                          std::size_t flow_probe_limit) {
  const auto first = baseline.store.first_retained_epoch();
  const auto last = baseline.store.last_epoch();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(last.has_value());
  ASSERT_GT(*last, *first + 2) << "workload produced too few epochs to straddle";

  const std::uint32_t mid = *first + (*last - *first) / 2;
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> windows = {
      {*first, *last},          // everything
      {*first, *first},         // oldest epoch alone
      {*last, *last},           // newest epoch alone
      {*first, mid},            // first half
      {mid, *last},             // second half
      {*first + 1, *last - 1},  // interior straddle
  };

  for (const auto& [w_first, w_last] : windows) {
    collect::WindowCoverage want_cov;
    const auto want_fleet = baseline.store.window_fleet(w_first, w_last, &want_cov);
    ASSERT_TRUE(want_cov.covered);

    // Fleet union: bin for bin, and the coverage roll-up agrees on bounds
    // and total records (each record is retained by exactly one agent).
    const auto got = coord.window_fleet(w_first, w_last);
    ASSERT_TRUE(got.window.covered) << "[" << w_first << ", " << w_last << "]";
    ASSERT_TRUE(got.sketch.has_value());
    EXPECT_EQ(got.sketch->bins(), want_fleet.bins()) << "[" << w_first << ", " << w_last << "]";
    EXPECT_EQ(got.sketch->count(), want_fleet.count());
    EXPECT_EQ(got.window.first, want_cov.first);
    EXPECT_EQ(got.window.last, want_cov.last);
    EXPECT_EQ(got.window.records, want_cov.records);

    // Every vantage's windowed distribution.
    for (const auto& [link, want_sketch] : baseline.store.window_links(w_first, w_last)) {
      const auto got_link = coord.window_link(link, w_first, w_last);
      ASSERT_TRUE(got_link.sketch.has_value()) << "link " << link;
      EXPECT_EQ(got_link.sketch->bins(), want_sketch.bins()) << "link " << link;
      EXPECT_EQ(got_link.sketch->count(), want_sketch.count()) << "link " << link;
    }

    // Per-flow windowed sketches and p99 — THE acceptance criterion: the
    // partitioned fleet's windowed p99 is bin-for-bin the single store's.
    const auto flows = baseline.store.window_flow_sketches(w_first, w_last);
    ASSERT_FALSE(flows.empty());
    std::size_t probed = 0;
    for (const auto& [key, listed] : flows) {
      if (probed++ == flow_probe_limit) break;
      const auto want_sketch = baseline.store.window_flow(w_first, w_last, key);
      ASSERT_TRUE(want_sketch.has_value()) << key.to_string();
      EXPECT_EQ(listed.bins(), want_sketch->bins()) << key.to_string();
      const auto got_sketch = coord.window_flow_sketch(key, w_first, w_last);
      ASSERT_TRUE(got_sketch.sketch.has_value()) << key.to_string();
      EXPECT_EQ(got_sketch.sketch->bins(), want_sketch->bins()) << key.to_string();

      const auto got_p99 = coord.window_flow_quantile(key, 0.99, w_first, w_last);
      ASSERT_TRUE(got_p99.has_value()) << key.to_string();
      EXPECT_DOUBLE_EQ(*got_p99, want_sketch->quantile(0.99)) << key.to_string();
    }
  }

  // A window beyond retained time is honestly uncovered fleet-wide.
  const auto future = coord.window_fleet(*last + 1000, *last + 2000);
  EXPECT_FALSE(future.window.covered);
  EXPECT_FALSE(future.sketch.has_value());
}

TEST(HistoryWindowE2E, PartitionedLoopbackFleetAnswersWindowsLikeOneStore) {
  BaselineHistory baseline;
  testutil::run_fleet_workload({baseline.make_sink()}, [] {});
  ASSERT_GT(baseline.store.records_ingested(), 0u);

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
  ASSERT_EQ(pc.records_shed(), 0u);

  // Conservation: the fleet's stores retain exactly the baseline's records.
  std::uint64_t retained = 0;
  for (auto& agent : agents) {
    ASSERT_NE(agent->history(), nullptr);
    EXPECT_EQ(agent->history()->dropped_records(), 0u);
    retained += agent->history()->records_ingested();
  }
  EXPECT_EQ(retained, baseline.store.records_ingested());

  transport::QueryCoordinator coord;
  for (std::size_t i = 0; i < kAgents; ++i) coord.add_agent(factory(i));
  coord.set_drive(poll_all);
  ASSERT_EQ(coord.connected_count(), kAgents);
  expect_windows_match(coord, baseline, baseline.store.window_flow_sketches(0, 1u << 30).size());
}

TEST(HistoryWindowE2E, PartitionedUnixSocketFleetAnswersWindowsLikeOneStore) {
  std::vector<std::unique_ptr<transport::SocketListener>> listeners;
  std::vector<transport::SocketAddress> addresses;
  for (std::size_t i = 0; i < kAgents; ++i) {
    const std::string path = ::testing::TempDir() + "rlir_hw_" +
                             std::to_string(::getpid()) + "_" + std::to_string(i) + ".sock";
    try {
      listeners.push_back(std::make_unique<transport::SocketListener>(
          transport::SocketAddress::unix_path(path)));
    } catch (const std::system_error&) {
      GTEST_SKIP() << "sandbox forbids unix sockets";
    }
    addresses.push_back(listeners.back()->address());
  }

  BaselineHistory baseline;
  testutil::run_fleet_workload({baseline.make_sink()}, [] {});

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
    ASSERT_EQ(pc.records_shed(), 0u);
  }

  {
    transport::QueryCoordinator coord;
    for (std::size_t i = 0; i < kAgents; ++i) {
      coord.add_agent([address = addresses[i]]() { return transport::connect_to(address); });
    }
    ASSERT_EQ(coord.connected_count(), kAgents);
    expect_windows_match(coord, baseline, 10);  // loopback run swept all flows
  }

  stop.store(true);
  for (auto& thread : threads) thread.join();
}

TEST(HistoryWindowE2E, WindowQueryCodecRoundTrips) {
  transport::Query q{.target = transport::Target::kFlow,
                     .flow = {net::Ipv4Address(10, 3, 0, 1),
                              net::Ipv4Address(192, 168, 1, 1), 6001, 443},
                     .q = 0.95,
                     .window = transport::EpochWindow{3, 1u << 20}};
  const auto bytes = transport::encode_query(q);
  const auto back = transport::decode_query(bytes.data(), bytes.size());
  EXPECT_EQ(back.target, q.target);
  EXPECT_EQ(back.q, q.q);
  EXPECT_EQ(back.flow, q.flow);
  ASSERT_TRUE(back.window.has_value());
  EXPECT_EQ(back.window->first, 3u);
  EXPECT_EQ(back.window->last, 1u << 20);

  // Reversed windows are rejected at decode, not guessed at.
  q.window = transport::EpochWindow{10, 3};
  const auto bad = transport::encode_query(q);
  EXPECT_THROW((void)transport::decode_query(bad.data(), bad.size()), std::runtime_error);
}

}  // namespace
}  // namespace rlir
