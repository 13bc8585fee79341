// QueryCoordinator: the merge math in isolation (worst-first top-k merging
// with duplicate resolution, saturating sums, the shared flow summary), then
// the coordinator fanning real queries over loopback connections to live
// agents — answers must equal a single collector that ingested everything,
// including for a flow split across agents and for a fleet with an
// unreachable member (partial truth, never double counting).
#include "transport/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"

namespace rlir::transport {
namespace {

std::vector<collect::EstimateRecord> make_batch(std::size_t n, std::uint32_t epoch,
                                                std::uint64_t seed, std::uint16_t port_base) {
  common::Xoshiro256 rng(seed);
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
    r.key.dst = net::Ipv4Address(10, 1, 0, 1);
    r.key.src_port = static_cast<std::uint16_t>(port_base + i);
    r.key.dst_port = 80;
    r.epoch = epoch;
    r.link = static_cast<collect::LinkId>(i % 2);
    for (int j = 0; j < 30; ++j) r.sketch.add(rng.lognormal(9.0, 1.0));
    records.push_back(std::move(r));
  }
  return records;
}

void expect_same_sketch(const common::LatencySketch& got, const common::LatencySketch& want) {
  EXPECT_EQ(got.bins(), want.bins());
  EXPECT_EQ(got.count(), want.count());
  // Bins and counts merge exactly; the moment sum is a double accumulated
  // in a different order on each side (merge reassociates the additions),
  // so it is equal only up to rounding.
  EXPECT_NEAR(got.sum(), want.sum(), 1e-9 * std::max(1.0, want.sum()));
}

// --- Merge helpers in isolation ---------------------------------------------

TEST(CoordinatorMerge, SaturatingAddClampsAtMax) {
  // Fleet sums (here a scrape roll-up's ring drops) clamp, never wrap.
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  std::vector<obs::Scrape> parts(2);
  parts[0].events.dropped = kMax - 1;
  parts[1].events.dropped = 7;
  const auto merged = merge_scrapes(parts);
  EXPECT_EQ(merged.events.dropped, kMax);
}

collect::RankedFlowSummary ranked(std::uint16_t port, double rank) {
  collect::RankedFlowSummary entry;
  entry.first = rank;
  entry.second.key.src = net::Ipv4Address(10, 0, 0, 1);
  entry.second.key.dst = net::Ipv4Address(10, 1, 0, 1);
  entry.second.key.src_port = port;
  entry.second.key.dst_port = 80;
  entry.second.p99_ns = rank;
  return entry;
}

TEST(CoordinatorMerge, TopKDisjointPartsMergeWorstFirst) {
  const std::vector<std::vector<collect::RankedFlowSummary>> parts = {
      {ranked(1, 900.0), ranked(2, 500.0)},
      {ranked(3, 700.0), ranked(4, 100.0)},
      {ranked(5, 800.0)},
  };
  // Disjoint parts have no duplicate to resolve.
  const FlowResolver never = [](const net::FiveTuple&) {
    ADD_FAILURE() << "resolver called on disjoint parts";
    return std::optional<collect::RankedFlowSummary>{};
  };
  const auto merged = merge_ranked_top_k(parts, 3, never);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].second.key.src_port, 1);
  EXPECT_EQ(merged[1].second.key.src_port, 5);
  EXPECT_EQ(merged[2].second.key.src_port, 3);
  // k larger than the union: everything, still sorted.
  EXPECT_EQ(merge_ranked_top_k(parts, 100, never).size(), 5u);
}

TEST(CoordinatorMerge, TopKDuplicatesResolveExactly) {
  const std::vector<std::vector<collect::RankedFlowSummary>> parts = {
      {ranked(7, 300.0)},
      {ranked(7, 400.0)},
  };
  // The duplicate is re-derived (e.g. from the merged sketch: 300 + 400
  // worth of records might rank at 650).
  auto merged = merge_ranked_top_k(parts, 4, [](const net::FiveTuple& key) {
    return collect::RankedFlowSummary{650.0, collect::FlowSummary{key, 60, 0, 0, 650.0, 0}};
  });
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].first, 650.0);
  EXPECT_EQ(merged[0].second.packets, 60u);

  // A resolver that finds nothing keeps the first part's entry.
  merged = merge_ranked_top_k(parts, 4, [](const net::FiveTuple&) {
    return std::optional<collect::RankedFlowSummary>{};
  });
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].first, 300.0);
}

TEST(CoordinatorMerge, SummarizeFlowMatchesCollectorDerivation) {
  collect::ShardedCollector collector;
  const auto batch = make_batch(5, 0, 7, 2000);
  collector.ingest(batch);
  const auto top = collector.top_k_ranked(5, 0.99);
  ASSERT_EQ(top.size(), 5u);
  for (const auto& [rank, want] : top) {
    const auto* sketch = collector.flow(want.key);
    ASSERT_NE(sketch, nullptr);
    const auto got = collect::summarize(want.key, *sketch);
    EXPECT_EQ(got.packets, want.packets);
    EXPECT_EQ(got.mean_ns, want.mean_ns);
    EXPECT_EQ(got.p50_ns, want.p50_ns);
    EXPECT_EQ(got.p99_ns, want.p99_ns);
    EXPECT_EQ(got.max_ns, want.max_ns);
    EXPECT_EQ(rank, want.p99_ns);  // ranked at q = 0.99
  }
}

// --- The coordinator over live loopback agents ------------------------------

std::uint64_t records_ingested(const obs::MetricsSnapshot& metrics) {
  return obs::counter_total(metrics, "rlir_agent_records_ingested_total");
}

struct AgentPair {
  AgentPair() {
    for (auto& agent : agents) agent = std::make_unique<CollectorAgent>();
  }

  QueryCoordinator::StreamFactory factory(std::size_t i) {
    return [this, i]() -> std::unique_ptr<ByteStream> {
      auto [coord_end, agent_end] = make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      return std::move(coord_end);
    };
  }

  void attach(QueryCoordinator& coord) {
    coord.add_agent(factory(0));
    coord.add_agent(factory(1));
    coord.set_drive([this] {
      agents[0]->poll();
      agents[1]->poll();
    });
  }

  std::array<std::unique_ptr<CollectorAgent>, 2> agents;
};

TEST(QueryCoordinator, MergesDisjointAgentsToSingleCollectorAnswers) {
  // Disjoint flow sets on two agents (what PartitionedClient guarantees),
  // one single collector with everything as ground truth.
  const auto batch_a = make_batch(20, 0, 31, 1000);
  const auto batch_b = make_batch(20, 1, 32, 4000);
  collect::ShardedCollector want;
  want.ingest(batch_a);
  want.ingest(batch_b);

  AgentPair fleet;
  fleet.agents[0]->collector().ingest(batch_a);
  fleet.agents[1]->collector().ingest(batch_b);

  QueryCoordinator coord;
  fleet.attach(coord);
  EXPECT_EQ(coord.agent_count(), 2u);
  EXPECT_EQ(coord.connected_count(), 2u);

  expect_same_sketch(coord.fleet(), want.fleet());

  // Ranked top-k: identical keys, ranks, and summaries.
  const auto got_top = coord.top_k_ranked(10, 0.99);
  const auto want_top = want.top_k_ranked(10, 0.99);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].second.key, want_top[i].second.key) << "rank " << i;
    EXPECT_EQ(got_top[i].first, want_top[i].first) << "rank " << i;
    EXPECT_EQ(got_top[i].second.packets, want_top[i].second.packets) << "rank " << i;
  }

  // Per-flow sketch and quantile, including a flow nobody has seen.
  const auto& probe = batch_b.front().key;
  const auto sketch = coord.flow_sketch(probe);
  ASSERT_TRUE(sketch.has_value());
  expect_same_sketch(*sketch, *want.flow(probe));
  EXPECT_EQ(coord.flow_quantile(probe, 0.5), want.flow_quantile(probe, 0.5));
  net::FiveTuple unseen = probe;
  unseen.dst_port = 9999;
  EXPECT_FALSE(coord.flow_sketch(unseen).has_value());
  EXPECT_FALSE(coord.flow_quantile(unseen, 0.5).has_value());

  // Links: both agents contribute to both links; the union is exact.
  const auto links = coord.link_distributions();
  ASSERT_EQ(links.size(), want.links().size());
  for (const auto& [link, dist] : links) {
    const auto want_dist = want.link_distribution(link);
    ASSERT_TRUE(want_dist.has_value()) << "link " << link;
    expect_same_sketch(dist, *want_dist);
  }

  // Scrape plane: per-agent truth and the saturating fleet sum.
  const auto per_agent = coord.per_agent_scrapes();
  ASSERT_EQ(per_agent.size(), 2u);
  ASSERT_TRUE(per_agent[0].has_value());
  ASSERT_TRUE(per_agent[1].has_value());
  EXPECT_EQ(records_ingested(per_agent[0]->metrics), batch_a.size());
  EXPECT_EQ(records_ingested(per_agent[1]->metrics), batch_b.size());
  EXPECT_EQ(records_ingested(coord.fleet_metrics().metrics), want.records_ingested());
  EXPECT_EQ(coord.stats().agent_failures, 0u);
  EXPECT_EQ(coord.stats().replies_merged, coord.stats().queries_sent);
}

TEST(QueryCoordinator, FlowSplitAcrossAgentsStillAnswersExactly) {
  // The rebalance edge case: the SAME flows have records on both agents.
  // Quantiles and top-k must still equal the single-collector answers —
  // via the merged flow sketch, never by double counting summaries.
  const auto batch_a = make_batch(10, 0, 41, 1000);
  const auto batch_b = make_batch(10, 1, 42, 1000);  // same keys, new samples
  collect::ShardedCollector want;
  want.ingest(batch_a);
  want.ingest(batch_b);
  ASSERT_EQ(want.flow_count(), 10u);  // genuinely overlapping

  AgentPair fleet;
  fleet.agents[0]->collector().ingest(batch_a);
  fleet.agents[1]->collector().ingest(batch_b);
  QueryCoordinator coord;
  fleet.attach(coord);

  // k covering every flow: each agent's list then contains all candidates,
  // so the merged answer is exactly answerable even though the flows'
  // local ranks differ wildly from their true combined ranks. (For k <
  // flow_count over OVERLAPPING partitions no coordinator can promise
  // containment — that's why PartitionedClient keeps partitions disjoint.)
  const auto got_top = coord.top_k_ranked(10, 0.99);
  const auto want_top = want.top_k_ranked(10, 0.99);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].second.key, want_top[i].second.key) << "rank " << i;
    EXPECT_EQ(got_top[i].first, want_top[i].first) << "rank " << i;
    EXPECT_EQ(got_top[i].second.packets, want_top[i].second.packets) << "rank " << i;
  }
  const auto& probe = batch_a.front().key;
  expect_same_sketch(*coord.flow_sketch(probe), *want.flow(probe));
  EXPECT_EQ(coord.flow_quantile(probe, 0.99), want.flow_quantile(probe, 0.99));
}

TEST(QueryCoordinator, UnreachableAgentYieldsPartialTruth) {
  const auto batch = make_batch(15, 0, 51, 1000);
  collect::ShardedCollector want;
  want.ingest(batch);

  CollectorAgent live;
  live.collector().ingest(batch);
  QueryCoordinatorConfig cfg;
  cfg.reply_rounds = 32;  // the dead agent times out quickly
  QueryCoordinator coord(cfg);
  coord.add_agent([&live]() -> std::unique_ptr<ByteStream> {
    auto [coord_end, agent_end] = make_loopback();
    live.add_connection(std::move(agent_end));
    return std::move(coord_end);
  });
  coord.add_agent([]() -> std::unique_ptr<ByteStream> { return nullptr; });
  coord.set_drive([&live] { live.poll(); });

  // Answers cover the reachable fleet exactly; the miss is counted.
  expect_same_sketch(coord.fleet(), want.fleet());
  EXPECT_GE(coord.stats().agent_failures, 1u);
  const auto per_agent = coord.per_agent_scrapes();
  ASSERT_EQ(per_agent.size(), 2u);
  EXPECT_TRUE(per_agent[0].has_value());
  EXPECT_FALSE(per_agent[1].has_value());
  EXPECT_EQ(records_ingested(coord.fleet_metrics().metrics), batch.size());

  QueryCoordinatorConfig zero_rounds;
  zero_rounds.reply_rounds = 0;
  EXPECT_THROW(QueryCoordinator{zero_rounds}, std::invalid_argument);
}

}  // namespace
}  // namespace rlir::transport
