// Property-style exactness of partitioned collection: a seeded random
// record stream split across 1/2/4/8 partitions must merge back to
// bin-for-bin the same fleet sketch, link distributions, per-flow
// quantiles, and ranked top-k as the unpartitioned collector — under the
// flow-disjoint split PartitionedClient produces AND (for everything the
// resolver path covers) under an adversarial random per-record scatter.
// Failures log the seed so a run is reproducible.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collect/sharded_collector.h"
#include "common/rng.h"
#include "net/hash.h"
#include "transport/coordinator.h"

namespace rlir::transport {
namespace {

/// A random stream: `flows` distinct five-tuples, `n` records drawn over
/// them with random links, epochs, and sketch payloads.
std::vector<collect::EstimateRecord> random_records(std::uint64_t seed, std::size_t flows,
                                                    std::size_t n) {
  common::Xoshiro256 rng(seed);
  std::vector<net::FiveTuple> keys;
  for (std::size_t i = 0; i < flows; ++i) {
    net::FiveTuple key;
    key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform_u64(4)),
                               static_cast<std::uint8_t>(rng.uniform_u64(250)));
    key.dst = net::Ipv4Address(10, 1, 0, static_cast<std::uint8_t>(rng.uniform_u64(250)));
    key.src_port = static_cast<std::uint16_t>(1024 + rng.uniform_u64(50000));
    key.dst_port = static_cast<std::uint16_t>(rng.bernoulli(0.5) ? 80 : 443);
    keys.push_back(key);
  }
  std::vector<collect::EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    collect::EstimateRecord r;
    r.key = keys[rng.uniform_u64(keys.size())];
    r.link = static_cast<collect::LinkId>(rng.uniform_u64(5));
    r.epoch = static_cast<std::uint32_t>(rng.uniform_u64(8));
    const std::size_t samples = 1 + rng.uniform_u64(40);
    for (std::size_t s = 0; s < samples; ++s) r.sketch.add(rng.lognormal(9.0, 1.5));
    records.push_back(std::move(r));
  }
  return records;
}

void expect_same_sketch(const common::LatencySketch& got, const common::LatencySketch& want) {
  EXPECT_EQ(got.bins(), want.bins());
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.zero_count(), want.zero_count());
}

/// Merged flow sketch across partitions (nullopt = no partition saw it).
std::optional<common::LatencySketch> merged_flow(
    const std::vector<collect::ShardedCollector>& parts, const net::FiveTuple& key) {
  std::vector<common::LatencySketch> sketches;
  for (const auto& part : parts) {
    if (const auto* sketch = part.flow(key)) sketches.push_back(*sketch);
  }
  if (sketches.empty()) return std::nullopt;
  return merge_fleet_sketches(sketches);
}

/// Runs every merge-exactness assertion for one split of `records`.
/// `disjoint` gates the k < flow_count top-k check (only answerable when
/// each flow's records live in one partition).
void check_split(const std::vector<collect::ShardedCollector>& parts,
                 collect::ShardedCollector& want,
                 const std::vector<collect::EstimateRecord>& records, bool disjoint) {
  // Fleet distribution: exact union.
  std::vector<common::LatencySketch> fleet_parts;
  for (const auto& part : parts) fleet_parts.push_back(part.fleet());
  expect_same_sketch(merge_fleet_sketches(fleet_parts), want.fleet());

  // Link distributions: exact union per link.
  for (const auto link : want.links()) {
    std::vector<common::LatencySketch> link_parts;
    for (const auto& part : parts) {
      if (auto dist = part.link_distribution(link)) link_parts.push_back(std::move(*dist));
    }
    ASSERT_FALSE(link_parts.empty()) << "link " << link << " lost in the split";
    expect_same_sketch(merge_fleet_sketches(link_parts), *want.link_distribution(link));
  }

  // Per-flow sketches and quantiles: bin-for-bin and value-exact.
  for (const auto& r : records) {
    const auto got = merged_flow(parts, r.key);
    ASSERT_TRUE(got.has_value()) << r.key.to_string();
    expect_same_sketch(*got, *want.flow(r.key));
    for (const double q : {0.5, 0.9, 0.99}) {
      EXPECT_EQ(got->quantile(q), *want.flow_quantile(r.key, q)) << r.key.to_string();
    }
  }

  const FlowResolver resolve = [&parts](const net::FiveTuple& key)
      -> std::optional<collect::RankedFlowSummary> {
    const auto sketch = merged_flow(parts, key);
    if (!sketch.has_value()) return std::nullopt;
    return collect::RankedFlowSummary{sketch->quantile(0.99), collect::summarize(key, *sketch)};
  };

  // Ranked top-k. Disjoint split: the global top-k is contained in the
  // union of per-part top-k lists, so small k is exactly answerable.
  // Overlapping split: only k = flow_count guarantees containment; the
  // resolver then rebuilds every rank exactly from merged sketches.
  for (const std::size_t k :
       disjoint ? std::vector<std::size_t>{1, 5, 10} : std::vector<std::size_t>{}) {
    std::vector<std::vector<collect::RankedFlowSummary>> top_parts;
    for (const auto& part : parts) top_parts.push_back(part.top_k_ranked(k, 0.99));
    const auto got = merge_ranked_top_k(top_parts, k, resolve);
    const auto expect = want.top_k_ranked(k, 0.99);
    ASSERT_EQ(got.size(), expect.size()) << "k=" << k;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].second.key, expect[i].second.key) << "k=" << k << " rank " << i;
      EXPECT_EQ(got[i].first, expect[i].first) << "k=" << k << " rank " << i;
      EXPECT_EQ(got[i].second.packets, expect[i].second.packets) << "k=" << k << " rank " << i;
    }
  }
  {
    const std::size_t k = want.flow_count();
    std::vector<std::vector<collect::RankedFlowSummary>> top_parts;
    for (const auto& part : parts) top_parts.push_back(part.top_k_ranked(k, 0.99));
    const auto got = merge_ranked_top_k(top_parts, k, resolve);
    const auto expect = want.top_k_ranked(k, 0.99);
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i].second.key, expect[i].second.key) << "rank " << i;
      EXPECT_EQ(got[i].first, expect[i].first) << "rank " << i;
    }
  }
}

TEST(PartitionedMergeProperty, FlowDisjointSplitsMergeBackExactly) {
  for (const std::uint64_t seed : {101ULL, 202ULL, 303ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto records = random_records(seed, 60, 400);
    collect::ShardedCollector want;
    want.ingest(records);

    for (const std::size_t partitions : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                         std::size_t{8}}) {
      SCOPED_TRACE("partitions=" + std::to_string(partitions));
      // The PartitionedClient split: one extra mix64 round over the flow
      // hash, every flow wholly inside one partition.
      std::vector<collect::ShardedCollector> parts(partitions);
      for (const auto& r : records) {
        parts[net::mix64(r.key.hash()) % partitions].ingest({r});
      }
      check_split(parts, want, records, /*disjoint=*/true);
    }
  }
}

TEST(PartitionedMergeProperty, RandomScatterStillMergesSketchesExactly) {
  // Adversarial split: records of one flow scattered at random (what a
  // mid-stream rebalance can produce transiently). Sketch unions and
  // resolver-backed top-k remain exact; only small-k containment is gone.
  for (const std::uint64_t seed : {7ULL, 8ULL}) {
    SCOPED_TRACE("seed=" + std::to_string(seed));
    const auto records = random_records(seed, 40, 300);
    collect::ShardedCollector want;
    want.ingest(records);

    common::Xoshiro256 scatter(seed ^ 0xabcdef);
    std::vector<collect::ShardedCollector> parts(4);
    for (const auto& r : records) parts[scatter.uniform_u64(parts.size())].ingest({r});
    check_split(parts, want, records, /*disjoint=*/false);
  }
}

}  // namespace
}  // namespace rlir::transport
