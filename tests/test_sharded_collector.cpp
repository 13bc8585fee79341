// ShardedCollector: hash routing, cross-shard/epoch merging, the query API
// (flow quantiles, link distributions, fleet union, top-k), the epoch
// accounting against a set oracle, and the bounded-memory accounting.
#include "collect/sharded_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "common/rng.h"

namespace rlir::collect {
namespace {

net::FiveTuple make_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 1);
  key.src_port = static_cast<std::uint16_t>(2000 + i);
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

EstimateRecord make_record(std::uint32_t flow, LinkId link, std::uint32_t epoch,
                           double latency_base, common::Xoshiro256& rng, int samples = 100) {
  EstimateRecord r;
  r.key = make_key(flow);
  r.link = link;
  r.epoch = epoch;
  for (int i = 0; i < samples; ++i) r.sketch.add(latency_base * rng.uniform(0.5, 1.5));
  return r;
}

/// top_k_ranked(k, q) must equal the full scan key for key and value for
/// value: every summary field, and a ranking value that is the flow's own
/// quantile.
void expect_top_k_matches_scan(const ShardedCollector& collector, std::size_t k, double q,
                               const char* what) {
  const auto ranked = collector.top_k_ranked(k, q);
  const auto scan = collector.top_k_flows_scan(k, q);
  ASSERT_EQ(ranked.size(), scan.size()) << what << " k=" << k << " q=" << q;
  for (std::size_t i = 0; i < ranked.size(); ++i) {
    const auto& [value, got] = ranked[i];
    const auto& want = scan[i];
    ASSERT_EQ(got.key, want.key) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(got.packets, want.packets) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(got.mean_ns, want.mean_ns) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(got.p50_ns, want.p50_ns) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(got.p99_ns, want.p99_ns) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(got.max_ns, want.max_ns) << what << " k=" << k << " rank " << i;
    EXPECT_EQ(value, collector.flow_quantile(got.key, q)) << what << " k=" << k << " rank " << i;
  }
}

TEST(ShardedCollectorTest, ZeroShardsThrows) {
  EXPECT_THROW(ShardedCollector(CollectorConfig{0}), std::invalid_argument);
}

TEST(ShardedCollectorTest, FlowQueriesMatchDirectSketch) {
  common::Xoshiro256 rng(21);
  ShardedCollector collector;
  auto r = make_record(7, 0, 0, 50e3, rng);
  collector.ingest({r});

  const auto* sketch = collector.flow(r.key);
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->count(), r.sketch.count());
  EXPECT_EQ(sketch->bins(), r.sketch.bins());
  EXPECT_EQ(collector.flow_quantile(r.key, 0.5), r.sketch.quantile(0.5));

  const auto summary = collector.flow_summary(r.key);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->packets, r.sketch.count());
  EXPECT_EQ(summary->p99_ns, r.sketch.quantile(0.99));

  EXPECT_EQ(collector.flow(make_key(999)), nullptr);
  EXPECT_FALSE(collector.flow_quantile(make_key(999), 0.5).has_value());
}

TEST(ShardedCollectorTest, RecordsForSameFlowMergeAcrossLinksAndEpochs) {
  common::Xoshiro256 rng(22);
  ShardedCollector collector;
  auto a = make_record(1, /*link=*/0, /*epoch=*/0, 40e3, rng);
  auto b = make_record(1, /*link=*/3, /*epoch=*/1, 90e3, rng);
  collector.ingest({a});
  collector.ingest({b});

  auto direct = a.sketch;
  direct.merge(b.sketch);
  const auto* sketch = collector.flow(a.key);
  ASSERT_NE(sketch, nullptr);
  EXPECT_EQ(sketch->bins(), direct.bins());
  EXPECT_EQ(sketch->count(), direct.count());
  EXPECT_EQ(collector.epoch_count(), 2u);
  EXPECT_EQ(collector.flow_count(), 1u);
}

TEST(ShardedCollectorTest, EpochsMatchASetOracle) {
  // Shuffled runs with gaps, random repeats, and both ends of the u32 range,
  // spread over several shards by flow: the per-shard runs must answer
  // exactly as one set of every epoch would.
  common::Xoshiro256 rng(29);
  CollectorConfig config;
  config.shard_count = 4;
  ShardedCollector collector(config);
  std::vector<std::uint32_t> epochs;
  for (std::uint32_t e = 100; e < 400; ++e) {
    if (e % 7 != 3) epochs.push_back(e);
  }
  for (int i = 0; i < 300; ++i) {
    epochs.push_back(static_cast<std::uint32_t>(rng.uniform_u64(1000)));
  }
  for (const std::uint32_t e : {0xfffffffdu, 0xfffffffeu, 0xffffffffu, 0u, 1u}) {
    epochs.push_back(e);
  }
  std::shuffle(epochs.begin(), epochs.end(), rng);

  std::set<std::uint32_t> oracle;
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    const auto flow = static_cast<std::uint32_t>(i % 16);
    collector.ingest({make_record(flow, 0, epochs[i], 1e3, rng, 1)});
    oracle.insert(epochs[i]);
    if (i % 50 == 0) {
      ASSERT_EQ(collector.epoch_count(), oracle.size()) << i;
    }
  }
  EXPECT_EQ(collector.epochs_seen(), std::vector<std::uint32_t>(oracle.begin(), oracle.end()));
  EXPECT_EQ(collector.epoch_count(), oracle.size());
  EXPECT_EQ(collector.snapshot().epochs_seen(), collector.epochs_seen());
}

TEST(ShardedCollectorTest, EpochRunsDoNotMergeAcrossTheWrap) {
  // 2^32 - 1 and 0 are not neighbours, in either arrival order.
  for (const auto& order : {std::vector<std::uint32_t>{0xfffffffeu, 0xffffffffu, 0u},
                            std::vector<std::uint32_t>{0u, 0xffffffffu, 0xfffffffeu},
                            std::vector<std::uint32_t>{0xffffffffu, 0u, 0xfffffffeu}}) {
    common::Xoshiro256 rng(31);
    ShardedCollector collector(CollectorConfig{1});
    for (const std::uint32_t e : order) collector.ingest({make_record(1, 0, e, 1e3, rng, 1)});
    EXPECT_EQ(collector.epochs_seen(),
              (std::vector<std::uint32_t>{0u, 0xfffffffeu, 0xffffffffu}));
    EXPECT_EQ(collector.epoch_count(), 3u);
  }
}

TEST(ShardedCollectorTest, ShardingSpreadsFlowsDeterministically) {
  common::Xoshiro256 rng(23);
  CollectorConfig config;
  config.shard_count = 4;
  ShardedCollector collector(config);
  for (std::uint32_t i = 0; i < 200; ++i) {
    collector.ingest({make_record(i, 0, 0, 60e3, rng, 5)});
  }
  EXPECT_EQ(collector.flow_count(), 200u);
  const auto counts = collector.shard_flow_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (std::size_t c : counts) {
    EXPECT_GT(c, 0u);  // 200 hashed flows never all land in 3 of 4 shards
    total += c;
  }
  EXPECT_EQ(total, 200u);
  // Routing is pure hash: flow i's shard is key.hash() % shards.
  for (std::uint32_t i = 0; i < 200; i += 17) {
    EXPECT_NE(collector.flow(make_key(i)), nullptr);
  }
}

TEST(ShardedCollectorTest, LinkAndFleetDistributions) {
  common::Xoshiro256 rng(24);
  ShardedCollector collector;
  // Link 0: fast (10us base); link 1: slow (200us base).
  common::LatencySketch link0_direct, link1_direct;
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto r = make_record(i, 0, 0, 10e3, rng, 20);
    link0_direct.merge(r.sketch);
    collector.ingest({r});
  }
  for (std::uint32_t i = 50; i < 80; ++i) {
    auto r = make_record(i, 1, 0, 200e3, rng, 20);
    link1_direct.merge(r.sketch);
    collector.ingest({r});
  }

  EXPECT_EQ(collector.links(), (std::vector<LinkId>{0, 1}));
  const auto link0 = collector.link_distribution(0);
  const auto link1 = collector.link_distribution(1);
  ASSERT_TRUE(link0.has_value());
  ASSERT_TRUE(link1.has_value());
  EXPECT_EQ(link0->bins(), link0_direct.bins());
  EXPECT_EQ(link1->bins(), link1_direct.bins());
  EXPECT_LT(link0->quantile(0.99), link1->quantile(0.01));
  EXPECT_FALSE(collector.link_distribution(42).has_value());

  auto fleet_direct = link0_direct;
  fleet_direct.merge(link1_direct);
  const auto fleet = collector.fleet();
  EXPECT_EQ(fleet.bins(), fleet_direct.bins());
  EXPECT_EQ(fleet.count(), fleet_direct.count());
}

TEST(ShardedCollectorTest, TopKWorstFlows) {
  common::Xoshiro256 rng(25);
  ShardedCollector collector;
  // 20 ordinary flows around 50us, 3 outliers at distinct high latencies.
  for (std::uint32_t i = 0; i < 20; ++i) collector.ingest({make_record(i, 0, 0, 50e3, rng)});
  collector.ingest({make_record(100, 0, 0, 900e3, rng)});
  collector.ingest({make_record(101, 0, 0, 700e3, rng)});
  collector.ingest({make_record(102, 0, 0, 500e3, rng)});

  const auto top = collector.top_k_flows(3, 0.99);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, make_key(100));
  EXPECT_EQ(top[1].key, make_key(101));
  EXPECT_EQ(top[2].key, make_key(102));
  EXPECT_GT(top[0].p99_ns, top[1].p99_ns);

  // k larger than the flow count returns everything, still sorted.
  const auto all = collector.top_k_flows(1000, 0.99);
  EXPECT_EQ(all.size(), collector.flow_count());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_GE(all[i - 1].p99_ns, all[i].p99_ns);
  }
}

TEST(ShardedCollectorTest, TopKIndexMatchesFullScanOn10kRandomFlows) {
  // The acceptance bar for the shards' cached top-k answers: on a 10k-flow
  // randomized workload with repeated per-flow updates (quantiles move both
  // up and down as records merge), the cached path must return exactly
  // what the full scan returns — same flows, same order, same values — for
  // every k, whether a shard re-scans or answers from its cache.
  common::Xoshiro256 rng(31);
  CollectorConfig config;
  config.shard_count = 8;
  ShardedCollector collector(config);
  constexpr std::uint32_t kFlows = 10'000;
  // Two passes so ~every flow gets a second record whose random base can be
  // far above or below the first — the update path, not just inserts.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint32_t i = 0; i < kFlows; ++i) {
      collector.ingest(
          {make_record(i, i % 5, pass, rng.uniform(5e3, 500e3), rng, /*samples=*/4)});
    }
  }
  ASSERT_EQ(collector.flow_count(), kFlows);

  for (const std::size_t k : {std::size_t{1}, std::size_t{10}, std::size_t{100},
                              std::size_t{2'000}, std::size_t{20'000}}) {
    const auto fast = collector.top_k_flows(k, 0.99);
    const auto scan = collector.top_k_flows_scan(k, 0.99);
    ASSERT_EQ(fast.size(), scan.size()) << "k=" << k;
    for (std::size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].key, scan[i].key) << "k=" << k << " rank " << i;
      ASSERT_EQ(fast[i].p99_ns, scan[i].p99_ns) << "k=" << k << " rank " << i;
      ASSERT_EQ(fast[i].packets, scan[i].packets) << "k=" << k << " rank " << i;
    }
  }

  // The index is keyed on the quantile asked: switching quantiles re-ranks
  // every shard, and switching back re-ranks again. Each answer matches the
  // scan key for key, and each ranking value is the flow's own quantile.
  for (const double q : {0.5, 0.99, 0.5}) {
    const auto ranked = collector.top_k_ranked(25, q);
    const auto scan = collector.top_k_flows_scan(25, q);
    ASSERT_EQ(ranked.size(), scan.size()) << "q=" << q;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      const auto& [value, summary] = ranked[i];
      ASSERT_EQ(summary.key, scan[i].key) << "q=" << q << " rank " << i;
      const auto want = collector.flow_quantile(summary.key, q);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(value, *want) << "q=" << q << " rank " << i;
    }
  }

  // A larger k, then smaller ones: each shard's cached answer for the
  // larger k serves the smaller ones.
  for (const std::size_t k : {std::size_t{500}, std::size_t{40}, std::size_t{3},
                              std::size_t{0}}) {
    expect_top_k_matches_scan(collector, k, 0.99, "smaller k");
  }

  // One record creates a new worst flow in one shard: that shard re-scans,
  // the others answer from their caches, and the new flow leads.
  const auto worst = make_record(kFlows, 0, 2, 50e6, rng, /*samples=*/4);
  collector.ingest({worst});
  ASSERT_EQ(collector.top_k_flows(10, 0.99).front().key, worst.key);
  for (const std::size_t k : {std::size_t{10}, std::size_t{1}, std::size_t{100}}) {
    expect_top_k_matches_scan(collector, k, 0.99, "new worst flow");
  }

  // A snapshot answers the same, from its own first scans.
  const ShardedCollector copy = collector.snapshot();
  for (const double q : {0.99, 0.5}) {
    for (const std::size_t k : {std::size_t{100}, std::size_t{10}, std::size_t{20'000}}) {
      expect_top_k_matches_scan(copy, k, q, "snapshot");
    }
  }
  EXPECT_EQ(copy.top_k_flows(1, 0.99).front().key, worst.key);
}

TEST(ShardedCollectorTest, MemoryIsBoundedBySketchSizeNotSamples) {
  common::Xoshiro256 rng(27);
  ShardedCollector collector;
  // One flow, a million estimates over 19 decades (about 2,190 bins at 1%,
  // more than the budget): resident bytes must stay O(bins).
  EstimateRecord r;
  r.key = make_key(1);
  for (int i = 0; i < 1'000'000; ++i) r.sketch.add(std::pow(10.0, rng.uniform(-2.0, 17.0)));
  ASSERT_GT(r.sketch.collapses(), 0u);
  collector.ingest({r});
  EXPECT_EQ(collector.estimates_ingested(), 1'000'000u);
  const auto* sketch = collector.flow(make_key(1));
  ASSERT_NE(sketch, nullptr);
  constexpr std::size_t kMaxBins = common::LatencySketchConfig::max_bins;
  EXPECT_LE(sketch->bin_count(), kMaxBins);
  // Generous per-bin envelope (map node overhead), nowhere near 1M samples.
  EXPECT_LT(collector.approx_flow_bytes(), kMaxBins * 64 + 256);
}

}  // namespace
}  // namespace rlir::collect
