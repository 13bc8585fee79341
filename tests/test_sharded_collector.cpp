// ShardedCollector: hash routing, cross-shard/epoch/replica merging, the
// query API (flow quantiles, link distributions, fleet union, top-k), and
// the bounded-memory accounting.
#include "collect/sharded_collector.h"

#include <gtest/gtest.h>

#include <thread>
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
  r.sender = 1;
  for (int i = 0; i < samples; ++i) r.sketch.add(latency_base * rng.uniform(0.5, 1.5));
  return r;
}

TEST(ShardedCollectorTest, ZeroShardsThrows) {
  EXPECT_THROW(ShardedCollector(CollectorConfig{0, {}}), std::invalid_argument);
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
  // The acceptance bar for the ingest-maintained rank index: on a 10k-flow
  // randomized workload with repeated per-flow updates (quantiles move both
  // up and down as records merge), the O(k·shards) heap path must return
  // exactly what the full scan returns — same flows, same order, same
  // values — for every k.
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
}

TEST(ShardedCollectorTest, TopKIndexSurvivesReplicaMerge) {
  // merge() routes through the same index maintenance as ingest(); the
  // merged collector's heap path must agree with its scan path.
  common::Xoshiro256 rng(32);
  ShardedCollector a(CollectorConfig{4, {}});
  ShardedCollector b(CollectorConfig{2, {}});
  for (std::uint32_t i = 0; i < 300; ++i) {
    (i % 2 == 0 ? a : b)
        .ingest({make_record(i % 90, 0, 0, rng.uniform(10e3, 300e3), rng, 8)});
  }
  a.merge(b);
  const auto fast = a.top_k_flows(15, 0.99);
  const auto scan = a.top_k_flows_scan(15, 0.99);
  ASSERT_EQ(fast.size(), scan.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].key, scan[i].key) << "rank " << i;
    EXPECT_EQ(fast[i].p99_ns, scan[i].p99_ns) << "rank " << i;
  }
}

TEST(ShardedCollectorTest, ReplicaMergeEqualsSingleCollector) {
  // Two collector replicas (different shard counts, interleaved batches)
  // merged together must equal one collector that saw every record.
  common::Xoshiro256 rng_a(26);
  std::vector<EstimateRecord> records;
  for (std::uint32_t i = 0; i < 60; ++i) {
    records.push_back(make_record(i % 25, i % 4, i % 3, 30e3 + 1e3 * i, rng_a, 30));
  }

  ShardedCollector whole(CollectorConfig{8, {}});
  whole.ingest(records);

  ShardedCollector replica_a(CollectorConfig{8, {}});
  ShardedCollector replica_b(CollectorConfig{3, {}});
  for (std::size_t i = 0; i < records.size(); ++i) {
    (i % 2 == 0 ? replica_a : replica_b).ingest({records[i]});
  }
  replica_a.merge(replica_b);

  EXPECT_EQ(replica_a.flow_count(), whole.flow_count());
  EXPECT_EQ(replica_a.records_ingested(), whole.records_ingested());
  EXPECT_EQ(replica_a.estimates_ingested(), whole.estimates_ingested());
  EXPECT_EQ(replica_a.epoch_count(), whole.epoch_count());
  for (std::uint32_t i = 0; i < 25; ++i) {
    const auto* merged = replica_a.flow(make_key(i));
    const auto* direct = whole.flow(make_key(i));
    ASSERT_NE(merged, nullptr);
    ASSERT_NE(direct, nullptr);
    EXPECT_EQ(merged->bins(), direct->bins()) << "flow " << i;
  }
  EXPECT_EQ(replica_a.fleet().bins(), whole.fleet().bins());
}

TEST(ShardedCollectorTest, MemoryIsBoundedBySketchSizeNotSamples) {
  common::Xoshiro256 rng(27);
  CollectorConfig config;
  config.sketch.max_bins = 128;
  ShardedCollector collector(config);
  // One flow, a million estimates: resident bytes must stay O(bins).
  collector.ingest({make_record(1, 0, 0, 80e3, rng, 1'000'000)});
  EXPECT_EQ(collector.estimates_ingested(), 1'000'000u);
  const auto* sketch = collector.flow(make_key(1));
  ASSERT_NE(sketch, nullptr);
  EXPECT_LE(sketch->bin_count(), 128u);
  // Generous per-bin envelope (map node overhead), nowhere near 1M samples.
  EXPECT_LT(collector.approx_flow_bytes(), 128 * 64 + 256);
}

TEST(ShardedCollectorTest, AccuracyMismatchRejectedWithoutSideEffects) {
  ShardedCollector collector;  // default 1% sketches
  EstimateRecord r;
  r.key = make_key(1);
  r.sketch = common::LatencySketch(common::LatencySketchConfig{0.05, 128});
  r.sketch.add(100.0);
  EXPECT_THROW(collector.ingest({r}), std::invalid_argument);
  // The rejected record must leave no phantom state behind.
  EXPECT_EQ(collector.flow_count(), 0u);
  EXPECT_EQ(collector.flow(r.key), nullptr);
  EXPECT_TRUE(collector.links().empty());
  EXPECT_EQ(collector.records_ingested(), 0u);
}

TEST(ShardedCollectorTest, MergeAccuracyMismatchRejectedWithoutSideEffects) {
  common::Xoshiro256 rng(29);
  ShardedCollector collector;  // default 1% sketches
  ShardedCollector replica(CollectorConfig{2, common::LatencySketchConfig{0.05, 128}});
  EstimateRecord r = make_record(1, 0, 0, 50e3, rng, 10);
  r.sketch = common::LatencySketch(common::LatencySketchConfig{0.05, 128});
  r.sketch.add(100.0);
  replica.ingest({r});

  EXPECT_THROW(collector.merge(replica), std::invalid_argument);
  EXPECT_EQ(collector.flow_count(), 0u);
  EXPECT_TRUE(collector.links().empty());
  EXPECT_EQ(collector.records_ingested(), 0u);
}

TEST(ShardedCollectorTest, SelfMergeDoublesEveryAggregate) {
  common::Xoshiro256 rng(28);
  ShardedCollector collector(CollectorConfig{4, {}});
  for (std::uint32_t i = 0; i < 30; ++i) {
    collector.ingest({make_record(i % 10, i % 3, 0, 40e3, rng, 20)});
  }
  const auto flows_before = collector.flow_count();
  const auto estimates_before = collector.estimates_ingested();
  const auto fleet_before = collector.fleet();

  collector.merge(collector);

  EXPECT_EQ(collector.flow_count(), flows_before);
  EXPECT_EQ(collector.estimates_ingested(), 2 * estimates_before);
  const auto fleet_after = collector.fleet();
  EXPECT_EQ(fleet_after.count(), 2 * fleet_before.count());
  for (const auto link : collector.links()) {
    // Exactly doubled, not the inconsistent re-homing double-count.
    EXPECT_EQ(collector.link_distribution(link)->count() % 2, 0u);
  }
  for (const auto& [index, count] : fleet_before.bins()) {
    EXPECT_EQ(fleet_after.bins().at(index), 2 * count);
  }
}

/// Records [200·part, 200·(part + 1)) of a fixed 600-record workload.
std::vector<EstimateRecord> merge_workload_part(std::size_t part) {
  common::Xoshiro256 rng(34);
  std::vector<EstimateRecord> records;
  for (std::uint32_t i = 0; i < 600; ++i) {
    records.push_back(make_record(i % 70, i % 5, i % 4, rng.uniform(10e3, 300e3), rng, 8));
  }
  const auto first = records.begin() + static_cast<std::ptrdiff_t>(200 * part);
  return {first, first + 200};
}

TEST(ShardedCollectorTest, ConcurrentMergesAndIngestMatchSerialUnion) {
  // Two threads merge different replicas into one target while a third
  // ingests a batch: the end state is the serially built union, bin for bin.
  ShardedCollector replica_a(CollectorConfig{3, {}});
  ShardedCollector replica_b(CollectorConfig{5, {}});
  replica_a.ingest(merge_workload_part(0));
  replica_b.ingest(merge_workload_part(1));
  ShardedCollector serial(CollectorConfig{4, {}});
  for (std::size_t part = 0; part < 3; ++part) serial.ingest(merge_workload_part(part));

  ShardedCollector target(CollectorConfig{4, {}});
  const auto batch = merge_workload_part(2);
  std::thread merge_a([&] { target.merge(replica_a); });
  std::thread merge_b([&] { target.merge(replica_b); });
  std::thread ingest([&] { target.ingest(batch); });
  merge_a.join();
  merge_b.join();
  ingest.join();

  EXPECT_EQ(target.records_ingested(), serial.records_ingested());
  EXPECT_EQ(target.estimates_ingested(), serial.estimates_ingested());
  EXPECT_EQ(target.epochs_seen(), serial.epochs_seen());
  ASSERT_EQ(target.flow_count(), serial.flow_count());
  for (std::uint32_t f = 0; f < 70; ++f) {
    const auto got = target.flow_sketch(make_key(f));
    const auto want = serial.flow_sketch(make_key(f));
    ASSERT_TRUE(got.has_value() && want.has_value()) << "flow " << f;
    EXPECT_EQ(got->bins(), want->bins()) << "flow " << f;
  }
  ASSERT_EQ(target.links(), serial.links());
  for (const LinkId link : serial.links()) {
    EXPECT_EQ(target.link_distribution(link)->bins(), serial.link_distribution(link)->bins())
        << "link " << link;
  }
  EXPECT_EQ(target.fleet().bins(), serial.fleet().bins());
  const auto top_got = target.top_k_flows(10, 0.99);
  const auto top_want = serial.top_k_flows(10, 0.99);
  ASSERT_EQ(top_got.size(), top_want.size());
  for (std::size_t i = 0; i < top_want.size(); ++i) {
    EXPECT_EQ(top_got[i].key, top_want[i].key) << "rank " << i;
  }
}

TEST(ShardedCollectorTest, CrossMergesOnTwoThreadsBothReturn) {
  // a.merge(b) and b.merge(a) at once: merge never holds two shard locks,
  // so neither can wait on the other (no lock-order deadlock).
  ShardedCollector a(CollectorConfig{4, {}});
  ShardedCollector b(CollectorConfig{4, {}});
  a.ingest(merge_workload_part(0));
  b.ingest(merge_workload_part(1));
  std::thread ab([&] {
    for (int i = 0; i < 20; ++i) a.merge(b);
  });
  std::thread ba([&] {
    for (int i = 0; i < 20; ++i) b.merge(a);
  });
  ab.join();
  ba.join();
  EXPECT_EQ(a.flow_count(), 70u);
  EXPECT_EQ(b.flow_count(), 70u);
}

}  // namespace
}  // namespace rlir::collect
