// One ShardedCollector fed from many threads: shard-grouped ingest under
// the shard locks must converge to exactly the state a single-thread run
// reaches on the same records — bin for bin — regardless of producer count
// or whether batches arrive as owned records or as wire views. An ingest is
// complete when it returns, so a query right after it sees it; these tests
// are the TSan job's main workload.
#include "collect/sharded_collector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
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
                           double latency_base, common::Xoshiro256& rng, int samples = 20) {
  EstimateRecord r;
  r.key = make_key(flow);
  r.link = link;
  r.epoch = epoch;
  r.sender = 1;
  for (int i = 0; i < samples; ++i) r.sketch.add(latency_base * rng.uniform(0.5, 1.5));
  return r;
}

/// A deterministic workload: `count` records over `flows` flows, 4 links,
/// 3 epochs. Seeded per caller so producers can each own a disjoint slice.
std::vector<EstimateRecord> make_workload(std::uint64_t seed, std::uint32_t count,
                                          std::uint32_t flows) {
  common::Xoshiro256 rng(seed);
  std::vector<EstimateRecord> records;
  records.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    records.push_back(
        make_record(i % flows, i % 4, i % 3, 20e3 + 1e3 * (i % flows), rng, 10));
  }
  return records;
}

/// Splits `items` into consecutive batches of at most `size`.
template <typename T>
std::vector<std::vector<T>> chunks(const std::vector<T>& items, std::size_t size) {
  std::vector<std::vector<T>> out;
  for (std::size_t i = 0; i < items.size(); i += size) {
    const auto first = items.begin() + static_cast<std::ptrdiff_t>(i);
    out.emplace_back(first, first + static_cast<std::ptrdiff_t>(std::min(size, items.size() - i)));
  }
  return out;
}

/// The equivalence oracle: single-thread collector state vs a snapshot of
/// the one fed from many threads, compared exactly (counts, per-flow bins,
/// fleet bins, top-k ordering).
void expect_equal_state(ShardedCollector& serial, ShardedCollector snapshot,
                        std::uint32_t flows) {
  EXPECT_EQ(snapshot.flow_count(), serial.flow_count());
  EXPECT_EQ(snapshot.records_ingested(), serial.records_ingested());
  EXPECT_EQ(snapshot.estimates_ingested(), serial.estimates_ingested());
  EXPECT_EQ(snapshot.epoch_count(), serial.epoch_count());
  EXPECT_EQ(snapshot.fleet().bins(), serial.fleet().bins());
  for (std::uint32_t f = 0; f < flows; ++f) {
    const auto* a = snapshot.flow(make_key(f));
    const auto* b = serial.flow(make_key(f));
    ASSERT_EQ(a == nullptr, b == nullptr) << "flow " << f;
    if (a != nullptr && b != nullptr) {
      EXPECT_EQ(a->bins(), b->bins()) << "flow " << f;
    }
  }
  const auto top_a = snapshot.top_k_flows(10, 0.99);
  const auto top_b = serial.top_k_flows(10, 0.99);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (std::size_t i = 0; i < top_a.size(); ++i) {
    EXPECT_EQ(top_a[i].key, top_b[i].key) << "rank " << i;
    EXPECT_EQ(top_a[i].p99_ns, top_b[i].p99_ns) << "rank " << i;
  }
}

TEST(ConcurrentCollectorTest, ZeroShardsThrows) {
  CollectorConfig cfg;
  cfg.shard_count = 0;
  EXPECT_THROW(ShardedCollector{cfg}, std::invalid_argument);
}

TEST(ConcurrentCollectorTest, SingleProducerMatchesSerialExactly) {
  constexpr std::uint32_t kFlows = 50;
  const auto records = make_workload(1, 400, kFlows);

  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  CollectorConfig cfg;
  cfg.shard_count = 4;
  ShardedCollector concurrent(cfg);
  concurrent.ingest(records);

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, ManyProducersMatchSerialExactly) {
  constexpr std::uint32_t kFlows = 120;
  constexpr int kProducers = 8;
  std::vector<std::vector<EstimateRecord>> slices;
  ShardedCollector serial(CollectorConfig{4, {}});
  for (int p = 0; p < kProducers; ++p) {
    slices.push_back(make_workload(100 + p, 300, kFlows));
    serial.ingest(slices.back());
  }

  CollectorConfig cfg;
  cfg.shard_count = 4;
  ShardedCollector concurrent(cfg);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&concurrent, &slice = slices[p]] {
      // Small multi-shard batches, so producers race on every shard lock.
      for (const auto& batch : chunks(slice, 16)) concurrent.ingest(batch);
    });
  }
  for (auto& t : producers) t.join();

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, ManyProducersSubmitViewsMatchSerialExactly) {
  constexpr std::uint32_t kFlows = 120;
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kBatch = 50;
  constexpr int kProducers = 4;
  std::vector<std::vector<EstimateRecord>> slices;
  ShardedCollector serial(CollectorConfig{kLanes, {}});
  for (int p = 0; p < kProducers; ++p) {
    slices.push_back(make_workload(200 + p, 400, kFlows));
    serial.ingest(slices.back());
    // Every batch a producer ingests spans every shard (hash % shards).
    for (const auto& batch : chunks(slices.back(), kBatch)) {
      std::set<std::size_t> lanes;
      for (const auto& r : batch) lanes.insert(r.key.hash() % kLanes);
      ASSERT_EQ(lanes.size(), kLanes) << "producer " << p;
    }
  }

  CollectorConfig cfg;
  cfg.shard_count = kLanes;
  ShardedCollector concurrent(cfg);
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&concurrent, &slice = slices[p]] {
      const auto bytes = encode_records(slice);
      std::vector<RecordView> views;
      decode_record_views_prefix(bytes.data(), bytes.size(), views);
      for (const auto& batch : chunks(views, kBatch)) concurrent.ingest(batch);
    });
  }
  for (auto& t : producers) t.join();

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

TEST(ConcurrentCollectorTest, QueryRightAfterSubmitSeesIt) {
  common::Xoshiro256 rng(11);
  ShardedCollector collector;
  const auto record = make_record(3, 0, 0, 80e3, rng, 50);
  collector.ingest({record});
  // An ingest is complete when it returns: the next query observes it.
  const auto summary = collector.flow_summary(record.key);
  ASSERT_TRUE(summary.has_value());
  EXPECT_EQ(summary->packets, record.sketch.count());
  EXPECT_EQ(collector.flow_quantile(record.key, 0.5), record.sketch.quantile(0.5));
  EXPECT_EQ(collector.records_ingested(), 1u);
}

TEST(ConcurrentCollectorTest, LinkAndFleetQueriesMergeAcrossLanes) {
  common::Xoshiro256 rng(12);
  ShardedCollector collector;
  common::LatencySketch link0_direct, link1_direct;
  for (std::uint32_t i = 0; i < 30; ++i) {
    auto r = make_record(i, i % 2, 0, i % 2 == 0 ? 10e3 : 200e3, rng, 10);
    (i % 2 == 0 ? link0_direct : link1_direct).merge(r.sketch);
    collector.ingest({r});
  }
  EXPECT_EQ(collector.links(), (std::vector<LinkId>{0, 1}));
  const auto link0 = collector.link_distribution(0);
  ASSERT_TRUE(link0.has_value());
  EXPECT_EQ(link0->bins(), link0_direct.bins());
  EXPECT_FALSE(collector.link_distribution(42).has_value());
  auto fleet_direct = link0_direct;
  fleet_direct.merge(link1_direct);
  EXPECT_EQ(collector.fleet().bins(), fleet_direct.bins());
}

TEST(ConcurrentCollectorTest, AccuracyMismatchThrowsOnSubmittingThread) {
  common::Xoshiro256 rng(13);
  ShardedCollector collector;
  const auto good = make_record(2, 0, 0, 50e3, rng);
  EstimateRecord bad;
  bad.key = make_key(1);
  bad.sketch = common::LatencySketch(common::LatencySketchConfig{0.05, 128});
  bad.sketch.add(100.0);
  // The whole batch is rejected: the valid record ahead of the bad one is
  // not merged either.
  EXPECT_THROW(collector.ingest({good, bad}), std::invalid_argument);
  EXPECT_EQ(collector.flow_count(), 0u);
  EXPECT_EQ(collector.records_ingested(), 0u);
}

TEST(ConcurrentCollectorTest, ShardFlowCountsCoverAllLanes) {
  const auto records = make_workload(21, 300, 80);
  CollectorConfig cfg;
  cfg.shard_count = 4;
  ShardedCollector collector(cfg);
  collector.ingest(records);
  const auto counts = collector.shard_flow_counts();
  ASSERT_EQ(counts.size(), 4u);
  std::size_t total = 0;
  for (const std::size_t c : counts) total += c;
  EXPECT_EQ(total, collector.flow_count());
  EXPECT_EQ(collector.flow_count(), 80u);
  EXPECT_EQ(collector.epoch_count(), 3u);
}

TEST(ConcurrentCollectorTest, ReaderRacingWriterSeesMonotoneCountsAndEndsExact) {
  // One writer streams one-record batches while a reader repeatedly
  // queries; every query must read consistent shard state and never crash
  // or race. The final state must be exact.
  constexpr std::uint32_t kFlows = 60;
  const auto records = make_workload(33, 1'000, kFlows);
  ShardedCollector serial(CollectorConfig{4, {}});
  serial.ingest(records);

  CollectorConfig cfg;
  cfg.shard_count = 4;
  ShardedCollector concurrent(cfg);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (const auto& r : records) concurrent.ingest({r});
    done.store(true);
  });
  std::uint64_t last_records = 0;
  while (!done.load()) {
    const std::uint64_t n = concurrent.records_ingested();
    EXPECT_GE(n, last_records);  // monotone under a single writer
    last_records = n;
    (void)concurrent.fleet();
    (void)concurrent.top_k_flows(5, 0.99);
  }
  writer.join();

  expect_equal_state(serial, concurrent.snapshot(), kFlows);
}

}  // namespace
}  // namespace rlir::collect
