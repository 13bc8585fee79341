// Zero-copy record views: the view decode path and the merge-from-view path
// must be bin-for-bin equivalent to the owning decode + merge path on every
// input the owning path accepts, and must reject every input it rejects with
// the same exception taxonomy (runtime_error = corrupt wire, drop the peer;
// invalid_argument = accuracy mismatch, a deployment bug that must surface).
#include "collect/estimate_record.h"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <thread>
#include <vector>

#include "collect/sharded_collector.h"
#include "common/rng.h"

namespace rlir::collect {
namespace {

net::FiveTuple make_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8), static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 1, static_cast<std::uint8_t>(i + 1));
  key.src_port = static_cast<std::uint16_t>(1000 + i);
  key.dst_port = 80;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return key;
}

std::vector<EstimateRecord> make_batch(std::size_t n, common::LatencySketchConfig sketch_cfg = {}) {
  common::Xoshiro256 rng(23);
  std::vector<EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    EstimateRecord r;
    r.key = make_key(static_cast<std::uint32_t>(i % 7));  // repeated keys: merges happen
    r.link = static_cast<LinkId>(i % 3);
    r.sender = static_cast<net::SenderId>(i % 2 + 1);
    r.epoch = static_cast<std::uint32_t>(i / 4);
    r.sketch = common::LatencySketch(sketch_cfg);
    const int observations = static_cast<int>(1 + i * 37 % 300);
    for (int j = 0; j < observations; ++j) r.sketch.add(rng.lognormal(9.0, 2.0));
    if (i % 5 == 0) r.sketch.add(0.0);  // exercise the zero bin
    records.push_back(std::move(r));
  }
  return records;
}

void expect_same_sketch(const common::LatencySketch& a, const common::LatencySketch& b) {
  EXPECT_EQ(a.bins(), b.bins());
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.zero_count(), b.zero_count());
  EXPECT_EQ(a.sum(), b.sum());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

TEST(RecordViewTest, ViewDecodeMatchesOwningDecode) {
  const auto batch = make_batch(12);
  const auto bytes = encode_records(batch);

  const auto owned = decode_records_prefix(bytes.data(), bytes.size());
  std::vector<RecordView> views;
  const std::size_t consumed = decode_record_views_prefix(bytes.data(), bytes.size(), views);

  EXPECT_EQ(consumed, owned.bytes_consumed);
  ASSERT_EQ(views.size(), owned.records.size());
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    const auto& o = owned.records[i];
    EXPECT_EQ(v.key, o.key);
    EXPECT_EQ(v.link, o.link);
    EXPECT_EQ(v.sender, o.sender);
    EXPECT_EQ(v.epoch, o.epoch);
    EXPECT_EQ(v.sketch.relative_accuracy, o.sketch.config().relative_accuracy);
    EXPECT_EQ(v.sketch.zero_count, o.sketch.zero_count());
    EXPECT_EQ(v.sketch.count(), o.sketch.count());

    // Merging the view into a fresh sketch must equal merging the
    // materialized sketch — bin for bin.
    common::LatencySketch from_view{{}}, from_owned{{}};
    merge_sketch_view(from_view, v.sketch);
    from_owned.merge(o.sketch);
    expect_same_sketch(from_view, from_owned);
  }
}

TEST(RecordViewTest, ViewDecodeAppendsAcrossCoalescedBatches) {
  // Two back-to-back batches, as the client's coalescing produces: the view
  // decoder consumes exactly one per call and appends without clearing.
  const auto batch_a = make_batch(3);
  const auto batch_b = make_batch(5);
  auto bytes = encode_records(batch_a);
  const auto more = encode_records(batch_b);
  bytes.insert(bytes.end(), more.begin(), more.end());

  std::vector<RecordView> views;
  const std::size_t first = decode_record_views_prefix(bytes.data(), bytes.size(), views);
  EXPECT_EQ(views.size(), batch_a.size());
  const std::size_t second =
      decode_record_views_prefix(bytes.data() + first, bytes.size() - first, views);
  EXPECT_EQ(first + second, bytes.size());
  ASSERT_EQ(views.size(), batch_a.size() + batch_b.size());
  EXPECT_EQ(views[batch_a.size()].key, batch_b[0].key);
}

TEST(RecordViewTest, CollectorViewIngestMatchesOwningIngest) {
  const auto batch = make_batch(40);
  const auto bytes = encode_records(batch);
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), batch.size());

  ShardedCollector from_records{{}};
  ShardedCollector from_views{{}};
  from_records.ingest(batch);
  for (const auto& v : views) from_views.ingest({v});

  EXPECT_EQ(from_views.flow_count(), from_records.flow_count());
  EXPECT_EQ(from_views.records_ingested(), from_records.records_ingested());
  EXPECT_EQ(from_views.estimates_ingested(), from_records.estimates_ingested());
  EXPECT_EQ(from_views.epoch_count(), from_records.epoch_count());
  EXPECT_EQ(from_views.links(), from_records.links());
  for (const auto& r : batch) {
    const auto* a = from_views.flow(r.key);
    const auto* b = from_records.flow(r.key);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    expect_same_sketch(*a, *b);
  }
  for (const LinkId link : from_records.links()) {
    expect_same_sketch(*from_views.link_distribution(link), *from_records.link_distribution(link));
  }
  // The rank indexes agree too: top-k at the indexed quantile is identical.
  const auto top_a = from_views.top_k_flows(5);
  const auto top_b = from_records.top_k_flows(5);
  ASSERT_EQ(top_a.size(), top_b.size());
  for (std::size_t i = 0; i < top_a.size(); ++i) {
    EXPECT_EQ(top_a[i].key, top_b[i].key);
    EXPECT_EQ(top_a[i].p99_ns, top_b[i].p99_ns);
  }
}

TEST(RecordViewTest, ConcurrentSubmitViewsMatchesSubmit) {
  // Views ingested from three threads into one collector reach the state of
  // one thread ingesting the owned records.
  const auto batch = make_batch(30);
  const auto bytes = encode_records(batch);
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);

  CollectorConfig cfg;
  cfg.shard_count = 4;
  ShardedCollector from_records(cfg);
  ShardedCollector from_views(cfg);
  from_records.ingest(batch);
  std::vector<std::thread> producers;
  for (std::size_t t = 0; t < 3; ++t) {
    producers.emplace_back([&, t] {
      const auto first = views.begin() + static_cast<std::ptrdiff_t>(10 * t);
      from_views.ingest(std::vector<RecordView>(first, first + 10));
    });
  }
  for (auto& p : producers) p.join();

  for (const auto& r : batch) {
    const auto a = from_views.flow_summary(r.key);
    const auto b = from_records.flow_summary(r.key);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->packets, b->packets);
    EXPECT_EQ(a->p99_ns, b->p99_ns);
    EXPECT_EQ(a->max_ns, b->max_ns);
  }
}

TEST(RecordViewTest, DuplicateWireBinsAccumulateLikeOwningPath) {
  // Hand-patch an encoded record so two wire bins carry the same index; both
  // decoders must sum them (the owning path's BinMap += behavior).
  auto batch = make_batch(1);
  // Guarantee at least 2 bins with controlled values.
  batch[0].sketch = common::LatencySketch(common::LatencySketchConfig{});
  batch[0].sketch.add(1000.0);
  batch[0].sketch.add(2000.0);
  auto bytes = encode_records(batch);
  // Wire layout: 16-byte batch header, 23-byte keyed fields, sketch = f64
  // accuracy + u32 max_bins + u64 zero + f64 sum/min/max + u32 bin_count,
  // then (i32 index, u64 count) pairs.
  const std::size_t bins_start = 16 + 23 + 8 + 4 + 8 + 8 + 8 + 8 + 4;
  ASSERT_GE(bytes.size(), bins_start + 2 * 12);
  // Overwrite the second bin's index with the first's.
  std::memcpy(bytes.data() + bins_start + 12, bytes.data() + bins_start, 4);

  const auto owned = decode_records_prefix(bytes.data(), bytes.size());
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);

  common::LatencySketch from_view{{}}, from_owned{{}};
  merge_sketch_view(from_view, views[0].sketch);
  from_owned.merge(owned.records[0].sketch);
  expect_same_sketch(from_view, from_owned);
  EXPECT_EQ(from_view.bins().size(), 1u);  // the duplicate collapsed into one bin
}

TEST(RecordViewTest, WireBinCountOverBudgetCollapsesLikeOwningPath) {
  // Patch the record's max_bins below its bin_count: the owning path
  // materializes via from_parts (which collapses before the merge); the view
  // path must detect the over-budget wire sketch and reproduce that exactly.
  common::LatencySketchConfig wide{0.01, 2048};
  auto batch = make_batch(1, wide);
  batch[0].sketch = common::LatencySketch(wide);
  common::Xoshiro256 rng(5);
  for (int i = 0; i < 5000; ++i) batch[0].sketch.add(rng.lognormal(9.0, 3.0));
  const std::uint32_t bins = static_cast<std::uint32_t>(batch[0].sketch.bins().size());
  ASSERT_GT(bins, 8u);
  auto bytes = encode_records(batch);
  const std::size_t max_bins_off = 16 + 23 + 8;
  const std::uint32_t shrunk = 8;
  std::memcpy(bytes.data() + max_bins_off, &shrunk, 4);

  const auto owned = decode_records_prefix(bytes.data(), bytes.size());
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_GT(views[0].sketch.bin_count, views[0].sketch.max_bins);

  common::LatencySketch from_view{wide}, from_owned{wide};
  merge_sketch_view(from_view, views[0].sketch);
  from_owned.merge(owned.records[0].sketch);
  expect_same_sketch(from_view, from_owned);
}

TEST(RecordViewTest, EmptySketchMergeIsANoOp) {
  auto batch = make_batch(1);
  batch[0].sketch = common::LatencySketch(common::LatencySketchConfig{});  // zero observations
  const auto bytes = encode_records(batch);
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);

  common::LatencySketch dst{{}};
  dst.add(500.0);
  const auto before_min = dst.min();
  merge_sketch_view(dst, views[0].sketch);
  // merge() ignores an empty other entirely (its min/max are sentinels);
  // the view path must too.
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), before_min);
}

TEST(RecordViewTest, TruncatedBinsRejectedAsRuntimeError) {
  const auto batch = make_batch(1);
  const auto bytes = encode_records(batch);
  for (const std::size_t cut : {bytes.size() - 1, bytes.size() - 11, std::size_t{20}}) {
    std::vector<RecordView> views;
    EXPECT_THROW(decode_record_views_prefix(bytes.data(), cut, views), std::runtime_error)
        << "cut=" << cut;
  }
}

TEST(RecordViewTest, CorruptAccuracyRejectedAsRuntimeError) {
  // An out-of-range relative accuracy is wire corruption (the owning path
  // throws from sketch construction): runtime_error, not invalid_argument,
  // so the agent drops the peer instead of crashing the poll loop.
  auto batch = make_batch(1);
  auto bytes = encode_records(batch);
  const double bad = 1.5;
  std::memcpy(bytes.data() + 16 + 23, &bad, 8);
  std::vector<RecordView> views;
  try {
    decode_record_views_prefix(bytes.data(), bytes.size(), views);
    FAIL() << "expected runtime_error";
  } catch (const std::invalid_argument&) {
    FAIL() << "invalid_argument would escape the agent's drop-the-peer handling";
  } catch (const std::runtime_error&) {
    // expected
  }
}

TEST(RecordViewTest, AccuracyMismatchThrowsInvalidArgument) {
  common::LatencySketchConfig other{0.02, 2048};
  auto batch = make_batch(1, other);
  const auto bytes = encode_records(batch);
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);

  common::LatencySketch dst{{}};  // default 0.01 accuracy
  EXPECT_THROW(merge_sketch_view(dst, views[0].sketch), std::invalid_argument);
  ShardedCollector collector{{}};
  EXPECT_THROW(collector.ingest({views[0]}), std::invalid_argument);
}

}  // namespace
}  // namespace rlir::collect
