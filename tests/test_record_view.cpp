// Zero-copy record views: the view decode path and the merge-from-view path
// must be bin-for-bin equivalent to the owning decode + merge path on every
// input the owning path accepts, and must reject every input it rejects with
// the same std::runtime_error (corrupt wire: the agent drops the peer).
#include "collect/estimate_record.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collect/sharded_collector.h"
#include "common/rng.h"
#include "common/wire.h"

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

std::vector<EstimateRecord> make_batch(std::size_t n) {
  common::Xoshiro256 rng(23);
  std::vector<EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    EstimateRecord r;
    r.key = make_key(static_cast<std::uint32_t>(i % 7));  // repeated keys: merges happen
    r.link = static_cast<LinkId>(i % 3);
    r.epoch = static_cast<std::uint32_t>(i / 4);
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
  const std::uint8_t* record_start = bytes.data() + 16;  // past the batch header
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& v = views[i];
    const auto& o = owned.records[i];
    EXPECT_EQ(v.wire, record_start);  // each view knows its own wire bytes
    record_start += wire_size(v);
    EXPECT_EQ(v.key, o.key);
    EXPECT_EQ(v.link, o.link);
    EXPECT_EQ(v.epoch, o.epoch);
    EXPECT_EQ(v.sketch.zero_count, o.sketch.zero_count());
    EXPECT_EQ(v.sketch.count(), o.sketch.count());

    // Merging the view into a fresh sketch must equal merging the
    // materialized sketch — bin for bin.
    common::LatencySketch from_view, from_owned;
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

  ShardedCollector from_records;
  ShardedCollector from_views;
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
  // The top-k answers agree too: identical at the default quantile.
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
  batch[0].sketch = common::LatencySketch{};
  batch[0].sketch.add(1000.0);
  batch[0].sketch.add(2000.0);
  auto bytes = encode_records(batch);
  // Wire layout: 16-byte batch header, 21-byte keyed fields, sketch = u64
  // zero + f64 sum/min/max + u32 bin_count, then (i32 index, u64 count) pairs.
  const std::size_t bins_start = 16 + 21 + 8 + 8 + 8 + 8 + 4;
  ASSERT_GE(bytes.size(), bins_start + 2 * 12);
  // Overwrite the second bin's index with the first's.
  std::memcpy(bytes.data() + bins_start + 12, bytes.data() + bins_start, 4);

  const auto owned = decode_records_prefix(bytes.data(), bytes.size());
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);

  common::LatencySketch from_view, from_owned;
  merge_sketch_view(from_view, views[0].sketch);
  from_owned.merge(owned.records[0].sketch);
  expect_same_sketch(from_view, from_owned);
  EXPECT_EQ(from_view.bins().size(), 1u);  // the duplicate collapsed into one bin
}

TEST(RecordViewTest, WireBinCountOverBudgetRejectedByBothDecoders) {
  // collapse_if_needed runs after every add and merge, so an honest sketch
  // holds at most max_bins bins; both decoders accept that many and reject
  // one more as corruption, each by its own check.
  constexpr std::size_t kMaxBins = common::LatencySketchConfig::max_bins;
  auto batch = make_batch(1);
  batch[0].sketch = common::LatencySketch{};
  common::Xoshiro256 rng(5);
  // Twenty decades need about 2,300 bins at 1%: the sketch fills its budget.
  for (int i = 0; i < 50000; ++i) batch[0].sketch.add(std::pow(10.0, rng.uniform(0.0, 20.0)));
  ASSERT_EQ(batch[0].sketch.bin_count(), kMaxBins);
  auto bytes = encode_records(batch);

  const auto owned = decode_records_prefix(bytes.data(), bytes.size());
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].sketch.bin_count, kMaxBins);
  common::LatencySketch from_view, from_owned;
  merge_sketch_view(from_view, views[0].sketch);
  from_owned.merge(owned.records[0].sketch);
  expect_same_sketch(from_view, from_owned);

  // One more bin, above every other, with the count patched to match: a
  // self-consistent record, one bin over the budget.
  std::uint8_t* p = bytes.data() + 16 + 21 + 8 + 8 + 8 + 8;  // the bin count
  common::wire::put<std::uint32_t>(p, static_cast<std::uint32_t>(kMaxBins + 1));
  std::uint8_t extra[12];
  p = extra;
  common::wire::put<std::int32_t>(p, std::prev(batch[0].sketch.bins().end())->first + 1);
  common::wire::put<std::uint64_t>(p, 1);
  bytes.insert(bytes.end(), extra, extra + sizeof(extra));
  EXPECT_THROW(decode_records_prefix(bytes.data(), bytes.size()), std::runtime_error);
  views.clear();
  EXPECT_THROW(decode_record_views_prefix(bytes.data(), bytes.size(), views), std::runtime_error);
}

TEST(RecordViewTest, EmptySketchMergeIsANoOp) {
  auto batch = make_batch(1);
  batch[0].sketch = common::LatencySketch{};  // zero observations
  const auto bytes = encode_records(batch);
  std::vector<RecordView> views;
  decode_record_views_prefix(bytes.data(), bytes.size(), views);
  ASSERT_EQ(views.size(), 1u);

  common::LatencySketch dst;
  dst.add(500.0);
  const auto before_min = dst.min();
  merge_sketch_view(dst, views[0].sketch);
  // merge() ignores an empty other entirely (its min/max are sentinels);
  // the view path must too.
  EXPECT_EQ(dst.count(), 1u);
  EXPECT_EQ(dst.min(), before_min);
}

/// Both decoders on the same bytes: "" when both throw std::runtime_error,
/// or both accept and agree on bytes consumed, every key, link and epoch,
/// and every sketch (the view's merged into a fresh one) on count, zero
/// count, sum, min, max and bins; otherwise what differs.
std::string decoder_disagreement(const std::uint8_t* data, std::size_t size) {
  std::optional<DecodedBatch> owned;
  try {
    owned = decode_records_prefix(data, size);
  } catch (const std::runtime_error&) {
  }
  std::vector<RecordView> views;
  std::optional<std::size_t> consumed;
  try {
    consumed = decode_record_views_prefix(data, size, views);
  } catch (const std::runtime_error&) {
  }
  if (owned.has_value() != consumed.has_value()) {
    return owned ? "only the view decoder throws" : "only the owning decoder throws";
  }
  if (!owned) return "";
  if (owned->bytes_consumed != *consumed) return "bytes consumed";
  if (owned->records.size() != views.size()) return "record count";
  for (std::size_t i = 0; i < views.size(); ++i) {
    const auto& o = owned->records[i];
    const auto& v = views[i];
    common::LatencySketch merged;
    merge_sketch_view(merged, v.sketch);
    const std::string at = " of record " + std::to_string(i);
    if (!(v.key == o.key) || v.link != o.link || v.epoch != o.epoch) return "keyed fields" + at;
    if (merged.count() != o.sketch.count()) return "count" + at;
    if (merged.zero_count() != o.sketch.zero_count()) return "zero count" + at;
    if (merged.sum() != o.sketch.sum()) return "sum" + at;
    if (merged.min() != o.sketch.min() || merged.max() != o.sketch.max()) return "min/max" + at;
    if (merged.bins() != o.sketch.bins()) return "bins" + at;
  }
  return "";
}

TEST(RecordViewTest, DecodersAgreeOnEveryTruncationAndByteChange) {
  // The owning decoder is the view decoder's oracle, so each must refuse
  // exactly what the other refuses and read the same values from what both
  // accept. Every prefix and every single-byte change of a few seeded
  // batches, each holding an empty sketch and a sketch with only its zero
  // bin, beside sketches with bins.
  std::size_t inputs = 0;
  std::size_t accepted = 0;
  for (const std::uint64_t seed : {1, 2, 3}) {
    common::Xoshiro256 rng(seed);
    std::vector<EstimateRecord> batch(4);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].key = make_key(static_cast<std::uint32_t>(seed * 10 + i));
      batch[i].link = static_cast<LinkId>(rng.uniform_u64(4));
      batch[i].epoch = static_cast<std::uint32_t>(rng.uniform_u64(100));
    }
    batch[1].sketch.add(0.0, 1 + rng.uniform_u64(5));  // zero bin only
    for (const std::size_t i : {2, 3}) {
      const auto n = 1 + rng.uniform_u64(6);
      for (std::uint64_t j = 0; j < n; ++j) batch[i].sketch.add(rng.lognormal(9.0, 1.5));
    }
    batch[3].sketch.add(0.0);  // batch[0] stays empty
    const auto bytes = encode_records(batch);

    for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
      const auto why = decoder_disagreement(bytes.data(), cut);
      ++inputs;
      ASSERT_EQ(why, "") << "seed " << seed << ", prefix of " << cut << " bytes";
    }
    for (std::size_t at = 0; at < bytes.size(); ++at) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        auto changed = bytes;
        changed[at] ^= mask;
        const auto why = decoder_disagreement(changed.data(), changed.size());
        ++inputs;
        ASSERT_EQ(why, "") << "seed " << seed << ", byte " << at << " ^ " << int{mask};
        std::vector<RecordView> views;
        try {
          decode_record_views_prefix(changed.data(), changed.size(), views);
          ++accepted;
        } catch (const std::runtime_error&) {
        }
      }
    }
  }
  // Both outcomes were exercised, not just one.
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, inputs);
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

}  // namespace
}  // namespace rlir::collect
