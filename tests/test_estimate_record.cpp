// EstimateRecord wire format: known-answer bytes for the version-3 layout,
// byte-exact round-trips, and rejection of bad magic, wrong versions,
// truncation, corrupt bin counts and empty sketches that carry moments.
#include "collect/estimate_record.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace rlir::collect {
namespace {

net::FiveTuple make_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 1, static_cast<std::uint8_t>(i + 1));
  key.src_port = static_cast<std::uint16_t>(1000 + i);
  key.dst_port = 80;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return key;
}

std::vector<EstimateRecord> make_batch(std::size_t n) {
  common::Xoshiro256 rng(11);
  std::vector<EstimateRecord> records;
  for (std::size_t i = 0; i < n; ++i) {
    EstimateRecord r;
    r.key = make_key(static_cast<std::uint32_t>(i));
    r.link = static_cast<LinkId>(i % 5);
    r.epoch = static_cast<std::uint32_t>(i / 4);
    for (int j = 0; j < 200; ++j) r.sketch.add(rng.lognormal(9.0, 1.0));
    records.push_back(std::move(r));
  }
  return records;
}

void expect_equal(const EstimateRecord& a, const EstimateRecord& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.link, b.link);
  EXPECT_EQ(a.epoch, b.epoch);
  EXPECT_EQ(a.sketch.bins(), b.sketch.bins());
  EXPECT_EQ(a.sketch.count(), b.sketch.count());
  EXPECT_EQ(a.sketch.zero_count(), b.sketch.zero_count());
  EXPECT_EQ(a.sketch.sum(), b.sketch.sum());
  EXPECT_EQ(a.sketch.min(), b.sketch.min());
  EXPECT_EQ(a.sketch.max(), b.sketch.max());
}

TEST(EstimateRecordTest, KnownAnswerBytes) {
  // Round trips pass for any self-consistent layout; these bytes pin this
  // one (docs/WIRE.md, "RLES record batches"), written out by hand.
  EstimateRecord r;
  r.key.src = net::Ipv4Address(10, 0, 0, 1);
  r.key.dst = net::Ipv4Address(10, 0, 0, 2);
  r.key.src_port = 1000;
  r.key.dst_port = 80;
  r.key.proto = 6;
  r.link = 7;
  r.epoch = 5;
  r.sketch.add(1000.0, 2);  // bin ceil(ln 1000 / ln(1.01/0.99)) = 346
  r.sketch.add(2000.0);     // bin 381
  r.sketch.add(0.0);        // zero bin
  const std::vector<std::uint8_t> want = {
      'R', 'L', 'E', 'S', 3, 0, 0, 0,                  // magic, version 3
      1, 0, 0, 0, 0, 0, 0, 0,                          // record count
      1, 0, 0, 10, 2, 0, 0, 10,                        // src, dst
      0xe8, 0x03, 80, 0, 6,                            // ports, proto
      7, 0, 0, 0, 5, 0, 0, 0,                          // link, epoch
      1, 0, 0, 0, 0, 0, 0, 0,                          // zero count
      0, 0, 0, 0, 0, 0x40, 0xaf, 0x40,                 // sum 4000.0
      0, 0, 0, 0, 0, 0, 0, 0,                          // min 0.0
      0, 0, 0, 0, 0, 0x40, 0x9f, 0x40,                 // max 2000.0
      2, 0, 0, 0,                                      // bin count
      0x5a, 0x01, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,        // bin 346 x2
      0x7d, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,        // bin 381 x1
  };
  EXPECT_EQ(encode_records({r}), want);
  EXPECT_EQ(want.size(), 16 + wire_size(r));
  EXPECT_EQ(sketch_wire_size(r.sketch), 36u + 12u * 2);
  const auto back = decode_records(want.data(), want.size());
  ASSERT_EQ(back.size(), 1u);
  expect_equal(back[0], r);
}

TEST(EstimateRecordTest, RoundTripBatch) {
  const auto batch = make_batch(10);
  const auto bytes = encode_records(batch);
  const auto decoded = decode_records(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_equal(batch[i], decoded[i]);
}

TEST(EstimateRecordTest, RoundTripEmptyBatchAndEmptySketch) {
  const auto none = decode_records(encode_records({}).data(), encode_records({}).size());
  EXPECT_TRUE(none.empty());

  EstimateRecord empty_sketch;
  empty_sketch.key = make_key(1);
  const std::vector<EstimateRecord> batch{empty_sketch};
  const auto bytes = encode_records(batch);
  const auto decoded = decode_records(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.size(), 1u);
  expect_equal(batch[0], decoded[0]);
  EXPECT_TRUE(decoded[0].sketch.empty());
}

TEST(EstimateRecordTest, ZeroBinSurvivesRoundTrip) {
  EstimateRecord r;
  r.key = make_key(2);
  r.sketch.add(0.0, 13);
  r.sketch.add(500.0);
  const auto bytes = encode_records({r});
  const auto decoded = decode_records(bytes.data(), bytes.size());
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].sketch.zero_count(), 13u);
  EXPECT_EQ(decoded[0].sketch.count(), 14u);
}

TEST(EstimateRecordTest, WireSizeMatchesEncoding) {
  const auto batch = make_batch(3);
  std::size_t expected = 16;  // header
  for (const auto& r : batch) expected += wire_size(r);
  EXPECT_EQ(encode_records(batch).size(), expected);
}

TEST(EstimateRecordTest, RejectsBadMagic) {
  auto bytes = encode_records(make_batch(1));
  bytes[0] = 'X';
  EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(EstimateRecordTest, RejectsUnsupportedVersion) {
  auto bytes = encode_records(make_batch(1));
  bytes[4] = 0xff;  // version field, little-endian low byte
  EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);

  // KnownAnswerBytes' record in the version-2 layout, whose keyed fields
  // carried a u16 RLI sender (here 3) between link and epoch: both decoders
  // refuse it rather than read every later field two bytes off.
  const std::vector<std::uint8_t> v2 = {
      'R', 'L', 'E', 'S', 2, 0, 0, 0,  1, 0, 0, 0, 0, 0, 0, 0,     // header
      1, 0, 0, 10, 2, 0, 0, 10, 0xe8, 0x03, 80, 0, 6,              // key
      7, 0, 0, 0, 3, 0, 5, 0, 0, 0,                                // link, sender, epoch
      1, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0x40, 0xaf, 0x40,    // zero count, sum
      0, 0, 0, 0, 0, 0, 0, 0,  0, 0, 0, 0, 0, 0x40, 0x9f, 0x40,    // min, max
      2, 0, 0, 0,                                                  // bin count
      0x5a, 0x01, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0,
      0x7d, 0x01, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0,
  };
  EXPECT_THROW(decode_records(v2.data(), v2.size()), std::runtime_error);
  std::vector<RecordView> views;
  EXPECT_THROW(decode_record_views_prefix(v2.data(), v2.size(), views), std::runtime_error);
}

TEST(EstimateRecordTest, RejectsTruncation) {
  const auto bytes = encode_records(make_batch(3));
  // Every possible truncation point must throw, not crash or mis-decode.
  for (std::size_t cut : {std::size_t{0}, std::size_t{3}, std::size_t{15}, std::size_t{16},
                          std::size_t{40}, bytes.size() - 1}) {
    EXPECT_THROW(decode_records(bytes.data(), cut), std::runtime_error) << "cut=" << cut;
  }
}

TEST(EstimateRecordTest, RejectsTrailingGarbage) {
  auto bytes = encode_records(make_batch(2));
  bytes.push_back(0xab);
  EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(EstimateRecordTest, RejectsImplausibleBinCount) {
  // A batch claiming one record whose bin count is absurd (bit flip /
  // corruption) must be rejected by the guard, not attempt the allocation.
  EstimateRecord r;
  r.key = make_key(3);
  r.sketch.add(100.0);
  auto bytes = encode_records({r});
  // bin_count is the last 4 bytes of the fixed part: header 16 + fixed 57.
  const std::size_t bin_count_offset = 16 + 57 - 4;
  bytes[bin_count_offset + 3] = 0xff;
  EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(EstimateRecordTest, RejectsNonFiniteMoments) {
  EstimateRecord r;
  r.key = make_key(6);
  r.sketch.add(100.0);
  auto bytes = encode_records({r});
  // sum f64 sits after key(13)+link(4)+epoch(4)+zero_count(8); all-ones is
  // a NaN bit pattern.
  const std::size_t sum_offset = 16 + 13 + 4 + 4 + 8;
  for (std::size_t i = 0; i < 8; ++i) bytes[sum_offset + i] = 0xff;
  EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);
}

TEST(EstimateRecordTest, RejectsEmptySketchCarryingMomentsOrBins) {
  // An honest encoder writes an empty sketch as all zeros. One that claims
  // no observation yet carries a sum, a min, a max or a (zero-count) bin is
  // corrupt: a merge that starts from it would keep the stray sum.
  EstimateRecord r;
  r.key = make_key(7);
  const auto honest = encode_records({r});
  ASSERT_EQ(honest.size(), 16u + 57u);
  const auto back = decode_records(honest.data(), honest.size());
  ASSERT_EQ(back.size(), 1u);
  EXPECT_TRUE(back[0].sketch.empty());

  // Sketch segment: zero count at 16 + 21, then sum, min, max, bin count.
  const std::size_t segment = 16 + 21;
  for (const std::size_t field : {segment + 8, segment + 16, segment + 24}) {
    auto bytes = honest;
    bytes[field + 7] = 0x40;  // 2.0, finite
    EXPECT_THROW(decode_records(bytes.data(), bytes.size()), std::runtime_error);
    std::vector<RecordView> views;
    EXPECT_THROW(decode_record_views_prefix(bytes.data(), bytes.size(), views),
                 std::runtime_error);
  }
  auto listed = honest;
  listed[segment + 32] = 1;  // one bin, index 0, count 0
  listed.insert(listed.end(), 12, 0);
  EXPECT_THROW(decode_records(listed.data(), listed.size()), std::runtime_error);
  std::vector<RecordView> views;
  EXPECT_THROW(decode_record_views_prefix(listed.data(), listed.size(), views),
               std::runtime_error);
}

TEST(EstimateRecordTest, MergedDecodedSketchMatchesOriginal) {
  // Decode-then-merge equals merge-then-decode: what sharded collection does.
  common::Xoshiro256 rng(12);
  EstimateRecord a, b;
  a.key = b.key = make_key(5);
  for (int i = 0; i < 500; ++i) {
    a.sketch.add(rng.lognormal(9.0, 1.0));
    b.sketch.add(rng.lognormal(10.0, 0.5));
  }
  auto direct = a.sketch;
  direct.merge(b.sketch);

  const auto bytes = encode_records({a, b});
  auto decoded = decode_records(bytes.data(), bytes.size());
  decoded[0].sketch.merge(decoded[1].sketch);
  EXPECT_EQ(decoded[0].sketch.bins(), direct.bins());
  EXPECT_EQ(decoded[0].sketch.count(), direct.count());
}

TEST(EstimateRecordTest, PrefixDecodeReportsBytesConsumed) {
  const auto batch = make_batch(4);
  const auto bytes = encode_records(batch);
  const auto decoded = decode_records_prefix(bytes.data(), bytes.size());
  EXPECT_EQ(decoded.bytes_consumed, bytes.size());
  ASSERT_EQ(decoded.records.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expect_equal(decoded.records[i], batch[i]);
}

TEST(EstimateRecordTest, PrefixDecodeWalksBackToBackBatches) {
  // The streaming shape the transport tier ships: several batches
  // concatenated in one buffer, consumed without re-scanning.
  const std::vector<std::vector<EstimateRecord>> batches = {make_batch(3), make_batch(1),
                                                            make_batch(5)};
  std::vector<std::uint8_t> wire;
  for (const auto& b : batches) {
    const auto bytes = encode_records(b);
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }

  std::size_t offset = 0;
  std::size_t batch_index = 0;
  while (offset < wire.size()) {
    const auto decoded = decode_records_prefix(wire.data() + offset, wire.size() - offset);
    ASSERT_LT(batch_index, batches.size());
    ASSERT_EQ(decoded.records.size(), batches[batch_index].size());
    for (std::size_t i = 0; i < decoded.records.size(); ++i) {
      expect_equal(decoded.records[i], batches[batch_index][i]);
    }
    offset += decoded.bytes_consumed;
    ++batch_index;
  }
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(batch_index, batches.size());
}

TEST(EstimateRecordTest, PrefixDecodeStillRejectsTruncation) {
  const auto bytes = encode_records(make_batch(2));
  EXPECT_THROW(decode_records_prefix(bytes.data(), bytes.size() - 1), std::runtime_error);
  EXPECT_THROW(decode_records_prefix(bytes.data(), 3), std::runtime_error);
}

}  // namespace
}  // namespace rlir::collect
