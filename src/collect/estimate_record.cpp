#include "collect/estimate_record.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "common/wire.h"

namespace rlir::collect {

namespace {

using common::wire::put;
using common::wire::put_f64;
using common::wire::take;
using common::wire::take_f64;

constexpr std::array<char, 4> kMagic = {'R', 'L', 'E', 'S'};
constexpr std::size_t kHeaderSize = kMagic.size() + 4 + 8;      // magic, version, count
constexpr std::size_t kKeyedFixedSize = net::kFiveTupleWireSize + 4 + 4;  // key, link, epoch
/// Smallest encoded record (no bins): what a claimed batch count is checked
/// against before anything is reserved for it.
constexpr std::size_t kMinRecordSize = kKeyedFixedSize + kSketchFixedSize;
constexpr std::size_t kBinSize = 4 + 8;                        // index, count

/// Reads a batch's record count and checks that that many smallest records
/// fit in the bytes left — a lying count fails here, before any reserve.
std::uint64_t take_count(const std::uint8_t*& p, const std::uint8_t* end) {
  const auto count = take<std::uint64_t>(p);
  if (count > static_cast<std::size_t>(end - p) / kMinRecordSize) {
    throw std::runtime_error("EstimateRecord: record count exceeds payload");
  }
  return count;
}

void encode_record(const EstimateRecord& r, std::uint8_t*& p) {
  net::put_tuple(p, r.key);
  put<std::uint32_t>(p, r.link);
  put<std::uint32_t>(p, r.epoch);
  encode_sketch(p, r.sketch);
}

/// Parses one record at `p`, bounds-checked against `end`. Field offsets and
/// validation rules are specified in docs/WIRE.md ("RLES record batches").
EstimateRecord decode_record(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kKeyedFixedSize + kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated record");
  }
  EstimateRecord r;
  r.key = net::take_tuple(p);
  r.link = take<std::uint32_t>(p);
  r.epoch = take<std::uint32_t>(p);
  r.sketch = decode_sketch(p, end);
  return r;
}

}  // namespace

std::size_t sketch_wire_size(const common::LatencySketch& sketch) {
  return kSketchFixedSize + sketch.bin_count() * kBinSize;
}

void encode_sketch(std::uint8_t*& p, const common::LatencySketch& sketch) {
  put<std::uint64_t>(p, sketch.zero_count());
  put_f64(p, sketch.sum());
  put_f64(p, sketch.min());
  put_f64(p, sketch.max());
  put<std::uint32_t>(p, static_cast<std::uint32_t>(sketch.bin_count()));
  for (const auto& [index, count] : sketch.bins()) {
    put<std::int32_t>(p, index);
    put<std::uint64_t>(p, count);
  }
}

common::LatencySketch decode_sketch(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated sketch");
  }
  const auto zero_count = take<std::uint64_t>(p);
  const double sum = take_f64(p);
  const double min = take_f64(p);
  const double max = take_f64(p);
  // A NaN/Inf here would silently poison every aggregate it merges into;
  // honest encoders only ever produce finite moments.
  if (!std::isfinite(sum) || !std::isfinite(min) || !std::isfinite(max)) {
    throw std::runtime_error("EstimateRecord: non-finite sketch moments (corrupt input)");
  }
  const auto bin_count = take<std::uint32_t>(p);
  // collapse_if_needed runs after every add and merge, so no honest encoder
  // ships more bins than the budget.
  if (bin_count > common::LatencySketchConfig::max_bins) {
    throw std::runtime_error("EstimateRecord: bin count above max_bins (corrupt input)");
  }
  if (static_cast<std::size_t>(end - p) < static_cast<std::size_t>(bin_count) * kBinSize) {
    throw std::runtime_error("EstimateRecord: truncated bins");
  }
  common::LatencySketch::BinMap bins;
  for (std::uint32_t i = 0; i < bin_count; ++i) {
    const auto index = take<std::int32_t>(p);
    const auto count = take<std::uint64_t>(p);
    bins[index] += count;
  }
  auto sketch = common::LatencySketch::from_parts(zero_count, sum, min, max, bins);
  // An empty sketch must be all zeros, as every honest encoder writes it:
  // from_parts would keep a stray sum, and a merge that starts from this
  // sketch would carry it into the fleet's sum() and mean().
  if (sketch.empty() && (sum != 0.0 || min != 0.0 || max != 0.0 || bin_count != 0)) {
    throw std::runtime_error("EstimateRecord: empty sketch with moments or bins (corrupt input)");
  }
  return sketch;
}

namespace {

/// View counterpart of decode_sketch: same bounds/corruption checks, each
/// made here rather than shared, so the owning decoder stays an independent
/// oracle. Bins stay in place.
SketchView decode_sketch_view(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated sketch");
  }
  SketchView v;
  v.zero_count = take<std::uint64_t>(p);
  v.sum = take_f64(p);
  v.min = take_f64(p);
  v.max = take_f64(p);
  if (!std::isfinite(v.sum) || !std::isfinite(v.min) || !std::isfinite(v.max)) {
    throw std::runtime_error("EstimateRecord: non-finite sketch moments (corrupt input)");
  }
  v.bin_count = take<std::uint32_t>(p);
  // Within the budget, merge_parts equals a merge of the from_parts sketch.
  if (v.bin_count > common::LatencySketchConfig::max_bins) {
    throw std::runtime_error("EstimateRecord: bin count above max_bins (corrupt input)");
  }
  if (static_cast<std::size_t>(end - p) < static_cast<std::size_t>(v.bin_count) * kBinSize) {
    throw std::runtime_error("EstimateRecord: truncated bins");
  }
  v.bins = p;
  // One warm sequential pass for the total; the merge re-reads the bins from
  // cache. (The owning decoder paid a BinMap node per bin here instead.)
  for (std::uint32_t i = 0; i < v.bin_count; ++i) {
    const std::uint8_t* bin = v.bins + static_cast<std::size_t>(i) * kBinSize + 4;
    v.binned_count += take<std::uint64_t>(bin);
  }
  p += static_cast<std::size_t>(v.bin_count) * kBinSize;
  // merge_sketch_view skips an empty sketch whole, so a stray sum here would
  // make this decoder disagree with the owning one.
  if (v.count() == 0 && (v.sum != 0.0 || v.min != 0.0 || v.max != 0.0 || v.bin_count != 0)) {
    throw std::runtime_error("EstimateRecord: empty sketch with moments or bins (corrupt input)");
  }
  return v;
}

RecordView decode_record_view(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kKeyedFixedSize + kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated record");
  }
  RecordView r;
  r.wire = p;
  r.key = net::take_tuple(p);
  r.link = take<std::uint32_t>(p);
  r.epoch = take<std::uint32_t>(p);
  r.sketch = decode_sketch_view(p, end);
  return r;
}

}  // namespace

std::size_t decode_record_views_prefix(const std::uint8_t* data, std::size_t size,
                                       std::vector<RecordView>& out) {
  const std::uint8_t* p = data;
  const std::uint8_t* end = data + size;
  if (size < kHeaderSize) throw std::runtime_error("EstimateRecord: truncated header");
  for (char c : kMagic) {
    if (take<std::uint8_t>(p) != static_cast<std::uint8_t>(c)) {
      throw std::runtime_error("EstimateRecord: bad magic");
    }
  }
  const auto version = take<std::uint32_t>(p);
  if (version != kEstimateWireVersion) {
    throw std::runtime_error("EstimateRecord: unsupported version " + std::to_string(version));
  }
  const auto count = take_count(p, end);
  out.reserve(out.size() + count);
  for (std::uint64_t i = 0; i < count; ++i) {
    out.push_back(decode_record_view(p, end));
  }
  return static_cast<std::size_t>(p - data);
}

void merge_sketch_view(common::LatencySketch& dst, const SketchView& view) {
  dst.merge_parts(view.zero_count, view.binned_count, view.sum, view.min, view.max,
                  [&view](auto&& emit) {
                    const std::uint8_t* p = view.bins;
                    for (std::uint32_t i = 0; i < view.bin_count; ++i) {
                      const auto index = take<std::int32_t>(p);
                      const auto count = take<std::uint64_t>(p);
                      emit(index, count);
                    }
                  });
}

std::size_t wire_size(const EstimateRecord& record) {
  return kKeyedFixedSize + sketch_wire_size(record.sketch);
}

std::size_t wire_size(const RecordView& record) {
  return kKeyedFixedSize + kSketchFixedSize +
         static_cast<std::size_t>(record.sketch.bin_count) * kBinSize;
}

void decode_record_body_views(const std::uint8_t* data, std::size_t size,
                              std::vector<RecordView>& out) {
  const std::uint8_t* p = data;
  const std::uint8_t* end = data + size;
  while (p != end) out.push_back(decode_record_view(p, end));
}

std::vector<std::uint8_t> encode_records(const std::vector<EstimateRecord>& records) {
  std::size_t total = kHeaderSize;
  for (const auto& r : records) total += wire_size(r);
  std::vector<std::uint8_t> buf(total);
  std::uint8_t* p = buf.data();
  for (char c : kMagic) put<std::uint8_t>(p, static_cast<std::uint8_t>(c));
  put<std::uint32_t>(p, kEstimateWireVersion);
  put<std::uint64_t>(p, records.size());
  for (const auto& r : records) encode_record(r, p);
  return buf;
}

EncodedViews encode_views(const std::vector<EstimateRecord>& records) {
  EncodedViews out;
  out.bytes = encode_records(records);
  decode_record_views_prefix(out.bytes.data(), out.bytes.size(), out.views);
  return out;
}

DecodedBatch decode_records_prefix(const std::uint8_t* data, std::size_t size) {
  const std::uint8_t* p = data;
  const std::uint8_t* end = data + size;
  if (size < kHeaderSize) throw std::runtime_error("EstimateRecord: truncated header");
  for (char c : kMagic) {
    if (take<std::uint8_t>(p) != static_cast<std::uint8_t>(c)) {
      throw std::runtime_error("EstimateRecord: bad magic");
    }
  }
  const auto version = take<std::uint32_t>(p);
  if (version != kEstimateWireVersion) {
    throw std::runtime_error("EstimateRecord: unsupported version " + std::to_string(version));
  }
  const auto count = take_count(p, end);
  DecodedBatch batch;
  batch.records.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    batch.records.push_back(decode_record(p, end));
  }
  batch.bytes_consumed = static_cast<std::size_t>(p - data);
  return batch;
}

std::vector<EstimateRecord> decode_records(const std::uint8_t* data, std::size_t size) {
  auto batch = decode_records_prefix(data, size);
  if (batch.bytes_consumed != size) {
    throw std::runtime_error("EstimateRecord: trailing bytes after batch");
  }
  return std::move(batch.records);
}

}  // namespace rlir::collect
