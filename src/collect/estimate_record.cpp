#include "collect/estimate_record.h"

#include <array>
#include <cmath>
#include <cstring>
#include <istream>
#include <iterator>
#include <ostream>
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
constexpr std::size_t kKeyedFixedSize = 13 + 4 + 2 + 4;        // key, link, sender, epoch
/// Smallest encoded record (no bins): what a claimed batch count is checked
/// against before anything is reserved for it.
constexpr std::size_t kMinRecordSize = kKeyedFixedSize + kSketchFixedSize;
constexpr std::size_t kBinSize = 4 + 8;                        // index, count
/// Corruption guard: no honest sketch carries this many bins.
constexpr std::uint32_t kMaxWireBins = 1u << 20;

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
  put<std::uint32_t>(p, r.key.src.value());
  put<std::uint32_t>(p, r.key.dst.value());
  put<std::uint16_t>(p, r.key.src_port);
  put<std::uint16_t>(p, r.key.dst_port);
  put<std::uint8_t>(p, r.key.proto);
  put<std::uint32_t>(p, r.link);
  put<std::uint16_t>(p, r.sender);
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
  r.key.src = net::Ipv4Address(take<std::uint32_t>(p));
  r.key.dst = net::Ipv4Address(take<std::uint32_t>(p));
  r.key.src_port = take<std::uint16_t>(p);
  r.key.dst_port = take<std::uint16_t>(p);
  r.key.proto = take<std::uint8_t>(p);
  r.link = take<std::uint32_t>(p);
  r.sender = take<std::uint16_t>(p);
  r.epoch = take<std::uint32_t>(p);
  r.sketch = decode_sketch(p, end);
  return r;
}

}  // namespace

std::size_t sketch_wire_size(const common::LatencySketch& sketch) {
  return kSketchFixedSize + sketch.bin_count() * kBinSize;
}

void encode_sketch(std::uint8_t*& p, const common::LatencySketch& sketch) {
  put_f64(p, sketch.config().relative_accuracy);
  put<std::uint32_t>(p, static_cast<std::uint32_t>(sketch.config().max_bins));
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
  common::LatencySketchConfig config;
  config.relative_accuracy = take_f64(p);
  config.max_bins = take<std::uint32_t>(p);
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
  if (bin_count > kMaxWireBins) {
    throw std::runtime_error("EstimateRecord: implausible bin count (corrupt input)");
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
  try {
    return common::LatencySketch::from_parts(config, zero_count, sum, min, max,
                                             std::move(bins));
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("EstimateRecord: corrupt sketch config: ") + e.what());
  }
}

namespace {

/// View counterpart of decode_sketch: same bounds/corruption checks, but
/// bins stay in place. The accuracy-range check stands in for the sketch
/// constructor the owning path ran (same runtime_error verdict).
SketchView decode_sketch_view(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated sketch");
  }
  SketchView v;
  v.relative_accuracy = take_f64(p);
  v.max_bins = take<std::uint32_t>(p);
  v.zero_count = take<std::uint64_t>(p);
  v.sum = take_f64(p);
  v.min = take_f64(p);
  v.max = take_f64(p);
  if (!std::isfinite(v.sum) || !std::isfinite(v.min) || !std::isfinite(v.max)) {
    throw std::runtime_error("EstimateRecord: non-finite sketch moments (corrupt input)");
  }
  v.bin_count = take<std::uint32_t>(p);
  if (v.bin_count > kMaxWireBins) {
    throw std::runtime_error("EstimateRecord: implausible bin count (corrupt input)");
  }
  if (static_cast<std::size_t>(end - p) < static_cast<std::size_t>(v.bin_count) * kBinSize) {
    throw std::runtime_error("EstimateRecord: truncated bins");
  }
  // The owning path validated accuracy inside from_parts (after reading the
  // bins); match its verdict and ordering. Same runtime_error → peers with
  // corrupt configs are dropped, not crashed into.
  if (!(v.relative_accuracy > 0.0) || !(v.relative_accuracy < 1.0)) {
    throw std::runtime_error(
        "EstimateRecord: corrupt sketch config: LatencySketch: relative_accuracy must be in (0, 1)");
  }
  v.bins = p;
  // One warm sequential pass for the total; the merge re-reads the bins from
  // cache. (The owning decoder paid a BinMap node per bin here instead.)
  for (std::uint32_t i = 0; i < v.bin_count; ++i) {
    const std::uint8_t* bin = v.bins + static_cast<std::size_t>(i) * kBinSize + 4;
    v.binned_count += take<std::uint64_t>(bin);
  }
  p += static_cast<std::size_t>(v.bin_count) * kBinSize;
  return v;
}

RecordView decode_record_view(const std::uint8_t*& p, const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kKeyedFixedSize + kSketchFixedSize) {
    throw std::runtime_error("EstimateRecord: truncated record");
  }
  RecordView r;
  r.key.src = net::Ipv4Address(take<std::uint32_t>(p));
  r.key.dst = net::Ipv4Address(take<std::uint32_t>(p));
  r.key.src_port = take<std::uint16_t>(p);
  r.key.dst_port = take<std::uint16_t>(p);
  r.key.proto = take<std::uint8_t>(p);
  r.link = take<std::uint32_t>(p);
  r.sender = take<std::uint16_t>(p);
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
  dst.merge_parts(view.relative_accuracy, view.max_bins, view.zero_count, view.binned_count,
                  view.sum, view.min, view.max, view.bin_count, [&view](auto&& emit) {
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

void encode_record_body(const RecordView& record, std::uint8_t* out) {
  const std::size_t bin_bytes = static_cast<std::size_t>(record.sketch.bin_count) * kBinSize;
  std::uint8_t* p = out;
  put<std::uint32_t>(p, record.key.src.value());
  put<std::uint32_t>(p, record.key.dst.value());
  put<std::uint16_t>(p, record.key.src_port);
  put<std::uint16_t>(p, record.key.dst_port);
  put<std::uint8_t>(p, record.key.proto);
  put<std::uint32_t>(p, record.link);
  put<std::uint16_t>(p, record.sender);
  put<std::uint32_t>(p, record.epoch);
  put_f64(p, record.sketch.relative_accuracy);
  put<std::uint32_t>(p, record.sketch.max_bins);
  put<std::uint64_t>(p, record.sketch.zero_count);
  put_f64(p, record.sketch.sum);
  put_f64(p, record.sketch.min);
  put_f64(p, record.sketch.max);
  put<std::uint32_t>(p, record.sketch.bin_count);
  std::memcpy(p, record.sketch.bins, bin_bytes);
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

void write_records(std::ostream& out, const std::vector<EstimateRecord>& records) {
  const auto buf = encode_records(records);
  out.write(reinterpret_cast<const char*>(buf.data()), static_cast<std::streamsize>(buf.size()));
  if (!out) throw std::runtime_error("EstimateRecord: stream write failed");
}

std::vector<EstimateRecord> read_records(std::istream& in) {
  std::vector<std::uint8_t> buf(std::istreambuf_iterator<char>(in), {});
  return decode_records(buf.data(), buf.size());
}

}  // namespace rlir::collect
