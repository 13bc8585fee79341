// The estimate-record wire format: how receivers ship per-flow latency
// summaries to the collection tier.
//
// A record is one flow's latency sketch for one epoch as seen from one
// vantage point (a deployed RLIR receiver, identified by LinkId). Records
// travel in batches with a self-describing header, mirroring the trace-file
// conventions (little-endian, magic + version, field-by-field packing):
//
//   batch:   magic "RLES" | u32 version | u64 record count
//   record:  5-tuple (4+4+2+2+1) | u32 link | u32 epoch
//            | u64 zero_count | f64 sum | f64 min | f64 max
//            | u32 bin_count | bin_count x (i32 index, u64 count)
//
// No sketch accuracy or budget travels: every sketch has the one shape of
// common::LatencySketchConfig. Decoding rejects bad magic, unsupported
// versions, truncated input, non-finite moments, bin counts above the
// budget (no honest encoder exceeds it) and empty sketches that are not all
// zeros with std::runtime_error.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/latency_sketch.h"
#include "net/flow_key.h"

namespace rlir::collect {

/// 2: the sketch segment lost its f64 relative accuracy and u32 max bins.
/// 3: the keyed fields lost the u16 RLI sender, which nothing read.
inline constexpr std::uint32_t kEstimateWireVersion = 3;

/// Vantage-point identifier: which deployed receiver (router interface)
/// produced a record. Assigned by the collection tier at deployment.
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = 0xffffffff;

struct EstimateRecord {
  net::FiveTuple key;
  LinkId link = kNoLink;
  /// Collection epoch the estimates belong to; merging across epochs is the
  /// collector's job.
  std::uint32_t epoch = 0;
  common::LatencySketch sketch;
};

/// Serializes a batch: the one encoder of the record layout.
[[nodiscard]] std::vector<std::uint8_t> encode_records(const std::vector<EstimateRecord>& records);
/// Decodes exactly one batch spanning the whole buffer; trailing bytes are an
/// error. For back-to-back batches use decode_records_prefix.
[[nodiscard]] std::vector<EstimateRecord> decode_records(const std::uint8_t* data,
                                                         std::size_t size);

/// One decoded batch plus where it ended — what a streaming consumer needs
/// to pick up the next batch without re-scanning.
struct DecodedBatch {
  std::vector<EstimateRecord> records;
  /// Bytes of the buffer this batch occupied (header + records); the next
  /// batch, if any, starts at data + bytes_consumed.
  std::size_t bytes_consumed = 0;
};

/// Decodes one batch from the front of the buffer, tolerating trailing bytes
/// (the following batches of a coalesced stream). Throws std::runtime_error
/// on malformed input, same as decode_records.
[[nodiscard]] DecodedBatch decode_records_prefix(const std::uint8_t* data, std::size_t size);

// --- Zero-copy record views ------------------------------------------------
// The ingest hot path never needs an owning EstimateRecord: the collector
// merges each sketch into its own state and drops the record. Views keep the
// bins where they already are — in the frame payload — so decoding a batch
// allocates nothing per record (no LatencySketch, no BinMap nodes) and the
// bins are read exactly once, during the merge itself.

/// A sketch's serialized state, validated but not materialized. Bins remain
/// wire bytes; borrow lifetime is the underlying buffer's (a FrameView's
/// payload: until the decoder's next feed()).
struct SketchView {
  std::uint64_t zero_count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint32_t bin_count = 0;
  /// Sum of all bin counts (computed during decode validation).
  std::uint64_t binned_count = 0;
  /// bin_count x (i32 index, u64 count), little-endian, borrowed.
  const std::uint8_t* bins = nullptr;

  /// Total observations (zero bin + all bins).
  [[nodiscard]] std::uint64_t count() const { return zero_count + binned_count; }
};

/// One record of a batch, keyed fields decoded, sketch left as a view.
/// Only the decoders make views.
struct RecordView {
  net::FiveTuple key;
  LinkId link = kNoLink;
  std::uint32_t epoch = 0;
  SketchView sketch;
  /// The record's first wire byte, borrowed like the bins: the record is the
  /// wire_size(view) bytes from here, which the history store logs as they
  /// came.
  const std::uint8_t* wire = nullptr;
};

/// View-based overload of decode_records_prefix: appends one batch's records
/// to `out` (not cleared — callers reuse it as a scratch arena across
/// batches) and returns the bytes consumed. Performs the same validation and
/// throws the same std::runtime_errors as the owning decoder. Views borrow
/// `data`; they are invalidated by whatever invalidates it.
std::size_t decode_record_views_prefix(const std::uint8_t* data, std::size_t size,
                                       std::vector<RecordView>& out);

/// Merges a decoded view into `dst` exactly as
/// `dst.merge(decode_sketch(...)-materialized sketch)` would — bin for bin —
/// without building the intermediate.
void merge_sketch_view(common::LatencySketch& dst, const SketchView& view);

/// Exact wire size of one record in bytes (memory/bandwidth accounting).
[[nodiscard]] std::size_t wire_size(const EstimateRecord& record);
/// View counterpart (same layout; bins stay serialized, so this is exact).
[[nodiscard]] std::size_t wire_size(const RecordView& record);

/// An owned batch encoded once and decoded as views that borrow `bytes`
/// (moving the struct keeps them valid: the buffer does not move).
struct EncodedViews {
  std::vector<std::uint8_t> bytes;
  std::vector<RecordView> views;
};
/// Encodes `records` as one batch and decodes its views — how the collector
/// and the history store, whose one merge body takes views, ingest owned
/// records.
[[nodiscard]] EncodedViews encode_views(const std::vector<EstimateRecord>& records);

// --- Record-body helpers ---------------------------------------------------
// The history store's raw tier logs record bodies back-to-back WITHOUT the
// batch header: each body is self-delimiting (fixed keyed fields plus a
// sketch segment whose bin count says where it ends), so an epoch's log is
// just its appended bodies, each copied from its view's wire bytes.

/// Decodes back-to-back record bodies until the buffer is exhausted,
/// appending views to `out` (not cleared). Same validation and
/// std::runtime_errors as the batch decoder; views borrow `data`.
void decode_record_body_views(const std::uint8_t* data, std::size_t size,
                              std::vector<RecordView>& out);

// --- Sketch segment helpers ------------------------------------------------
// The sketch portion of a record (moments, bins) is a format of its own,
// reused by the transport tier's query replies and the metrics scrape to
// ship bare sketches.

/// Bytes of a sketch segment before its bins (zero count, sum, min, max, bin
/// count) — an empty sketch's whole segment, and the floor a decoder checks a
/// claimed entry count against.
inline constexpr std::size_t kSketchFixedSize = 8 + 8 + 8 + 8 + 4;

/// Exact wire size of one sketch's segment in bytes.
[[nodiscard]] std::size_t sketch_wire_size(const common::LatencySketch& sketch);
/// Writes the sketch segment at `p`, advancing it; the caller guarantees
/// sketch_wire_size() bytes of room.
void encode_sketch(std::uint8_t*& p, const common::LatencySketch& sketch);
/// Parses one sketch segment at `p` (advancing it), bounds-checked against
/// `end`. Throws std::runtime_error on truncated/corrupt input, including an
/// empty sketch (zero total count) whose moments or bin count are not all 0.
[[nodiscard]] common::LatencySketch decode_sketch(const std::uint8_t*& p,
                                                  const std::uint8_t* end);

}  // namespace rlir::collect
