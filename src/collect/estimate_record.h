// The estimate-record wire format: how receivers ship per-flow latency
// summaries to the collection tier.
//
// A record is one flow's latency sketch for one epoch as seen from one
// vantage point (a deployed RLIR receiver, identified by LinkId). Records
// travel in batches with a self-describing header, mirroring the trace-file
// conventions (little-endian, magic + version, field-by-field packing):
//
//   batch:   magic "RLES" | u32 version | u64 record count
//   record:  5-tuple (4+4+2+2+1) | u32 link | u16 sender | u32 epoch
//            | f64 relative_accuracy | u32 max_bins
//            | u64 zero_count | f64 sum | f64 min | f64 max
//            | u32 bin_count | bin_count x (i32 index, u64 count)
//
// Decoding rejects bad magic, unsupported versions, truncated input, and
// implausible bin counts (corruption guard) with std::runtime_error.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "net/packet.h"

namespace rlir::collect {

inline constexpr std::uint32_t kEstimateWireVersion = 1;

/// Vantage-point identifier: which deployed receiver (router interface)
/// produced a record. Assigned by the collection tier at deployment.
using LinkId = std::uint32_t;
inline constexpr LinkId kNoLink = 0xffffffff;

struct EstimateRecord {
  net::FiveTuple key;
  LinkId link = kNoLink;
  /// RLI sender whose references anchored the estimates (provenance).
  net::SenderId sender = net::kNoSender;
  /// Collection epoch the estimates belong to; merging across epochs is the
  /// collector's job.
  std::uint32_t epoch = 0;
  common::LatencySketch sketch;
};

/// Serializes a batch. Throws std::runtime_error on stream failure.
void write_records(std::ostream& out, const std::vector<EstimateRecord>& records);
/// Deserializes a batch. Throws std::runtime_error on malformed input.
[[nodiscard]] std::vector<EstimateRecord> read_records(std::istream& in);

/// Byte-buffer conveniences (what an RPC transport would carry).
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
  double relative_accuracy = 0.0;
  std::uint32_t max_bins = 0;
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
struct RecordView {
  net::FiveTuple key;
  LinkId link = kNoLink;
  net::SenderId sender = net::kNoSender;
  std::uint32_t epoch = 0;
  SketchView sketch;
};

/// View-based overload of decode_records_prefix: appends one batch's records
/// to `out` (not cleared — callers reuse it as a scratch arena across
/// batches) and returns the bytes consumed. Performs the same validation and
/// throws the same std::runtime_errors as the owning decoder, including
/// rejecting out-of-range relative accuracies (which the owning path caught
/// via sketch construction). Views borrow `data`; they are invalidated by
/// whatever invalidates it.
std::size_t decode_record_views_prefix(const std::uint8_t* data, std::size_t size,
                                       std::vector<RecordView>& out);

/// Merges a decoded view into `dst` exactly as
/// `dst.merge(decode_sketch(...)-materialized sketch)` would — bin for bin —
/// without building the intermediate. Throws std::invalid_argument on a
/// relative-accuracy mismatch, like merge.
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
// just its appended bodies.

/// Writes one record body (keyed fields + sketch segment) at `out`, which
/// the caller guarantees has wire_size(record) bytes of room. The serialized
/// bins are copied verbatim (one memcpy), so logging a decoded view costs no
/// sketch materialization.
void encode_record_body(const RecordView& record, std::uint8_t* out);
/// Decodes back-to-back record bodies until the buffer is exhausted,
/// appending views to `out` (not cleared). Same validation and
/// std::runtime_errors as the batch decoder; views borrow `data`.
void decode_record_body_views(const std::uint8_t* data, std::size_t size,
                              std::vector<RecordView>& out);

// --- Sketch segment helpers ------------------------------------------------
// The sketch portion of a record (config, moments, bins) is a format of its
// own, reused by the transport tier's query replies to ship bare sketches.

/// Bytes of a sketch segment before its bins (accuracy, max bins, zero count,
/// sum, min, max, bin count) — an empty sketch's whole segment, and the floor
/// a decoder checks a claimed entry count against.
inline constexpr std::size_t kSketchFixedSize = 8 + 4 + 8 + 8 + 8 + 8 + 4;

/// Exact wire size of one sketch's segment in bytes.
[[nodiscard]] std::size_t sketch_wire_size(const common::LatencySketch& sketch);
/// Writes the sketch segment at `p`, advancing it; the caller guarantees
/// sketch_wire_size() bytes of room.
void encode_sketch(std::uint8_t*& p, const common::LatencySketch& sketch);
/// Parses one sketch segment at `p` (advancing it), bounds-checked against
/// `end`. Throws std::runtime_error on truncated/corrupt input.
[[nodiscard]] common::LatencySketch decode_sketch(const std::uint8_t*& p,
                                                  const std::uint8_t* end);

}  // namespace rlir::collect
