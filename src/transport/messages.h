// Payload encodings for the transport tier's query plane: what travels in
// kQuery / kQueryReply frames between a CollectorClient and a
// CollectorAgent. Record batches need no definitions here — a kRecordBatch
// payload is just back-to-back collect::EstimateRecord batches.
//
// Same wire conventions as everything else (little-endian, field-by-field,
// reject-don't-guess); the sketch segments reuse the estimate-record
// helpers so a sketch has exactly one byte layout in the whole system.
//
// Every operator question about RLIR's output — one flow, one link, every
// link, the fleet, the worst flows; live or over an epoch window — is
// answered by an exact bin-wise merge of latency sketches. So there is one
// query (a target and an optional epoch window) and one reply (an optional
// coverage block, then sketch entries, a scrape, or spans). Quantiles,
// ranks and flow summaries are derived from the merged sketches by whoever
// asked. A query's trace context travels in its frame header
// (transport/frame.h), not in the payload.
//
//   query:  u8 target | u8 flags (bit 0 = window) | u32 link | 5-tuple
//           | u32 k | f64 q | u32 epoch_first | u32 epoch_last
//   reply:  u8 body | u8 flags (bit 0 = coverage block follows)
//           [| coverage block: u8 flags | u32 first | u32 last | u64 records]
//           | body:
//     kSketches -> u32 count | count x (u32 link | 5-tuple | sketch segment)
//     kScrape   -> obs scrape segment (see obs/wire.h)
//     kSpans    -> u32 count | count x span | u64 dropped | u64 total
//                  (span = u64 trace_id | u64 span_id | u64 parent_id
//                   | u8 kind | i64 start_ns | i64 end_ns
//                   | u16 label_len | label bytes)
// docs/WIRE.md carries the byte-level offset tables and validation rules.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "collect/history.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/span.h"
#include "obs/wire.h"

namespace rlir::transport {

/// What a query asks about. The five sketch targets answer with sketch
/// entries; the last two are the observability pulls.
enum class Target : std::uint8_t {
  /// Every link's records merged: one entry.
  kFleet = 1,
  /// One vantage (`Query::link`): one entry, none if the link is unseen.
  kLink = 2,
  /// Every vantage with data: one entry per link, ascending by link.
  kLinks = 3,
  /// One flow's merged sketch (`Query::flow`): one entry, none if unseen.
  kFlow = 4,
  /// The `k` worst flows at quantile `q`, worst first, one entry (the
  /// flow's full sketch) per flow — a higher tier ranks and summarizes.
  kTopK = 5,
  /// The agent's observability scrape: registry metrics plus the event
  /// trace — what a remote scraper or a coordinator roll-up reads.
  kMetrics = 6,
  /// The agent's span ring. The trace id doubles as the filter (0 = the
  /// whole ring). Never traced at any hop, so pulling a trace cannot
  /// pollute it. A coordinator unions these rings into a cross-process trace.
  kSpans = 7,
};

/// Inclusive epoch range of a time-travel query.
struct EpochWindow {
  std::uint32_t first = 0;
  std::uint32_t last = 0;
};

struct Query {
  Target target = Target::kFleet;
  /// kLink: the vantage.
  collect::LinkId link = 0;
  /// kFlow: the flow.
  net::FiveTuple flow{};
  /// kTopK: how many flows, ranked at quantile q.
  std::uint32_t k = 0;
  double q = 0.99;
  /// Absent = live collector state. Present = merged from the history store
  /// over the window; valid for kFleet, kLink and kFlow only (the targets
  /// the store reports coverage for). Decode rejects it on any other target
  /// and rejects first > last.
  std::optional<EpochWindow> window{};
  /// Distributed-trace context; trace_id 0 = untraced. For kSpans it is the
  /// ring filter instead (see Target). It travels in the frame header: the
  /// client writes it there and the agent copies it back before answering.
  obs::TraceContext trace{};
};

/// Stable exposition name of a query, used as span labels: the target
/// ("fleet", "link", "links", "flow", "top_k", "metrics", "spans"), prefixed
/// "window_" when the query carries a window.
[[nodiscard]] std::string query_name(const Query& query);

/// One sketch answer: the distribution plus what it is the distribution of.
/// Coordinates the target does not use are zero (a fleet entry has link 0
/// and a zero 5-tuple; a flow entry has link 0).
struct SketchEntry {
  collect::LinkId link = 0;
  net::FiveTuple flow;
  common::LatencySketch sketch;
};

enum class ReplyBody : std::uint8_t {
  kSketches = 1,  ///< sketch targets
  kScrape = 2,    ///< Target::kMetrics
  kSpans = 3,     ///< Target::kSpans
};

struct QueryReply {
  ReplyBody body = ReplyBody::kSketches;
  /// Window replies only: what the merged answer covers. An agent without a
  /// history store answers covered=false and no entries.
  std::optional<collect::WindowCoverage> coverage;
  /// kSketches, in the target's order (see Target).
  std::vector<SketchEntry> entries;
  /// kScrape.
  obs::Scrape scrape;
  /// kSpans: the answering process's retained spans (filtered to the
  /// requested trace when the query carried one), oldest first, plus the
  /// ring's eviction accounting so an assembler can flag gaps.
  obs::SpanRecorderSnapshot spans;
};

[[nodiscard]] std::vector<std::uint8_t> encode_query(const Query& query);
/// Throws std::runtime_error on malformed input.
[[nodiscard]] Query decode_query(const std::uint8_t* data, std::size_t size);

[[nodiscard]] std::vector<std::uint8_t> encode_reply(const QueryReply& reply);
/// Throws std::runtime_error on malformed input. A count is checked against
/// the bytes left before anything is reserved for it.
[[nodiscard]] QueryReply decode_reply(const std::uint8_t* data, std::size_t size);

}  // namespace rlir::transport
