// Wire codec for observability scrapes: how a kMetrics query reply carries
// one component's full metrics + event-trace state across the RLTF framed
// transport.
//
// Layout (little-endian, strings as u16 length + bytes):
//
//   scrape:  u32 sample_count | sample... | events
//   sample:  u8 kind | str name | u32 label_count | (str key, str value)...
//            | u64 counter / i64 gauge / sketch segment (by kind)
//   events:  u64 dropped | u32 event_count
//            | (u8 kind | i64 ts_ns | u64 value | str detail)...
//
// The sketch segment reuses the estimate-record format
// (collect::encode_sketch), so histogram scrapes merge bin-for-bin exactly
// like every other sketch in the system. The events segment is the ring
// and its eviction count; event totals are counters in the samples. Decoding
// is bounds-checked and throws std::runtime_error on truncated or
// implausible input, matching the transport tier's corruption-guard
// convention.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {

/// One component's scrape: metrics + event trace, the unit a kMetrics
/// query reply carries and a coordinator merges.
struct Scrape {
  MetricsSnapshot metrics;
  EventTraceSnapshot events;
};

[[nodiscard]] std::size_t scrape_wire_size(const Scrape& scrape);

/// Appends the encoded scrape to `out`.
void encode_scrape(std::vector<std::uint8_t>& out, const Scrape& scrape);

/// Decodes one scrape spanning [p, end), advancing `p` past it. Throws
/// std::runtime_error on malformed input.
[[nodiscard]] Scrape decode_scrape(const std::uint8_t*& p, const std::uint8_t* end);

}  // namespace rlir::obs
