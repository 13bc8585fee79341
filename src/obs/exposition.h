// Exposition writers: turn snapshots into scrapeable text.
//
// Two formats over the same MetricsSnapshot:
//   * to_prometheus() — Prometheus text exposition (one "# TYPE" per metric
//     name, histograms as cumulative _bucket/_sum/_count series, label
//     values escaped). Counters must already carry their _total suffix in
//     the registered name; the writer never renames.
//   * to_json() — a machine-readable dump carrying what Prometheus text
//     cannot (exact bins, min/max, the event ring with timestamps).
//
// Writers sort internally by (name, labels); callers may append synthetic
// samples (append_counter) in any order. The JSON string and events
// writers are exported so every JSON document in obs/ (the Chrome trace,
// the flight-recorder dump) escapes and renders the same way.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {

/// Appends one synthetic counter sample — how scrape paths fold values that
/// live outside the registry (e.g. an agent's collector totals) into a
/// snapshot without double-registering them.
void append_counter(MetricsSnapshot& snap, std::string name, Labels labels,
                    std::uint64_t value);

/// Appends `v` as a quoted JSON string: backslash, quote and control
/// characters escaped, every other byte copied as-is.
void append_json_string(std::string& out, std::string_view v);

/// Appends "events":{"dropped":N,"recent":[{"kind","ts_ns","value",
/// "detail"}...]} — the ring, oldest first, and its eviction count.
void append_json_events(std::string& out, const EventTraceSnapshot& trace);

/// Prometheus text exposition of the snapshot. Histograms expose cumulative
/// buckets: le="0" for the sketch zero bin, one bucket per sketch bin at its
/// representative upper value, then le="+Inf"; plus _sum and _count.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap);

/// JSON object {"metrics":[...]} with exact per-sample state (histograms
/// keep their raw bins, min/max and p50/p99/p999 convenience quantiles).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

/// JSON object {"metrics":[...],"events":{...}} — the full observability
/// state of one component: metrics plus the event ring.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap,
                                  const EventTraceSnapshot& trace);

}  // namespace rlir::obs
