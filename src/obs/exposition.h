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
// samples (append_counter / append_event_counters) in any order.
#pragma once

#include <cstdint>
#include <string>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {

/// Appends one synthetic counter sample — how scrape paths fold values that
/// live outside the registry (e.g. an agent's collector totals) into a
/// snapshot without double-registering them.
void append_counter(MetricsSnapshot& snap, std::string name, Labels labels,
                    std::uint64_t value);

/// Folds the trace's total-ever per-kind counters into the snapshot as
/// rlir_events_total{kind="..."} (+ rlir_events_dropped_total), so event
/// activity is visible to a counters-only scraper and participates in the
/// coordinator merge like any other counter.
void append_event_counters(MetricsSnapshot& snap, const EventTraceSnapshot& trace,
                           const Labels& base_labels = {});

/// Prometheus text exposition of the snapshot. Histograms expose cumulative
/// buckets: le="0" for the sketch zero bin, one bucket per sketch bin at its
/// representative upper value, then le="+Inf"; plus _sum and _count.
[[nodiscard]] std::string to_prometheus(const MetricsSnapshot& snap);

/// JSON object {"metrics":[...]} with exact per-sample state (histograms
/// keep their raw bins, min/max and p50/p99/p999 convenience quantiles).
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap);

/// JSON object {"metrics":[...],"events":{...}} — the full observability
/// state of one component: metrics plus event counts and the recent ring.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snap,
                                  const EventTraceSnapshot& trace);

}  // namespace rlir::obs
