// The observability substrate: a thread-safe registry of named metrics.
//
// The paper's premise is that operators cannot see latency inside the
// network; this tier makes sure the reproduction can at least see *itself*.
// Every component that used to keep an ad-hoc Stats struct registers its
// counters/gauges/histograms here instead, and the Stats structs become
// views over the registry — one source of truth that a scraper, a remote
// kMetrics query, or a coordinator roll-up can all read.
//
// Design:
//   * identity = (kind, name, sorted labels). Registering the same identity
//     twice returns the SAME cell (a re-attach, not a duplicate series);
//     registering it with a different kind throws.
//   * updates are handle-based and hot-path safe: a Counter/Gauge is one
//     relaxed atomic op through a stable pointer, no lock, no lookup; a
//     Histogram is a per-cell mutex around a common::LatencySketch add
//     (uncontended in the single-owner components that use it).
//   * snapshot() is the only full-registry lock, and what every exposition
//     format (Prometheus text, JSON, the kMetrics wire reply) consumes.
//   * merge_snapshots() is the coordinator's fleet roll-up: counters sum
//     (saturating), gauges take the max, histograms union bin-wise — the
//     same exactness contract as the query tier's sketch merges.
//
// Naming scheme (see README "Observability"): rlir_<tier>_<name>, counters
// suffixed _total, instances distinguished by an {instance="..."} label.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/latency_sketch.h"

namespace rlir::obs {

enum class MetricKind : std::uint8_t { kCounter = 1, kGauge = 2, kHistogram = 3 };

[[nodiscard]] const char* metric_kind_name(MetricKind kind);

/// Label set; canonicalized (sorted by key) at registration so identity and
/// exposition ordering are deterministic.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count. add() is one relaxed atomic op — safe from any
/// thread, cheap enough for ingest hot paths.
class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  void increment() { add(1); }
  [[nodiscard]] std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time level (queue depth, buffered bytes, connection count).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  [[nodiscard]] std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Latency/size distribution backed by a mergeable LatencySketch. observe()
/// takes a per-cell mutex (uncontended unless several threads share one
/// histogram); snapshot() copies the sketch under it.
class Histogram {
 public:
  explicit Histogram(common::LatencySketchConfig config) : sketch_(config) {}

  void observe(double value) {
    std::lock_guard<std::mutex> lock(mu_);
    sketch_.add(value);
  }
  [[nodiscard]] common::LatencySketch snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return sketch_;
  }

 private:
  mutable std::mutex mu_;
  common::LatencySketch sketch_;
};

/// One metric's value at snapshot time. Exactly one of counter/gauge/
/// histogram is meaningful, selected by kind.
struct MetricSample {
  MetricKind kind = MetricKind::kCounter;
  std::string name;
  Labels labels;
  std::uint64_t counter = 0;
  std::int64_t gauge = 0;
  common::LatencySketch histogram;
};

/// A consistent point-in-time read of a registry (or a merge of several),
/// sorted by (name, labels) — the input to every exposition writer.
struct MetricsSnapshot {
  std::vector<MetricSample> samples;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Returns the cell for (name, labels), creating it on first request.
  /// The pointer is stable for the registry's lifetime. Throws
  /// std::invalid_argument on an empty name or if the identity already
  /// exists with a different kind.
  Counter* counter(std::string_view name, Labels labels = {});
  Gauge* gauge(std::string_view name, Labels labels = {});
  /// `config` applies only when the cell is created by this call.
  Histogram* histogram(std::string_view name, Labels labels = {},
                       common::LatencySketchConfig config = {});

  /// Consistent read of every registered metric, sorted by (name, labels).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Registered series count.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    MetricKind kind = MetricKind::kCounter;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  /// Looks up / creates the entry for one identity; caller picks the cell.
  Entry& entry_for(MetricKind kind, std::string_view name, Labels&& labels,
                   const common::LatencySketchConfig* sketch_config);

  mutable std::mutex mu_;
  /// Key = name + '\x1f' + k + '\x1e' + v + ... — canonical identity; map
  /// iteration order gives snapshot() its deterministic sort for free.
  std::map<std::string, Entry> entries_;
};

/// a + b clamped to the maximum — fleet counter roll-ups must not wrap.
[[nodiscard]] constexpr std::uint64_t saturating_add_u64(std::uint64_t a, std::uint64_t b) {
  const std::uint64_t sum = a + b;
  return sum < a ? ~std::uint64_t{0} : sum;
}

/// Sum (saturating) of every counter sample named `name`, across label sets
/// — the "fleet total" read of a scrape or a merged roll-up.
[[nodiscard]] std::uint64_t counter_total(const MetricsSnapshot& snap, std::string_view name);

/// Fleet roll-up: samples with the same (kind, name, labels) merge —
/// counters sum (saturating), gauges keep the max, histograms union
/// bin-wise (exact, like every sketch merge in the system). A key appearing
/// with conflicting kinds throws std::invalid_argument. Result is sorted
/// like MetricsRegistry::snapshot().
[[nodiscard]] MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts);

}  // namespace rlir::obs
