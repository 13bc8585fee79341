#include "obs/metrics.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

namespace rlir::obs {

namespace {

/// Separators no honest name/label contains; they only have to make the
/// identity string injective, never appear on any wire or exposition.
constexpr char kUnitSep = '\x1f';
constexpr char kRecordSep = '\x1e';

[[nodiscard]] std::string identity_key(std::string_view name, const Labels& labels) {
  std::string key(name);
  for (const auto& [k, v] : labels) {
    key += kUnitSep;
    key += k;
    key += kRecordSep;
    key += v;
  }
  return key;
}

void canonicalize(Labels& labels) {
  std::sort(labels.begin(), labels.end());
}

}  // namespace

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(MetricKind kind, std::string_view name,
                                                   Labels&& labels) {
  if (name.empty()) throw std::invalid_argument("MetricsRegistry: empty metric name");
  canonicalize(labels);
  const std::string key = identity_key(name, labels);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("MetricsRegistry: '" + std::string(name) +
                                  "' re-registered as a different kind");
    }
    return it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = std::string(name);
  entry.labels = std::move(labels);
  switch (kind) {
    case MetricKind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case MetricKind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case MetricKind::kHistogram:
      entry.histogram = std::make_unique<Histogram>();
      break;
  }
  return entries_.emplace(key, std::move(entry)).first->second;
}

Counter* MetricsRegistry::counter(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_for(MetricKind::kCounter, name, std::move(labels)).counter.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_for(MetricKind::kGauge, name, std::move(labels)).gauge.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name, Labels labels) {
  std::lock_guard<std::mutex> lock(mu_);
  return entry_for(MetricKind::kHistogram, name, std::move(labels)).histogram.get();
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.samples.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    MetricSample sample;
    sample.kind = entry.kind;
    sample.name = entry.name;
    sample.labels = entry.labels;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.counter = entry.counter->value();
        break;
      case MetricKind::kGauge:
        sample.gauge = entry.gauge->value();
        break;
      case MetricKind::kHistogram:
        sample.histogram = entry.histogram->snapshot();
        break;
    }
    snap.samples.push_back(std::move(sample));
  }
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::uint64_t counter_total(const MetricsSnapshot& snap, std::string_view name) {
  std::uint64_t total = 0;
  for (const auto& sample : snap.samples) {
    if (sample.kind == MetricKind::kCounter && sample.name == name) {
      total = saturating_add_u64(total, sample.counter);
    }
  }
  return total;
}

MetricsSnapshot merge_snapshots(const std::vector<MetricsSnapshot>& parts) {
  // Same identity-key map as the registry, so the merged snapshot comes out
  // in the same deterministic order a single registry would produce.
  std::map<std::string, MetricSample> merged;
  for (const auto& part : parts) {
    for (const auto& sample : part.samples) {
      const std::string key = identity_key(sample.name, sample.labels);
      auto [it, inserted] = merged.try_emplace(key, sample);
      if (inserted) continue;
      MetricSample& into = it->second;
      if (into.kind != sample.kind) {
        throw std::invalid_argument("merge_snapshots: '" + sample.name +
                                    "' appears with conflicting kinds");
      }
      switch (sample.kind) {
        case MetricKind::kCounter:
          into.counter = saturating_add_u64(into.counter, sample.counter);
          break;
        case MetricKind::kGauge:
          into.gauge = std::max(into.gauge, sample.gauge);
          break;
        case MetricKind::kHistogram:
          into.histogram.merge(sample.histogram);
          break;
      }
    }
  }
  MetricsSnapshot snap;
  snap.samples.reserve(merged.size());
  for (auto& [key, sample] : merged) snap.samples.push_back(std::move(sample));
  return snap;
}

}  // namespace rlir::obs
