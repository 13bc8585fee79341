#include "common/latency_sketch.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/log2_index.h"

namespace rlir::common {

namespace {

/// Values below this (in ns) are indistinguishable from zero latency; they
/// share the zero bin so the log mapping never sees a non-positive input.
constexpr double kMinTrackable = 1e-3;

// The bin geometry, computed once from the one relative accuracy a.
constexpr double kAccuracy = LatencySketchConfig::relative_accuracy;
/// ln gamma, gamma = (1+a)/(1-a): bin i covers (gamma^(i-1), gamma^i].
const double kLogGamma = std::log((1.0 + kAccuracy) / (1.0 - kAccuracy));
const double kGamma = std::exp(kLogGamma);
/// ceil(log_gamma(value)): every value in (gamma^(i-1), gamma^i] maps to i,
/// so the bin's representative value is within the accuracy of it. Computed
/// log-free (common/log2_index.h), bin-for-bin identical to
/// ceil(log(value) / kLogGamma).
const LogGammaCeilIndexer kIndexer(kLogGamma);

}  // namespace

double LatencySketch::value_for(std::int32_t index) {
  // Midpoint 2*gamma^i / (gamma + 1) minimizes the worst-case relative error
  // over the bin (the standard DDSketch representative).
  return 2.0 * std::exp(static_cast<double>(index) * kLogGamma) / (kGamma + 1.0);
}

void LatencySketch::add(double value, std::uint64_t count) {
  // Non-finite values are estimator artifacts with no usable magnitude:
  // recording them would poison sum/max and (for +inf) overflow the int32
  // bin index. Dropped, not zero-binned, so counts stay honest.
  if (count == 0 || !std::isfinite(value)) return;
  if (empty()) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  sum_ += value * static_cast<double>(count);
  if (value < kMinTrackable) {  // negatives included
    zero_count_ += count;
    return;
  }
  bins_.add(kIndexer.index(value), count);
  binned_count_ += count;
  collapse_if_needed();
}

void LatencySketch::collapse_if_needed() {
  while (bins_.size() > LatencySketchConfig::max_bins) {
    // Fold the lowest bin into its neighbor above: only quantiles below the
    // surviving bin's range lose accuracy, preserving the tail.
    bins_.fold_lowest();
    ++collapses_;
  }
}

void LatencySketch::merge(const LatencySketch& other) {
  if (other.empty()) return;
  if (empty()) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  sum_ += other.sum_;
  zero_count_ += other.zero_count_;
  binned_count_ += other.binned_count_;
  for (const auto& [index, count] : other.bins_) bins_.add(index, count);
  collapse_if_needed();
}

double LatencySketch::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target the 0-based order statistic floor(q * (n-1)); return the
  // representative value of the bin containing it.
  const double rank = q * static_cast<double>(n - 1);
  std::uint64_t cum = zero_count_;
  if (static_cast<double>(cum) > rank) return 0.0;
  for (const auto& [index, bin_count_v] : bins_) {
    cum += bin_count_v;
    if (static_cast<double>(cum) > rank) return value_for(index);
  }
  return max_;  // unreachable unless rank == n-1 lands on the last element
}

std::size_t LatencySketch::approx_bytes() const {
  // Flat bin array: what the vector actually reserved, plus the object.
  return sizeof(LatencySketch) + bins_.capacity_bytes();
}

LatencySketch LatencySketch::from_parts(std::uint64_t zero_count, double sum, double min,
                                        double max, const BinMap& bins) {
  BinStore store;
  // Ascending map order hits the store's append fast path throughout.
  for (const auto& [index, count] : bins) store.add(index, count);
  return from_parts(zero_count, sum, min, max, std::move(store));
}

LatencySketch LatencySketch::from_parts(std::uint64_t zero_count, double sum, double min,
                                        double max, BinStore bins) {
  LatencySketch s;
  s.zero_count_ = zero_count;
  s.sum_ = sum;
  s.min_ = min;
  s.max_ = max;
  s.bins_ = std::move(bins);
  for (const auto& [index, count] : s.bins_) {
    (void)index;
    s.binned_count_ += count;
  }
  s.collapse_if_needed();
  return s;
}

}  // namespace rlir::common
