// Mergeable relative-error quantile sketch (DDSketch-style) for latency
// distributions.
//
// Per-flow latency state must be bounded: a FlowStatsMap entry is O(1) but
// only answers mean/stddev, while a raw sample list answers quantiles at
// O(packets) memory. The sketch is the middle ground the collection tier is
// built on — logarithmic buckets sized so every quantile answer is within
// 1% of the true order statistic, with memory bounded by 2,048 bins
// regardless of how many samples are added.
//
// Every sketch in the system has that one shape: the relative accuracy and
// the bin budget are constants of LatencySketchConfig, so no config, wire
// byte or check carries them, and any two sketches merge exactly.
//
// Properties:
//   * add() is O(1); quantile() is O(bins);
//   * merge() of two sketches equals the sketch of the concatenated sample
//     streams, bin for bin (merge is exact, so it is associative and
//     commutative — the property sharded collection needs);
//   * when the bin budget overflows, the lowest bins collapse into one,
//     degrading only low quantiles (latency monitoring cares about the upper
//     tail).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>

#include "common/bin_store.h"

namespace rlir::common {

/// The one sketch shape. It holds no state: both values are constants.
struct LatencySketchConfig {
  /// Quantile answers are within this relative error of the true order
  /// statistic (for uncollapsed bins). 0.01 = 1%.
  static constexpr double relative_accuracy = 0.01;
  /// Bin budget; exceeding it collapses the lowest bins together.
  static constexpr std::size_t max_bins = 2048;
};

class LatencySketch {
 public:
  /// Map form of serialized bin state — what the owning wire decoder builds
  /// before from_parts. Internal storage is a sorted flat vector
  /// (common/bin_store.h); iteration order is identical (ascending index).
  using BinMap = std::map<std::int32_t, std::uint64_t>;

  LatencySketch() = default;
  /// Same as the default constructor: there is one shape. Kept so
  /// `LatencySketch out(s.config())`, which perfbench/src/main.cpp writes,
  /// still compiles.
  explicit LatencySketch(LatencySketchConfig /*config*/) {}

  /// Records one observation. Values below the minimum trackable latency
  /// (1e-3 ns — far below anything physical) land in the zero bin, including
  /// zero and negative values: latencies are nonnegative by construction and
  /// a negative estimate is an interpolation artifact best treated as ~0.
  /// Non-finite values (NaN, ±inf) are dropped entirely.
  void add(double value) { add(value, 1); }
  void add(double value, std::uint64_t count);

  /// Exact union with `other` (bin-wise count addition), collapsed back to
  /// the bin budget.
  void merge(const LatencySketch& other);

  /// Zero-copy merge of serialized sketch state: behaves exactly like
  /// `merge(from_parts(zero_count, sum, min, max, bins))` — bin for bin —
  /// without materializing the intermediate sketch or its BinMap.
  ///
  /// `each_bin` is invoked with a `void(std::int32_t index, std::uint64_t
  /// count)` callback and must visit every serialized bin (duplicates
  /// accumulate, as from_parts' map construction did); `binned_count` must be
  /// the sum of those counts. The serialized bins must number at most
  /// max_bins, as the wire decoders enforce: from_parts would collapse more
  /// before the merge.
  template <typename BinFn>
  void merge_parts(std::uint64_t zero_count, std::uint64_t binned_count, double sum,
                   double min, double max, BinFn&& each_bin) {
    if (zero_count + binned_count == 0) return;  // merge()'s empty-other early-out
    if (empty()) {
      min_ = min;
      max_ = max;
    } else {
      min_ = min_ < min ? min_ : min;
      max_ = max_ > max ? max_ : max;
    }
    sum_ += sum;
    zero_count_ += zero_count;
    binned_count_ += binned_count;
    each_bin([this](std::int32_t index, std::uint64_t count) { bins_.add(index, count); });
    collapse_if_needed();
  }

  /// Value within the relative accuracy of the order statistic at rank
  /// floor(q * (count-1)), q clamped to [0,1]. 0 when empty.
  [[nodiscard]] double quantile(double q) const;

  [[nodiscard]] std::uint64_t count() const { return zero_count_ + binned_count_; }
  [[nodiscard]] bool empty() const { return count() == 0; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return empty() ? 0.0 : sum_ / static_cast<double>(count()); }
  [[nodiscard]] double min() const { return empty() ? 0.0 : min_; }
  [[nodiscard]] double max() const { return empty() ? 0.0 : max_; }
  /// Observations that fell into the zero bin.
  [[nodiscard]] std::uint64_t zero_count() const { return zero_count_; }

  [[nodiscard]] std::size_t bin_count() const { return bins_.size(); }
  /// Times the bin budget forced a collapse (0 = all quantiles in-bound).
  [[nodiscard]] std::uint64_t collapses() const { return collapses_; }
  /// In-memory footprint estimate: O(bins), never O(samples).
  [[nodiscard]] std::size_t approx_bytes() const;

  /// The constants every sketch shares.
  [[nodiscard]] static constexpr LatencySketchConfig config() { return {}; }
  [[nodiscard]] const BinStore& bins() const { return bins_; }

  /// Representative value (within the relative accuracy) for a bin index from
  /// bins() — what an exposition writer needs to turn bins into bucket
  /// upper bounds.
  [[nodiscard]] double bin_value(std::int32_t index) const { return value_for(index); }

  /// Rebuilds a sketch from serialized state (the estimate-record wire
  /// format). Count is derived from the bins; collapses if `bins` exceeds
  /// the bin budget.
  [[nodiscard]] static LatencySketch from_parts(std::uint64_t zero_count, double sum,
                                                double min, double max, const BinMap& bins);
  /// Same, from another sketch's bins() (round-trip/re-bucket helpers).
  [[nodiscard]] static LatencySketch from_parts(std::uint64_t zero_count, double sum,
                                                double min, double max, BinStore bins);

 private:
  [[nodiscard]] static double value_for(std::int32_t index);
  void collapse_if_needed();

  BinStore bins_;
  std::uint64_t zero_count_ = 0;
  std::uint64_t binned_count_ = 0;
  std::uint64_t collapses_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rlir::common
