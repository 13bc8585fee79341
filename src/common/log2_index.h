// Log-free logarithmic bin indexing.
//
// LatencySketch's bin index (ceil(ln v / ln gamma)) would spend a libm
// transcendental call per observation — the single largest per-record cost
// in the collector ingest path. This header replaces that call with bit
// arithmetic: a double already stores its own log2 (exponent field plus a
// mantissa in [1,2)), so
//
//   log2(v) = exponent + log2_table[top mantissa bits] + poly(residual)
//
// where the 128-entry correction table anchors the mantissa and a short
// Taylor polynomial covers the residual r in [0, 1/128] (remainder < 1e-11).
//
// The indexer below is *bin-for-bin identical* to the exact libm formula by
// construction, not merely close: the fast path's absolute error is bounded,
// so whenever the scaled log lands within a guard band of an integer bin
// boundary — the only place a bounded error can flip the answer — the
// indexer falls back to the original libm expression. Everywhere else the
// fast and exact paths provably round to the same bin. The oracle tests in
// tests/test_log2_index.cpp sweep random values and exact bin boundaries to
// hold this contract.
#pragma once

#include <cstdint>

namespace rlir::common {

/// Approximate log2 for a positive, finite, normal double; absolute error
/// < kFastLog2MaxError. Callers must route other inputs (checked via
/// fast_log2_usable) to an exact path.
[[nodiscard]] double fast_log2(double v);

/// Conservative bound on |fast_log2(v) - log2(v)|.
inline constexpr double kFastLog2MaxError = 1e-10;

/// True when `v` is positive, finite, and normal — the domain fast_log2
/// handles. Subnormals, zeros, negatives, infinities, and NaNs return false.
[[nodiscard]] bool fast_log2_usable(double v);

/// Drop-in replacement for `ceil(log(value) / log_gamma)` (the DDSketch bin
/// index): identical result for every input, log-free for all but the
/// boundary-adjacent sliver of values.
class LogGammaCeilIndexer {
 public:
  LogGammaCeilIndexer() = default;
  explicit LogGammaCeilIndexer(double log_gamma);

  /// Exactly `static_cast<int32_t>(ceil(log(value) / log_gamma))`.
  [[nodiscard]] std::int32_t index(double value) const;

 private:
  [[nodiscard]] std::int32_t exact_index(double value) const;

  double log_gamma_ = 1.0;
  double bins_per_octave_ = 0.0;  // ln(2) / log_gamma: scales log2 to bins
  double guard_ = 0.0;            // half-width of the exact-fallback band
};

}  // namespace rlir::common
