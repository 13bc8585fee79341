// Oracle tests for the log-free bin indexer: over random values spanning
// the full trackable range AND adversarial values sitting exactly on (or one
// ulp either side of) bin boundaries, the fast indexer must return the SAME
// bin as the original libm expression — not a close bin, the same bin.
#include "common/log2_index.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>

#include "common/latency_sketch.h"

namespace rlir::common {
namespace {

std::int32_t sketch_oracle(double value, double log_gamma) {
  return static_cast<std::int32_t>(std::ceil(std::log(value) / log_gamma));
}

double log_gamma_for(double accuracy) {
  return std::log((1.0 + accuracy) / (1.0 - accuracy));
}

TEST(FastLog2, MatchesLibmWithinBound) {
  std::mt19937_64 rng(1);
  std::uniform_real_distribution<double> exponents(-300.0, 300.0);
  for (int i = 0; i < 200000; ++i) {
    const double v = std::exp2(exponents(rng));
    ASSERT_TRUE(fast_log2_usable(v));
    EXPECT_NEAR(fast_log2(v), std::log2(v), kFastLog2MaxError) << "v = " << v;
  }
  // Exact powers of two must be exact (mantissa and residual both zero).
  for (int e = -1022; e <= 1023; ++e) {
    EXPECT_EQ(fast_log2(std::exp2(e)), static_cast<double>(e));
  }
}

TEST(FastLog2, UsableRejectsNonNormalPositive) {
  EXPECT_FALSE(fast_log2_usable(0.0));
  EXPECT_FALSE(fast_log2_usable(-0.0));
  EXPECT_FALSE(fast_log2_usable(-1.5));
  EXPECT_FALSE(fast_log2_usable(std::numeric_limits<double>::denorm_min()));
  EXPECT_FALSE(fast_log2_usable(std::numeric_limits<double>::infinity()));
  EXPECT_FALSE(fast_log2_usable(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_TRUE(fast_log2_usable(std::numeric_limits<double>::min()));
  EXPECT_TRUE(fast_log2_usable(std::numeric_limits<double>::max()));
}

TEST(LogGammaCeilIndexer, MatchesOracleOnRandomValues) {
  std::mt19937_64 rng(2);
  // Latencies in the sketch arrive as ns; sweep far beyond the physical
  // range (1e-3 .. 1e12 ns) on both sides.
  std::uniform_real_distribution<double> exponents(std::log(1e-6), std::log(1e15));
  for (const double accuracy : {0.25, 0.05, 0.01, 0.001, 0.0001}) {
    const double log_gamma = log_gamma_for(accuracy);
    const LogGammaCeilIndexer indexer(log_gamma);
    for (int i = 0; i < 200000; ++i) {
      const double v = std::exp(exponents(rng));
      ASSERT_EQ(indexer.index(v), sketch_oracle(v, log_gamma))
          << "accuracy " << accuracy << " value " << v;
    }
  }
}

TEST(LogGammaCeilIndexer, MatchesOracleOnBinBoundaries) {
  for (const double accuracy : {0.25, 0.01, 0.001}) {
    const double log_gamma = log_gamma_for(accuracy);
    const LogGammaCeilIndexer indexer(log_gamma);
    const int max_bin = static_cast<int>(std::log(1e12) / log_gamma);
    const int step = std::max(1, max_bin / 4000);
    for (int bin = -max_bin; bin <= max_bin; bin += step) {
      // gamma^bin is exactly the boundary between bins `bin` and `bin + 1` —
      // the worst case for any approximate indexer. Probe it and one ulp
      // either side.
      const double boundary = std::exp(static_cast<double>(bin) * log_gamma);
      for (const double v :
           {std::nextafter(boundary, 0.0), boundary,
            std::nextafter(boundary, std::numeric_limits<double>::infinity())}) {
        ASSERT_EQ(indexer.index(v), sketch_oracle(v, log_gamma))
            << "accuracy " << accuracy << " bin " << bin << " value " << v;
      }
    }
  }
}

TEST(LogGammaCeilIndexer, MatchesOracleOnAwkwardInputs) {
  const double log_gamma = log_gamma_for(0.01);
  const LogGammaCeilIndexer indexer(log_gamma);
  for (const double v : {1e-3, 1.0, 2.0, 10.0, std::numeric_limits<double>::min(),
                         std::numeric_limits<double>::denorm_min(),
                         std::numeric_limits<double>::max(), 0.9999999999, 1.0000000001}) {
    EXPECT_EQ(indexer.index(v), sketch_oracle(v, log_gamma)) << "value " << v;
  }
}

// End-to-end: a sketch fed the same stream as libm-era code would produce
// identical bins. (The indexer-level oracles above are the strong check;
// this guards the wiring.)
TEST(Log2IndexIntegration, SketchBinsMatchOracleFormula) {
  LatencySketch sketch;  // 11 decades: about 1,270 bins, under the budget
  const double log_gamma = log_gamma_for(LatencySketchConfig::relative_accuracy);
  std::map<std::int32_t, std::uint64_t> expected;
  std::mt19937_64 rng(4);
  std::uniform_real_distribution<double> exponents(std::log(1e-2), std::log(1e9));
  for (int i = 0; i < 50000; ++i) {
    const double v = std::exp(exponents(rng));
    sketch.add(v);
    expected[sketch_oracle(v, log_gamma)] += 1;
  }
  EXPECT_EQ(sketch.bins(), expected);
}

}  // namespace
}  // namespace rlir::common
