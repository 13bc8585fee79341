// LatencySketch: relative-error guarantee against Cdf ground truth, exact
// mergeability (associativity/commutativity), bounded memory via collapsing
// at the 2,048-bin budget, and the zero/negative-value edge cases.
#include "common/latency_sketch.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"

namespace rlir::common {
namespace {

constexpr double kAccuracy = LatencySketchConfig::relative_accuracy;
constexpr std::size_t kMaxBins = LatencySketchConfig::max_bins;

/// Asserts the sketch's quantile answers are within the configured relative
/// error of the true order statistic, across a grid of quantiles.
void expect_quantiles_within_bound(const LatencySketch& sketch, std::vector<double> samples,
                                   double accuracy) {
  Cdf cdf(std::move(samples));
  const auto& sorted = cdf.sorted_samples();
  for (double q : {0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // The sketch targets the order statistic at rank floor(q * (n-1)).
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    const double truth = sorted[rank];
    const double got = sketch.quantile(q);
    if (truth < 1e-3) {
      EXPECT_LT(got, 1e-3) << "q=" << q;
    } else {
      EXPECT_NEAR(got, truth, accuracy * truth * (1.0 + 1e-9))
          << "q=" << q << " truth=" << truth;
    }
  }
}

TEST(LatencySketchTest, EmptySketch) {
  const LatencySketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.bin_count(), 0u);
}

TEST(LatencySketchTest, SingleValue) {
  LatencySketch s;
  s.add(12345.0);
  EXPECT_EQ(s.count(), 1u);
  for (double q : {0.0, 0.5, 1.0}) {
    EXPECT_NEAR(s.quantile(q), 12345.0, kAccuracy * 12345.0);
  }
  EXPECT_EQ(s.min(), 12345.0);
  EXPECT_EQ(s.max(), 12345.0);
}

TEST(LatencySketchTest, UniformDistributionWithinBound) {
  Xoshiro256 rng(1);
  LatencySketch s;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.uniform(10.0, 1e6);
    samples.push_back(v);
    s.add(v);
  }
  expect_quantiles_within_bound(s, samples, kAccuracy);
}

TEST(LatencySketchTest, LognormalDistributionWithinBound) {
  Xoshiro256 rng(2);
  LatencySketch s;
  std::vector<double> samples;
  for (int i = 0; i < 20000; ++i) {
    const double v = rng.lognormal(std::log(80e3), 1.2);
    samples.push_back(v);
    s.add(v);
  }
  expect_quantiles_within_bound(s, samples, kAccuracy);
}

TEST(LatencySketchTest, AdversarialWideRangeWithinBound) {
  // Nine orders of magnitude plus duplicate spikes: the bucketed-histogram
  // failure mode (fixed absolute bucket edges) that relative-error bins fix.
  Xoshiro256 rng(3);
  LatencySketch s;
  std::vector<double> samples;
  for (int i = 0; i < 5000; ++i) {
    const double exponent = rng.uniform(0.0, 9.0);
    const double v = std::pow(10.0, exponent);
    samples.push_back(v);
    s.add(v);
  }
  for (int i = 0; i < 5000; ++i) {  // heavy duplicate mass at one value
    samples.push_back(512.0);
    s.add(512.0);
  }
  expect_quantiles_within_bound(s, samples, kAccuracy);
}

TEST(LatencySketchTest, BimodalGapWithinBound) {
  LatencySketch s;
  std::vector<double> samples;
  for (int i = 0; i < 1000; ++i) {
    samples.push_back(100.0);
    s.add(100.0);
    samples.push_back(1e8);
    s.add(1e8);
  }
  expect_quantiles_within_bound(s, samples, kAccuracy);
}

TEST(LatencySketchTest, NonFiniteValuesAreDropped) {
  LatencySketch s;
  s.add(1000.0);
  s.add(std::numeric_limits<double>::infinity());
  s.add(-std::numeric_limits<double>::infinity());
  s.add(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.max(), 1000.0);
  EXPECT_EQ(s.sum(), 1000.0);
  EXPECT_NEAR(s.quantile(0.99), 1000.0, kAccuracy * 1000.0);
}

TEST(LatencySketchTest, ZerosAndNegativesLandInZeroBin) {
  LatencySketch s;
  s.add(0.0);
  s.add(-50.0);  // interpolation artifact: treated as ~0 latency
  s.add(1000.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.zero_count(), 2u);
  EXPECT_EQ(s.quantile(0.0), 0.0);
  EXPECT_NEAR(s.quantile(1.0), 1000.0, kAccuracy * 1000.0);
  EXPECT_EQ(s.min(), -50.0);  // min/max stay faithful to what was added
}

TEST(LatencySketchTest, CountSumMeanMinMax) {
  LatencySketch s;
  RunningStats truth;
  Xoshiro256 rng(4);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(1.0, 1e5);
    s.add(v);
    truth.add(v);
  }
  EXPECT_EQ(s.count(), truth.count());
  EXPECT_NEAR(s.sum(), truth.sum(), 1e-6 * truth.sum());
  EXPECT_NEAR(s.mean(), truth.mean(), 1e-6 * truth.mean());
  EXPECT_EQ(s.min(), truth.min());
  EXPECT_EQ(s.max(), truth.max());
}

TEST(LatencySketchTest, WeightedAddMatchesRepeatedAdd) {
  LatencySketch a;
  LatencySketch b;
  a.add(777.0, 5);
  for (int i = 0; i < 5; ++i) b.add(777.0);
  EXPECT_EQ(a.bins(), b.bins());
  EXPECT_EQ(a.count(), b.count());
}

TEST(LatencySketchTest, MergeEqualsUnion) {
  Xoshiro256 rng(5);
  LatencySketch whole;
  LatencySketch part1;
  LatencySketch part2;
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.lognormal(10.0, 1.0);
    whole.add(v);
    (i % 2 == 0 ? part1 : part2).add(v);
  }
  part1.merge(part2);
  // Merge is exact: bin-for-bin identical to sketching the union stream.
  EXPECT_EQ(part1.bins(), whole.bins());
  EXPECT_EQ(part1.count(), whole.count());
  EXPECT_EQ(part1.zero_count(), whole.zero_count());
  EXPECT_EQ(part1.min(), whole.min());
  EXPECT_EQ(part1.max(), whole.max());
  EXPECT_NEAR(part1.sum(), whole.sum(), 1e-6 * std::abs(whole.sum()));
}

TEST(LatencySketchTest, MergeCommutative) {
  Xoshiro256 rng(6);
  LatencySketch a1;
  LatencySketch b1;
  for (int i = 0; i < 2000; ++i) a1.add(rng.uniform(1.0, 1e4));
  for (int i = 0; i < 2000; ++i) b1.add(rng.lognormal(8.0, 2.0));
  auto a2 = b1;  // b then a
  auto merged_ab = a1;
  merged_ab.merge(b1);
  a2.merge(a1);
  EXPECT_EQ(merged_ab.bins(), a2.bins());
  EXPECT_EQ(merged_ab.count(), a2.count());
}

TEST(LatencySketchTest, MergeAssociative) {
  Xoshiro256 rng(7);
  LatencySketch a;
  LatencySketch b;
  LatencySketch c;
  for (int i = 0; i < 1000; ++i) {
    a.add(rng.uniform(1.0, 100.0));
    b.add(rng.uniform(50.0, 5000.0));
    c.add(rng.lognormal(6.0, 1.5));
  }
  auto left = a;  // (a + b) + c
  left.merge(b);
  left.merge(c);
  auto bc = b;  // a + (b + c)
  bc.merge(c);
  auto right = a;
  right.merge(bc);
  EXPECT_EQ(left.bins(), right.bins());
  EXPECT_EQ(left.count(), right.count());
}

TEST(LatencySketchTest, CollapsingBoundsMemoryAndPreservesTail) {
  // Twenty decades need about 2,300 bins at 1%: more than the budget.
  LatencySketch s;
  std::vector<double> samples;
  Xoshiro256 rng(8);
  for (int i = 0; i < 50000; ++i) {
    const double v = std::pow(10.0, rng.uniform(0.0, 20.0));
    samples.push_back(v);
    s.add(v);
  }
  EXPECT_LE(s.bin_count(), kMaxBins);
  EXPECT_GT(s.collapses(), 0u);
  // Collapsing folds low bins upward: the upper tail stays in-bound.
  Cdf cdf(samples);
  const auto& sorted = cdf.sorted_samples();
  for (double q : {0.95, 0.99, 0.999}) {
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
    const double truth = sorted[rank];
    EXPECT_NEAR(s.quantile(q), truth, kAccuracy * truth * (1.0 + 1e-9)) << "q=" << q;
  }
  // Memory is O(bins), not O(samples).
  EXPECT_LT(s.approx_bytes(), kMaxBins * 64 + sizeof(LatencySketch));
}

TEST(LatencySketchTest, FromPartsRoundTrip) {
  Xoshiro256 rng(9);
  LatencySketch s;
  for (int i = 0; i < 3000; ++i) s.add(rng.lognormal(9.0, 1.0));
  s.add(0.0, 7);
  auto rebuilt = LatencySketch::from_parts(s.zero_count(), s.sum(), s.min(), s.max(), s.bins());
  EXPECT_EQ(rebuilt.bins(), s.bins());
  EXPECT_EQ(rebuilt.count(), s.count());
  EXPECT_EQ(rebuilt.zero_count(), s.zero_count());
  EXPECT_EQ(rebuilt.quantile(0.9), s.quantile(0.9));
}

}  // namespace
}  // namespace rlir::common
