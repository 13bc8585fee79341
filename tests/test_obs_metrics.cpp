// MetricsRegistry: identity semantics (same (kind, name, sorted labels) =
// same cell; kind conflict throws), snapshot determinism, merge_snapshots'
// fleet roll-up math, and the concurrency contract — counters/histograms
// hammered from four threads while a scraper reads (the TSan job's obs
// workload).
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

namespace rlir::obs {
namespace {

TEST(MetricsRegistry, SameIdentityReturnsSameCell) {
  MetricsRegistry r;
  Counter* a = r.counter("rlir_test_total", {{"instance", "x"}});
  Counter* b = r.counter("rlir_test_total", {{"instance", "x"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(r.size(), 1u);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);
}

TEST(MetricsRegistry, LabelOrderDoesNotChangeIdentity) {
  MetricsRegistry r;
  Counter* a = r.counter("rlir_test_total", {{"b", "2"}, {"a", "1"}});
  Counter* b = r.counter("rlir_test_total", {{"a", "1"}, {"b", "2"}});
  EXPECT_EQ(a, b);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MetricsRegistry, DifferentLabelsAreDifferentSeries) {
  MetricsRegistry r;
  Counter* a = r.counter("rlir_test_total", {{"instance", "x"}});
  Counter* b = r.counter("rlir_test_total", {{"instance", "y"}});
  Counter* c = r.counter("rlir_test_total");
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(r.size(), 3u);
}

TEST(MetricsRegistry, KindConflictThrows) {
  MetricsRegistry r;
  r.counter("rlir_test");
  EXPECT_THROW(r.gauge("rlir_test"), std::invalid_argument);
  EXPECT_THROW(r.histogram("rlir_test"), std::invalid_argument);
  EXPECT_THROW(r.counter(""), std::invalid_argument);
}

TEST(MetricsRegistry, SnapshotSortedByNameThenLabels) {
  MetricsRegistry r;
  r.counter("rlir_b_total");
  r.gauge("rlir_a_gauge", {{"instance", "z"}});
  r.gauge("rlir_a_gauge", {{"instance", "a"}});
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].name, "rlir_a_gauge");
  EXPECT_EQ(snap.samples[0].labels[0].second, "a");
  EXPECT_EQ(snap.samples[1].name, "rlir_a_gauge");
  EXPECT_EQ(snap.samples[1].labels[0].second, "z");
  EXPECT_EQ(snap.samples[2].name, "rlir_b_total");
}

TEST(MetricsRegistry, SnapshotCarriesValues) {
  MetricsRegistry r;
  r.counter("rlir_c_total")->add(7);
  r.gauge("rlir_g")->set(-4);
  r.histogram("rlir_h")->observe(100.0);
  const auto snap = r.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].counter, 7u);
  EXPECT_EQ(snap.samples[1].gauge, -4);
  EXPECT_EQ(snap.samples[2].histogram.count(), 1u);
}

TEST(SaturatingAdd, ClampsAtMax) {
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  static_assert(saturating_add_u64(1, 2) == 3);
  static_assert(saturating_add_u64(kMax, kMax) == kMax);
  static_assert(saturating_add_u64(0, kMax) == kMax);
  EXPECT_EQ(saturating_add_u64(2, 3), 5u);
  EXPECT_EQ(saturating_add_u64(kMax, 1), kMax);
  EXPECT_EQ(saturating_add_u64(kMax - 1, 5), kMax);
}

TEST(MergeSnapshots, CountersSumGaugesMaxHistogramsUnion) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("rlir_c_total")->add(10);
  b.counter("rlir_c_total")->add(32);
  a.gauge("rlir_g")->set(5);
  b.gauge("rlir_g")->set(9);
  a.histogram("rlir_h")->observe(10e3);
  b.histogram("rlir_h")->observe(500e3);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  a.counter("rlir_s_total")->add(kMax - 1);
  b.counter("rlir_s_total")->add(7);
  const auto merged = merge_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.samples.size(), 4u);
  EXPECT_EQ(merged.samples[0].counter, 42u);
  EXPECT_EQ(merged.samples[1].gauge, 9);
  // Bin-for-bin union: exactly what one sketch fed both values holds.
  common::LatencySketch expected;
  expected.add(10e3);
  expected.add(500e3);
  EXPECT_EQ(merged.samples[2].histogram.bins(), expected.bins());
  // Fleet counter sums saturate instead of wrapping.
  EXPECT_EQ(merged.samples[3].counter, kMax);
}

TEST(MergeSnapshots, DisjointSeriesPassThroughSorted) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("rlir_z_total")->add(1);
  b.counter("rlir_a_total")->add(2);
  const auto merged = merge_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.samples.size(), 2u);
  EXPECT_EQ(merged.samples[0].name, "rlir_a_total");
  EXPECT_EQ(merged.samples[1].name, "rlir_z_total");
}

TEST(MergeSnapshots, KindConflictThrows) {
  MetricsRegistry a;
  MetricsRegistry b;
  a.counter("rlir_x");
  b.gauge("rlir_x");
  EXPECT_THROW(merge_snapshots({a.snapshot(), b.snapshot()}),
               std::invalid_argument);
}

TEST(MergeSnapshots, MatchesSingleRegistrySnapshotOrdering) {
  // The merge of per-agent snapshots must be indistinguishable (order and
  // identity) from one registry that held every series.
  MetricsRegistry parts0;
  MetricsRegistry parts1;
  MetricsRegistry whole;
  for (const char* name : {"rlir_m_total", "rlir_n_total"}) {
    for (const char* inst : {"a", "b"}) {
      whole.counter(name, {{"instance", inst}})->add(1);
    }
    parts0.counter(name, {{"instance", "a"}})->add(1);
    parts1.counter(name, {{"instance", "b"}})->add(1);
  }
  const auto merged = merge_snapshots({parts0.snapshot(), parts1.snapshot()});
  const auto direct = whole.snapshot();
  ASSERT_EQ(merged.samples.size(), direct.samples.size());
  for (std::size_t i = 0; i < merged.samples.size(); ++i) {
    EXPECT_EQ(merged.samples[i].name, direct.samples[i].name);
    EXPECT_EQ(merged.samples[i].labels, direct.samples[i].labels);
    EXPECT_EQ(merged.samples[i].counter, direct.samples[i].counter);
  }
}

// The TSan workload: four writers on shared cells while a scraper snapshots
// concurrently. Correctness = no race reports AND exact final totals.
TEST(MetricsRegistryThreaded, ConcurrentWritesAndScrapes) {
  MetricsRegistry r;
  Counter* counter = r.counter("rlir_hot_total");
  Gauge* gauge = r.gauge("rlir_hot_gauge");
  Histogram* hist = r.histogram("rlir_hot_hist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20'000;

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter->increment();
        gauge->set(static_cast<std::int64_t>(i));
        if (i % 64 == 0) hist->observe(1e3 * static_cast<double>(t + 1));
      }
    });
  }
  std::thread scraper([&] {
    for (int i = 0; i < 200; ++i) {
      const auto snap = r.snapshot();
      ASSERT_EQ(snap.samples.size(), 3u);
      // Monotone counter (sorted last by name): any read <= the final total.
      EXPECT_LE(snap.samples[2].counter, kThreads * kPerThread);
    }
  });
  for (auto& w : writers) w.join();
  scraper.join();

  EXPECT_EQ(counter->value(), kThreads * kPerThread);
  EXPECT_EQ(hist->snapshot().count(), kThreads * ((kPerThread + 63) / 64));
}

}  // namespace
}  // namespace rlir::obs
