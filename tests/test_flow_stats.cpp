// Unit tests: rli/flow_stats.h — ground truth taps and accuracy reports.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/rng.h"
#include "rli/flow_stats.h"

namespace rlir::rli {
namespace {

using timebase::TimePoint;

net::Packet delayed_packet(std::uint16_t src_port, std::int64_t delay_ns,
                           net::PacketKind kind = net::PacketKind::kRegular) {
  net::Packet p;
  p.key.src_port = src_port;
  p.injected_at = TimePoint(0);
  p.ts = TimePoint(delay_ns);
  p.kind = kind;
  return p;
}

TEST(GroundTruthTap, RecordsTrueDelaysPerFlow) {
  GroundTruthTap tap;
  tap.on_packet(delayed_packet(1, 100), TimePoint(100));
  tap.on_packet(delayed_packet(1, 300), TimePoint(300));
  tap.on_packet(delayed_packet(2, 500), TimePoint(500));
  EXPECT_EQ(tap.packets_recorded(), 3u);
  ASSERT_EQ(tap.per_flow().size(), 2u);
  for (const auto& [key, stats] : tap.per_flow()) {
    if (key.src_port == 1) {
      EXPECT_DOUBLE_EQ(stats.mean(), 200.0);
      EXPECT_EQ(stats.count(), 2u);
    } else {
      EXPECT_DOUBLE_EQ(stats.mean(), 500.0);
    }
  }
}

TEST(GroundTruthTap, DefaultFilterSkipsNonRegular) {
  GroundTruthTap tap;
  tap.on_packet(delayed_packet(1, 100, net::PacketKind::kCross), TimePoint(100));
  tap.on_packet(delayed_packet(1, 100, net::PacketKind::kReference), TimePoint(100));
  EXPECT_EQ(tap.packets_recorded(), 0u);
}

FlowStatsMap map_of(std::initializer_list<std::pair<std::uint16_t, std::vector<double>>> init) {
  FlowStatsMap map;
  for (const auto& [port, values] : init) {
    net::FiveTuple key;
    key.src_port = port;
    for (const double v : values) map[key].add(v);
  }
  return map;
}

TEST(AccuracyReport, JoinsAndComputesErrors) {
  const auto truth = map_of({{1, {100.0, 200.0}}, {2, {1000.0}}});
  const auto estimates = map_of({{1, {165.0}}, {2, {900.0}}});
  const auto report = AccuracyReport::compare(truth, estimates);

  ASSERT_EQ(report.flow_count(), 2u);
  EXPECT_EQ(report.unmatched_flows(), 0u);
  for (const auto& s : report.samples()) {
    if (s.key.src_port == 1) {
      EXPECT_DOUBLE_EQ(s.true_mean, 150.0);
      EXPECT_DOUBLE_EQ(s.est_mean, 165.0);
      EXPECT_NEAR(s.mean_rel_error, 0.10, 1e-12);
      EXPECT_TRUE(s.has_stddev_error);  // true stddev 50 > 0
    } else {
      EXPECT_NEAR(s.mean_rel_error, 0.10, 1e-12);
      EXPECT_FALSE(s.has_stddev_error);  // single-packet flow: stddev 0
    }
  }
}

TEST(AccuracyReport, UnmatchedFlowsCounted) {
  const auto truth = map_of({{1, {100.0}}, {2, {200.0}}});
  const auto estimates = map_of({{1, {100.0}}});
  const auto report = AccuracyReport::compare(truth, estimates);
  EXPECT_EQ(report.flow_count(), 1u);
  EXPECT_EQ(report.unmatched_flows(), 1u);
}

TEST(AccuracyReport, MinPacketsThreshold) {
  const auto truth = map_of({{1, {100.0}}, {2, {200.0, 300.0, 400.0}}});
  const auto estimates = map_of({{1, {100.0}}, {2, {300.0}}});
  const auto report = AccuracyReport::compare(truth, estimates, /*min_packets=*/2);
  ASSERT_EQ(report.flow_count(), 1u);
  EXPECT_EQ(report.samples()[0].key.src_port, 2);
}

TEST(AccuracyReport, ZeroTruthFlowsSkipped) {
  const auto truth = map_of({{1, {0.0, 0.0}}});
  const auto estimates = map_of({{1, {5.0}}});
  const auto report = AccuracyReport::compare(truth, estimates);
  EXPECT_EQ(report.flow_count(), 0u);  // relative error undefined
}

TEST(AccuracyReport, CdfsAndMedian) {
  const auto truth = map_of({{1, {100.0}}, {2, {100.0}}, {3, {100.0}}});
  const auto estimates = map_of({{1, {105.0}}, {2, {110.0}}, {3, {120.0}}});
  const auto report = AccuracyReport::compare(truth, estimates);
  const auto cdf = report.mean_error_cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_NEAR(report.median_mean_error(), 0.10, 1e-12);
  // Single-packet flows: stddev errors undefined everywhere.
  EXPECT_EQ(report.stddev_error_cdf().size(), 0u);
}

TEST(AccuracyReport, StddevCdfUsesOnlyDefinedErrors) {
  const auto truth = map_of({{1, {100.0, 300.0}}, {2, {500.0}}});
  const auto estimates = map_of({{1, {100.0, 200.0}}, {2, {450.0}}});
  const auto report = AccuracyReport::compare(truth, estimates);
  EXPECT_EQ(report.mean_error_cdf().size(), 2u);
  EXPECT_EQ(report.stddev_error_cdf().size(), 1u);  // only flow 1 has stddev
}

// FlowStatsMap iterates in insertion order, so the report must not depend
// on it: the same flows inserted in other orders give the same report.
TEST(AccuracyReport, SameResultWhateverInsertionOrder) {
  constexpr std::size_t kFlows = 1000;
  std::vector<std::uint16_t> forward(kFlows);
  for (std::size_t i = 0; i < kFlows; ++i) forward[i] = static_cast<std::uint16_t>(i);
  std::vector<std::uint16_t> shuffled = forward;
  common::Xoshiro256 rng(31);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.uniform_u64(i)]);
  }
  const std::vector<std::uint16_t> backward(forward.rbegin(), forward.rend());

  // Flows of 1-3 packets, so some have no stddev error; every 10th flow
  // has no estimate.
  const auto truth_in = [](const std::vector<std::uint16_t>& flows) {
    FlowStatsMap truth;
    for (const std::uint16_t f : flows) {
      net::FiveTuple key;
      key.src_port = f;
      for (int p = 0; p <= f % 3; ++p) truth[key].add(1000.0 + 7.0 * f + 100.0 * p);
    }
    return truth;
  };
  const auto estimates_in = [](const std::vector<std::uint16_t>& flows) {
    FlowStatsMap estimates;
    for (const std::uint16_t f : flows) {
      if (f % 10 == 0) continue;
      net::FiveTuple key;
      key.src_port = f;
      for (int p = 0; p <= f % 3; ++p) {
        estimates[key].add(1000.0 + 5.0 * f + 130.0 * p + f % 7);
      }
    }
    return estimates;
  };

  const auto a = AccuracyReport::compare(truth_in(forward), estimates_in(forward));
  const auto b = AccuracyReport::compare(truth_in(shuffled), estimates_in(backward));
  EXPECT_EQ(a.flow_count(), kFlows - kFlows / 10);
  EXPECT_EQ(a.flow_count(), b.flow_count());
  EXPECT_EQ(a.unmatched_flows(), kFlows / 10);
  EXPECT_EQ(a.unmatched_flows(), b.unmatched_flows());
  EXPECT_EQ(a.median_mean_error(), b.median_mean_error());
  EXPECT_EQ(a.mean_error_cdf().sorted_samples(), b.mean_error_cdf().sorted_samples());
  EXPECT_FALSE(a.stddev_error_cdf().empty());
  EXPECT_EQ(a.stddev_error_cdf().sorted_samples(), b.stddev_error_cdf().sorted_samples());
}

}  // namespace
}  // namespace rlir::rli
