// Unit tests: rli/receiver.h — interpolation buffer and estimators.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rli/receiver.h"
#include "timebase/clock.h"

namespace rlir::rli {
namespace {

using timebase::Duration;
using timebase::TimePoint;

// A reference packet that arrives at `arrival_ns` having experienced
// `delay_ns` (stamp = arrival - delay, perfect clocks).
net::Packet reference(std::int64_t arrival_ns, std::int64_t delay_ns, std::uint64_t seq,
                      net::SenderId id = 1) {
  auto ref = net::make_reference_packet(id, TimePoint(arrival_ns - delay_ns),
                                        TimePoint(arrival_ns - delay_ns), seq);
  ref.ts = TimePoint(arrival_ns);
  return ref;
}

net::Packet regular(std::int64_t arrival_ns, std::uint16_t src_port = 7777) {
  net::Packet p;
  p.ts = TimePoint(arrival_ns);
  p.injected_at = TimePoint(arrival_ns - 1000);
  p.key.src = net::Ipv4Address(10, 0, 0, 1);
  p.key.dst = net::Ipv4Address(10, 1, 0, 1);
  p.key.src_port = src_port;
  p.kind = net::PacketKind::kRegular;
  return p;
}

// Bit-equal statistics: a change of container or fold order that moved any
// of them by one ulp fails here.
void expect_same_stats(const common::RunningStats& got,
                       const common::RunningStats& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.variance(), want.variance());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

TEST(RliReceiver, RejectsNullClock) {
  EXPECT_THROW(RliReceiver(ReceiverConfig{}, nullptr), std::invalid_argument);
}

TEST(RliReceiver, LinearInterpolationIsExactOnALine) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);

  // Anchors: delay 1000 at t=0, delay 3000 at t=1000.
  receiver.on_packet(reference(0, 1000, 0), TimePoint(0));
  std::vector<double> estimates;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { estimates.push_back(e.estimate_ns); });

  receiver.on_packet(regular(250), TimePoint(250));
  receiver.on_packet(regular(500), TimePoint(500));
  receiver.on_packet(regular(750), TimePoint(750));
  receiver.on_packet(reference(1000, 3000, 1), TimePoint(1000));

  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_DOUBLE_EQ(estimates[0], 1500.0);
  EXPECT_DOUBLE_EQ(estimates[1], 2000.0);
  EXPECT_DOUBLE_EQ(estimates[2], 2500.0);
  EXPECT_EQ(receiver.packets_estimated(), 3u);
  EXPECT_EQ(receiver.references_seen(), 2u);
}

TEST(RliReceiver, MultipleSinksAllObserveEveryEstimate) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(reference(0, 1000, 0), TimePoint(0));

  std::vector<double> first, second;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { first.push_back(e.estimate_ns); });
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { second.push_back(e.estimate_ns); });

  receiver.on_packet(regular(500), TimePoint(500));
  receiver.on_packet(reference(1000, 1000, 1), TimePoint(1000));
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first, second);
}

TEST(RliReceiver, PacketsBeforeFirstReferenceAreUnanchored) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(regular(10), TimePoint(10));
  receiver.on_packet(regular(20), TimePoint(20));
  receiver.on_packet(reference(100, 500, 0), TimePoint(100));
  receiver.on_packet(regular(150), TimePoint(150));
  receiver.on_packet(reference(200, 500, 1), TimePoint(200));

  EXPECT_EQ(receiver.packets_unanchored(), 2u);
  EXPECT_EQ(receiver.packets_estimated(), 1u);
}

TEST(RliReceiver, PerFlowAccumulation) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(reference(0, 1000, 0), TimePoint(0));
  receiver.on_packet(regular(100, 1), TimePoint(100));
  receiver.on_packet(regular(200, 1), TimePoint(200));
  receiver.on_packet(regular(300, 2), TimePoint(300));
  receiver.on_packet(reference(1000, 1000, 1), TimePoint(1000));

  ASSERT_EQ(receiver.per_flow().size(), 2u);
  for (const auto& [key, stats] : receiver.per_flow()) {
    // Flat delay curve: every estimate is exactly 1000.
    EXPECT_DOUBLE_EQ(stats.mean(), 1000.0);
    EXPECT_EQ(stats.count(), key.src_port == 1 ? 2u : 1u);
  }
}

// The flat per-flow accumulator holds exactly what folding the receiver's
// own estimate stream, in arrival order, into an ordered map gives: the same
// flows, and bit-equal statistics for each. Swapping the container changes
// no number.
TEST(RliReceiver, PerFlowMatchesSinkStreamAtScale) {
  constexpr std::uint32_t kFlows = 50'000;
  constexpr int kPacketsPerFlow = 4;
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  std::map<net::FiveTuple, common::RunningStats> folded;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { folded[e.key].add(e.estimate_ns); });

  std::vector<net::FiveTuple> arrivals;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    net::FiveTuple key = regular(0).key;
    key.src = net::Ipv4Address(0x0a000000u + f);
    for (int p = 0; p < kPacketsPerFlow; ++p) arrivals.push_back(key);
  }
  common::Xoshiro256 rng(23);
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.uniform_u64(i)]);
  }
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    t += 100;
    if (i % 50 == 0) {
      const auto delay = 1000 + static_cast<std::int64_t>(rng.uniform_u64(4000));
      receiver.on_packet(reference(t, delay, seq++), TimePoint(t));
    }
    net::Packet p = regular(t + 50);
    p.key = arrivals[i];
    receiver.on_packet(p, TimePoint(t + 50));
  }
  receiver.flush();

  const FlowStatsMap& per_flow = receiver.per_flow();
  EXPECT_EQ(folded.size(), kFlows);
  ASSERT_EQ(per_flow.size(), folded.size());
  for (const auto& [key, want] : folded) {
    const auto it = per_flow.find(key);
    ASSERT_NE(it, per_flow.end());
    expect_same_stats(it->second, want);
  }
}

TEST(RliReceiver, EstimatorVariants) {
  const struct {
    EstimatorKind kind;
    double expected_at_250;
  } cases[] = {
      {EstimatorKind::kLinear, 1500.0},
      {EstimatorKind::kLeft, 1000.0},
      {EstimatorKind::kRight, 3000.0},
      {EstimatorKind::kNearest, 1000.0},  // 250 is nearer to 0 than to 1000
  };
  for (const auto& c : cases) {
    timebase::PerfectClock clock;
    ReceiverConfig cfg;
    cfg.estimator = c.kind;
    RliReceiver receiver(cfg, &clock);
    double estimate = -1.0;
    receiver.add_estimate_sink(
        [&](const RliReceiver::PacketEstimate& e) { estimate = e.estimate_ns; });
    receiver.on_packet(reference(0, 1000, 0), TimePoint(0));
    receiver.on_packet(regular(250), TimePoint(250));
    receiver.on_packet(reference(1000, 3000, 1), TimePoint(1000));
    EXPECT_DOUBLE_EQ(estimate, c.expected_at_250) << to_string(c.kind);
  }
}

TEST(RliReceiver, NearestPicksRightWhenCloser) {
  timebase::PerfectClock clock;
  ReceiverConfig cfg;
  cfg.estimator = EstimatorKind::kNearest;
  RliReceiver receiver(cfg, &clock);
  double estimate = -1.0;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { estimate = e.estimate_ns; });
  receiver.on_packet(reference(0, 1000, 0), TimePoint(0));
  receiver.on_packet(regular(900), TimePoint(900));
  receiver.on_packet(reference(1000, 3000, 1), TimePoint(1000));
  EXPECT_DOUBLE_EQ(estimate, 3000.0);
}

TEST(RliReceiver, MaxIntervalGuardSkipsLongGaps) {
  timebase::PerfectClock clock;
  ReceiverConfig cfg;
  cfg.max_interval = Duration::microseconds(1);
  RliReceiver receiver(cfg, &clock);
  receiver.on_packet(reference(0, 500, 0), TimePoint(0));
  receiver.on_packet(regular(100), TimePoint(100));
  receiver.on_packet(regular(200), TimePoint(200));
  // Next reference arrives 5us later: interval exceeds the guard.
  receiver.on_packet(reference(5'000, 500, 1), TimePoint(5'000));
  EXPECT_EQ(receiver.packets_estimated(), 0u);
  EXPECT_EQ(receiver.packets_in_skipped_intervals(), 2u);

  // The late reference still restarts anchoring.
  receiver.on_packet(regular(5'100), TimePoint(5'100));
  receiver.on_packet(reference(5'500, 500, 2), TimePoint(5'500));
  EXPECT_EQ(receiver.packets_estimated(), 1u);
}

TEST(RliReceiver, CrossPacketsIgnoredByDefault) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(reference(0, 500, 0), TimePoint(0));
  net::Packet cross = regular(100);
  cross.kind = net::PacketKind::kCross;
  receiver.on_packet(cross, TimePoint(100));
  receiver.on_packet(reference(1000, 500, 1), TimePoint(1000));
  EXPECT_EQ(receiver.packets_estimated(), 0u);
}

TEST(RliReceiver, ClockOffsetShiftsReferenceDelays) {
  // Receiver clock runs 2us ahead: measured probe delay = true + 2us.
  timebase::FixedOffsetClock clock(Duration::microseconds(2));
  RliReceiver receiver(ReceiverConfig{}, &clock);
  double estimate = -1.0;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { estimate = e.estimate_ns; });
  receiver.on_packet(reference(0, 1000, 0), TimePoint(0));
  receiver.on_packet(regular(500), TimePoint(500));
  receiver.on_packet(reference(1000, 1000, 1), TimePoint(1000));
  EXPECT_DOUBLE_EQ(estimate, 3000.0);  // 1000 true + 2000 offset
}

TEST(RliReceiver, CoincidentReferencesDoNotDivideByZero) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(reference(100, 500, 0), TimePoint(100));
  receiver.on_packet(reference(100, 900, 1), TimePoint(100));
  // Buffer was empty; just ensure no crash and anchors advanced.
  receiver.on_packet(regular(150), TimePoint(150));
  receiver.on_packet(reference(200, 900, 2), TimePoint(200));
  EXPECT_EQ(receiver.packets_estimated(), 1u);
}

// Property: the linear estimate always lies between the two anchor delays.
class InterpolationBracketSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterpolationBracketSweep, EstimateWithinAnchorRange) {
  common::Xoshiro256 rng(GetParam());
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t checked = 0;
  receiver.add_estimate_sink([&](const RliReceiver::PacketEstimate& e) {
    EXPECT_GE(e.estimate_ns, lo - 1e-9);
    EXPECT_LE(e.estimate_ns, hi + 1e-9);
    ++checked;
  });

  // Integer delays: the helper stores stamps at ns resolution, so fractional
  // delays would put the true anchor a fraction below lo.
  std::int64_t t = 0;
  double prev_delay = std::floor(rng.uniform(100.0, 10'000.0));
  receiver.on_packet(reference(t, static_cast<std::int64_t>(prev_delay), 0), TimePoint(t));
  for (std::uint64_t i = 1; i < 50; ++i) {
    const int regulars = static_cast<int>(rng.uniform_u64(20));
    const std::int64_t interval = 1000 + static_cast<std::int64_t>(rng.uniform_u64(9000));
    for (int j = 0; j < regulars; ++j) {
      const std::int64_t at = t + 1 + static_cast<std::int64_t>(
                                          rng.uniform_u64(static_cast<std::uint64_t>(interval - 1)));
      receiver.on_packet(regular(at), TimePoint(at));
    }
    t += interval;
    const double delay = std::floor(rng.uniform(100.0, 10'000.0));
    lo = std::min(prev_delay, delay);
    hi = std::max(prev_delay, delay);
    // NOTE: buffered packets may arrive out of order within the interval;
    // sort is not required by the receiver, which only reads timestamps.
    receiver.on_packet(reference(t, static_cast<std::int64_t>(delay), i), TimePoint(t));
    prev_delay = delay;
  }
  EXPECT_GT(checked, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpolationBracketSweep, ::testing::Values(1, 2, 3, 4));

TEST(RliReceiver, FlushEstimatesBufferedPacketsWithLeftAnchor) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  std::vector<double> estimates;
  receiver.add_estimate_sink(
      [&](const RliReceiver::PacketEstimate& e) { estimates.push_back(e.estimate_ns); });

  // Left anchor with delay 2000; two regulars buffered, no closing reference.
  receiver.on_packet(reference(0, 2000, 0), TimePoint(0));
  receiver.on_packet(regular(300), TimePoint(300));
  receiver.on_packet(regular(600), TimePoint(600));
  EXPECT_EQ(receiver.packets_estimated(), 0u);

  // The epoch-boundary flush ships them with the left anchor's delay.
  EXPECT_EQ(receiver.flush(), 2u);
  ASSERT_EQ(estimates.size(), 2u);
  EXPECT_DOUBLE_EQ(estimates[0], 2000.0);
  EXPECT_DOUBLE_EQ(estimates[1], 2000.0);
  EXPECT_EQ(receiver.packets_estimated(), 2u);
  EXPECT_EQ(receiver.packets_flushed(), 2u);

  // Empty buffer: flush is a no-op.
  EXPECT_EQ(receiver.flush(), 0u);
  EXPECT_EQ(receiver.packets_flushed(), 2u);

  // The anchor survives the flush: later packets interpolate normally.
  receiver.on_packet(regular(800), TimePoint(800));
  receiver.on_packet(reference(1000, 4000, 1), TimePoint(1000));
  ASSERT_EQ(estimates.size(), 3u);
  EXPECT_DOUBLE_EQ(estimates[2], 2000.0 + 0.8 * 2000.0);
  EXPECT_EQ(receiver.packets_estimated(), 3u);
}

TEST(RliReceiver, FlushBeforeAnyReferenceIsANoOp) {
  timebase::PerfectClock clock;
  RliReceiver receiver(ReceiverConfig{}, &clock);
  receiver.on_packet(regular(100), TimePoint(100));  // unanchored, not buffered
  EXPECT_EQ(receiver.flush(), 0u);
  EXPECT_EQ(receiver.packets_flushed(), 0u);
  EXPECT_EQ(receiver.packets_unanchored(), 1u);
}

}  // namespace
}  // namespace rlir::rli
