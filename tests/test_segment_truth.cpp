// Unit tests: rlir/segment_truth.h — entry/exit delay tracking.
#include <gtest/gtest.h>

#include "rlir/segment_truth.h"

namespace rlir::rlir {
namespace {

using timebase::TimePoint;

net::Packet packet(std::uint64_t seq, std::int64_t ts_ns, std::uint16_t port = 1,
                   net::PacketKind kind = net::PacketKind::kRegular) {
  net::Packet p;
  p.seq = seq;
  p.ts = TimePoint(ts_ns);
  p.key.src_port = port;
  p.kind = kind;
  return p;
}

TEST(SegmentTruth, ComputesEntryToExitDelay) {
  SegmentTruth truth;
  truth.entry_tap().on_packet(packet(1, 100), TimePoint(100));
  truth.entry_tap().on_packet(packet(2, 200), TimePoint(200));
  truth.exit_tap().on_packet(packet(1, 600), TimePoint(600));
  truth.exit_tap().on_packet(packet(2, 900), TimePoint(900));

  EXPECT_EQ(truth.matched_packets(), 2u);
  EXPECT_EQ(truth.pending_entries(), 0u);
  ASSERT_EQ(truth.per_flow().size(), 1u);
  const auto& stats = truth.per_flow().begin()->second;
  EXPECT_DOUBLE_EQ(stats.mean(), 600.0);  // (500 + 700) / 2
}

TEST(SegmentTruth, PerFlowSeparation) {
  SegmentTruth truth;
  truth.entry_tap().on_packet(packet(1, 0, 1), TimePoint(0));
  truth.entry_tap().on_packet(packet(2, 0, 2), TimePoint(0));
  truth.exit_tap().on_packet(packet(1, 100, 1), TimePoint(100));
  truth.exit_tap().on_packet(packet(2, 300, 2), TimePoint(300));
  ASSERT_EQ(truth.per_flow().size(), 2u);
}

TEST(SegmentTruth, UnseenExitCounted) {
  SegmentTruth truth;
  truth.exit_tap().on_packet(packet(9, 500), TimePoint(500));
  EXPECT_EQ(truth.unmatched_exits(), 1u);
  EXPECT_EQ(truth.matched_packets(), 0u);
  EXPECT_TRUE(truth.per_flow().empty());
}

TEST(SegmentTruth, EntriesWithoutExitStayPending) {
  SegmentTruth truth;
  truth.entry_tap().on_packet(packet(1, 0), TimePoint(0));
  truth.entry_tap().on_packet(packet(2, 0), TimePoint(0));
  truth.exit_tap().on_packet(packet(1, 100), TimePoint(100));
  // Packet 2 was ECMP'd elsewhere or dropped.
  EXPECT_EQ(truth.pending_entries(), 1u);
  EXPECT_EQ(truth.matched_packets(), 1u);
}

TEST(SegmentTruth, DefaultFilterIgnoresNonRegular) {
  SegmentTruth truth;
  truth.entry_tap().on_packet(packet(1, 0, 1, net::PacketKind::kReference), TimePoint(0));
  truth.entry_tap().on_packet(packet(2, 0, 1, net::PacketKind::kCross), TimePoint(0));
  truth.exit_tap().on_packet(packet(1, 100, 1, net::PacketKind::kReference), TimePoint(100));
  EXPECT_EQ(truth.matched_packets(), 0u);
  EXPECT_EQ(truth.unmatched_exits(), 0u);
  EXPECT_EQ(truth.pending_entries(), 0u);
}

TEST(SegmentTruth, ReentryOverwritesEntryTime) {
  // A retransmitted seq (or re-observation) takes the latest entry stamp.
  SegmentTruth truth;
  truth.entry_tap().on_packet(packet(1, 0), TimePoint(0));
  truth.entry_tap().on_packet(packet(1, 100), TimePoint(100));
  truth.exit_tap().on_packet(packet(1, 250), TimePoint(250));
  ASSERT_EQ(truth.matched_packets(), 1u);
  EXPECT_DOUBLE_EQ(truth.per_flow().begin()->second.mean(), 150.0);
}

}  // namespace
}  // namespace rlir::rlir
