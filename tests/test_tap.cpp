// Unit tests: sim/tap.h — observation points (fanout + recording taps).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "net/packet.h"
#include "sim/tap.h"
#include "timebase/time.h"

namespace rlir::sim {
namespace {

using timebase::TimePoint;

net::Packet packet_with_seq(std::uint64_t seq, TimePoint ts = TimePoint::zero()) {
  net::Packet p;
  p.seq = seq;
  p.ts = ts;
  return p;
}

// Tap that logs which tap instance saw which sequence number, for ordering
// assertions across a fanout.
class SequenceLogTap final : public PacketTap {
 public:
  SequenceLogTap(int id, std::vector<std::pair<int, std::uint64_t>>* log)
      : id_(id), log_(log) {}

  void on_packet(const net::Packet& packet, TimePoint) override {
    log_->emplace_back(id_, packet.seq);
  }

 private:
  int id_;
  std::vector<std::pair<int, std::uint64_t>>* log_;
};

TEST(RecordingTap, RecordsPacketsInArrivalOrder) {
  RecordingTap tap;
  tap.on_packet(packet_with_seq(3, TimePoint(10)), TimePoint(10));
  tap.on_packet(packet_with_seq(1, TimePoint(20)), TimePoint(20));
  tap.on_packet(packet_with_seq(7, TimePoint(30)), TimePoint(30));

  ASSERT_EQ(tap.packets().size(), 3u);
  EXPECT_EQ(tap.packets()[0].seq, 3u);
  EXPECT_EQ(tap.packets()[1].seq, 1u);
  EXPECT_EQ(tap.packets()[2].seq, 7u);
}

TEST(RecordingTap, CopiesThePacketNotAReference) {
  RecordingTap tap;
  net::Packet p = packet_with_seq(1);
  tap.on_packet(p, TimePoint::zero());
  p.seq = 999;  // mutating the original must not affect the recording
  EXPECT_EQ(tap.packets()[0].seq, 1u);
}

TEST(TapFanout, EmptyFanoutIsANoOp) {
  TapFanout fanout;
  fanout.on_packet(packet_with_seq(1), TimePoint::zero());  // must not crash
}

TEST(TapFanout, DeliversToEveryTapInAttachmentOrder) {
  std::vector<std::pair<int, std::uint64_t>> log;
  SequenceLogTap a(1, &log), b(2, &log);

  TapFanout fanout;
  fanout.add(&a);
  fanout.add(&b);
  fanout.on_packet(packet_with_seq(10), TimePoint(1));
  fanout.on_packet(packet_with_seq(11), TimePoint(2));

  const std::vector<std::pair<int, std::uint64_t>> expected = {
      {1, 10}, {2, 10}, {1, 11}, {2, 11}};
  EXPECT_EQ(log, expected);
}

TEST(TapFanout, NestsAsATapItself) {
  // Fanout is itself a PacketTap, so tap trees compose.
  RecordingTap leaf;
  TapFanout inner;
  inner.add(&leaf);
  TapFanout outer;
  outer.add(&inner);

  outer.on_packet(packet_with_seq(5), TimePoint::zero());
  ASSERT_EQ(leaf.packets().size(), 1u);
  EXPECT_EQ(leaf.packets()[0].seq, 5u);
}

TEST(TapFanout, SameTapAttachedTwiceSeesPacketTwice) {
  RecordingTap leaf;
  TapFanout fanout;
  fanout.add(&leaf);
  fanout.add(&leaf);
  fanout.on_packet(packet_with_seq(8), TimePoint::zero());
  EXPECT_EQ(leaf.packets().size(), 2u);
}

TEST(DelaySketchTap, RecordsTrueDelayOfRegularPacketsOnly) {
  DelaySketchTap tap;
  auto regular = packet_with_seq(1, TimePoint(5'000));
  regular.injected_at = TimePoint(1'000);  // true delay 4us
  tap.on_packet(regular, regular.ts);

  auto reference = regular;
  reference.kind = net::PacketKind::kReference;
  tap.on_packet(reference, reference.ts);
  auto cross = regular;
  cross.kind = net::PacketKind::kCross;
  tap.on_packet(cross, cross.ts);

  EXPECT_EQ(tap.sketch().count(), 1u);
  const double accuracy = common::LatencySketchConfig::relative_accuracy;
  EXPECT_NEAR(tap.sketch().quantile(0.5), 4'000.0, accuracy * 4'000.0);
}

}  // namespace
}  // namespace rlir::sim
