// Unit tests: rlir/receiver.h — multi-sender stream separation.
#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "rlir/receiver.h"
#include "timebase/clock.h"

namespace rlir::rlir {
namespace {

using timebase::TimePoint;

net::Packet reference(std::int64_t arrival_ns, std::int64_t delay_ns, std::uint64_t seq,
                      net::SenderId id) {
  auto ref = net::make_reference_packet(id, TimePoint(arrival_ns - delay_ns),
                                        TimePoint(arrival_ns - delay_ns), seq);
  ref.ts = TimePoint(arrival_ns);
  return ref;
}

net::Packet regular(std::int64_t arrival_ns, net::Ipv4Address src) {
  net::Packet p;
  p.ts = TimePoint(arrival_ns);
  p.injected_at = TimePoint(arrival_ns);
  p.key.src = src;
  p.key.dst = net::Ipv4Address(10, 9, 9, 9);
  p.kind = net::PacketKind::kRegular;
  return p;
}

void expect_same_stats(const common::RunningStats& got,
                       const common::RunningStats& want) {
  EXPECT_EQ(got.count(), want.count());
  EXPECT_EQ(got.mean(), want.mean());
  EXPECT_EQ(got.variance(), want.variance());
  EXPECT_EQ(got.min(), want.min());
  EXPECT_EQ(got.max(), want.max());
}

const net::Ipv4Address kOriginA(10, 0, 0, 1);
const net::Ipv4Address kOriginB(10, 0, 1, 1);

class RlirReceiverTest : public ::testing::Test {
 protected:
  RlirReceiverTest() {
    demux_.add_origin(net::Ipv4Prefix(kOriginA, 24), 1);
    demux_.add_origin(net::Ipv4Prefix(kOriginB, 24), 2);
  }

  timebase::PerfectClock clock_;
  PrefixDemux demux_;
};

TEST_F(RlirReceiverTest, ValidatesConstruction) {
  EXPECT_THROW(RlirReceiver(rli::ReceiverConfig{}, nullptr, &demux_), std::invalid_argument);
  EXPECT_THROW(RlirReceiver(rli::ReceiverConfig{}, &clock_, nullptr), std::invalid_argument);
}

TEST_F(RlirReceiverTest, SeparatesStreamsBySender) {
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);

  // Interleaved: sender 1's segment has delay 1000, sender 2's has 5000.
  receiver.on_packet(reference(0, 1000, 0, 1), TimePoint(0));
  receiver.on_packet(reference(1, 5000, 1, 2), TimePoint(1));
  receiver.on_packet(regular(100, kOriginA), TimePoint(100));
  receiver.on_packet(regular(200, kOriginB), TimePoint(200));
  receiver.on_packet(regular(300, kOriginA), TimePoint(300));
  receiver.on_packet(reference(1000, 1000, 2, 1), TimePoint(1000));
  receiver.on_packet(reference(1001, 5000, 3, 2), TimePoint(1001));

  EXPECT_EQ(receiver.stream_count(), 2u);
  EXPECT_EQ(receiver.classified_packets(), 3u);
  EXPECT_EQ(receiver.unclassified_packets(), 0u);

  const auto* stream1 = receiver.stream(1);
  const auto* stream2 = receiver.stream(2);
  ASSERT_NE(stream1, nullptr);
  ASSERT_NE(stream2, nullptr);
  EXPECT_EQ(stream1->packets_estimated(), 2u);
  EXPECT_EQ(stream2->packets_estimated(), 1u);
  // Each stream interpolates against its own (flat) anchor delays.
  for (const auto& [key, stats] : stream1->per_flow()) {
    EXPECT_DOUBLE_EQ(stats.mean(), 1000.0);
  }
  for (const auto& [key, stats] : stream2->per_flow()) {
    EXPECT_DOUBLE_EQ(stats.mean(), 5000.0);
  }
}

TEST_F(RlirReceiverTest, EstimateSinkTagsSenderAcrossStreams) {
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);

  // One sink registered before any stream exists...
  std::vector<std::pair<net::SenderId, double>> early;
  receiver.add_estimate_sink(
      [&](net::SenderId sender, const rli::RliReceiver::PacketEstimate& e) {
        early.emplace_back(sender, e.estimate_ns);
      });

  receiver.on_packet(reference(0, 1000, 0, 1), TimePoint(0));
  receiver.on_packet(reference(1, 5000, 1, 2), TimePoint(1));
  receiver.on_packet(regular(100, kOriginA), TimePoint(100));
  receiver.on_packet(regular(200, kOriginB), TimePoint(200));

  // ...and one registered after the streams were created: both must see
  // every estimate, tagged with the owning stream's sender.
  std::vector<std::pair<net::SenderId, double>> late;
  receiver.add_estimate_sink(
      [&](net::SenderId sender, const rli::RliReceiver::PacketEstimate& e) {
        late.emplace_back(sender, e.estimate_ns);
      });

  receiver.on_packet(reference(1000, 1000, 2, 1), TimePoint(1000));
  receiver.on_packet(reference(1001, 5000, 3, 2), TimePoint(1001));

  ASSERT_EQ(early.size(), 2u);
  EXPECT_EQ(early, late);
  EXPECT_EQ(early[0].first, 1);
  EXPECT_DOUBLE_EQ(early[0].second, 1000.0);
  EXPECT_EQ(early[1].first, 2);
  EXPECT_DOUBLE_EQ(early[1].second, 5000.0);
}

TEST_F(RlirReceiverTest, UnclassifiedPacketsAreCountedNotEstimated) {
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);
  receiver.on_packet(reference(0, 1000, 0, 1), TimePoint(0));
  receiver.on_packet(regular(100, net::Ipv4Address(192, 168, 0, 1)), TimePoint(100));
  receiver.on_packet(reference(1000, 1000, 1, 1), TimePoint(1000));
  EXPECT_EQ(receiver.unclassified_packets(), 1u);
  EXPECT_EQ(receiver.stream(1)->packets_estimated(), 0u);
}

TEST_F(RlirReceiverTest, CrossAndReferenceKindsNotDemuxed) {
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);
  net::Packet cross = regular(50, kOriginA);
  cross.kind = net::PacketKind::kCross;
  receiver.on_packet(cross, TimePoint(50));
  EXPECT_EQ(receiver.classified_packets(), 0u);
  EXPECT_EQ(receiver.unclassified_packets(), 0u);
}

TEST_F(RlirReceiverTest, MergedEstimatesUnionStreams) {
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);
  receiver.on_packet(reference(0, 1000, 0, 1), TimePoint(0));
  receiver.on_packet(reference(1, 2000, 1, 2), TimePoint(1));
  receiver.on_packet(regular(100, kOriginA), TimePoint(100));
  receiver.on_packet(regular(200, kOriginB), TimePoint(200));
  receiver.on_packet(reference(1000, 1000, 2, 1), TimePoint(1000));
  receiver.on_packet(reference(1001, 2000, 3, 2), TimePoint(1001));

  const auto merged = receiver.merged_estimates();
  EXPECT_EQ(merged.size(), 2u);  // one flow per origin
}

// At scale, each stream's flat accumulator equals its own estimate stream
// folded in arrival order, and merged_estimates() equals the union of the
// streams, statistic for statistic and bit for bit.
TEST_F(RlirReceiverTest, MergedEstimatesMatchStreamUnionAtScale) {
  constexpr std::uint32_t kFlows = 50'000;
  constexpr int kPacketsPerFlow = 4;
  const net::SenderId senders[] = {1, 2, 3};
  PrefixDemux demux;
  for (const net::SenderId s : senders) {
    const net::Ipv4Address origin(10, static_cast<std::uint8_t>(s), 0, 0);
    demux.add_origin(net::Ipv4Prefix(origin, 16), s);
  }
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux);
  std::map<net::SenderId, std::map<net::FiveTuple, common::RunningStats>> folded;
  receiver.add_estimate_sink(
      [&](net::SenderId s, const rli::RliReceiver::PacketEstimate& e) {
        folded[s][e.key].add(e.estimate_ns);
      });

  std::vector<net::Ipv4Address> arrivals;
  for (std::uint32_t f = 0; f < kFlows; ++f) {
    const auto s = static_cast<std::uint8_t>(senders[f % 3]);
    const std::uint32_t host = f / 3;
    const net::Ipv4Address src(10, s, static_cast<std::uint8_t>(host >> 8),
                               static_cast<std::uint8_t>(host));
    for (int p = 0; p < kPacketsPerFlow; ++p) arrivals.push_back(src);
  }
  common::Xoshiro256 rng(29);
  for (std::size_t i = arrivals.size(); i > 1; --i) {
    std::swap(arrivals[i - 1], arrivals[rng.uniform_u64(i)]);
  }
  std::int64_t t = 0;
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    t += 100;
    if (i % 50 == 0) {
      for (const net::SenderId s : senders) {
        const auto delay = 1000 + static_cast<std::int64_t>(rng.uniform_u64(4000));
        receiver.on_packet(reference(t, delay, seq++, s), TimePoint(t));
      }
    }
    receiver.on_packet(regular(t + 50, arrivals[i]), TimePoint(t + 50));
  }
  receiver.flush();

  std::map<net::FiveTuple, common::RunningStats> stream_union;
  for (const net::SenderId s : senders) {
    const rli::RliReceiver* stream = receiver.stream(s);
    ASSERT_NE(stream, nullptr);
    const auto& want = folded[s];
    ASSERT_EQ(stream->per_flow().size(), want.size());
    for (const auto& [key, stats] : stream->per_flow()) {
      const auto it = want.find(key);
      ASSERT_NE(it, want.end());
      expect_same_stats(stats, it->second);
      stream_union[key].merge(stats);
    }
  }
  const rli::FlowStatsMap merged = receiver.merged_estimates();
  EXPECT_EQ(stream_union.size(), kFlows);
  ASSERT_EQ(merged.size(), stream_union.size());
  for (const auto& [key, want] : stream_union) {
    const auto it = merged.find(key);
    ASSERT_NE(it, merged.end());
    expect_same_stats(it->second, want);
  }
}

// Streams are kept in sender order whatever order their senders first
// appear in: each stream is found by its sender, and flush() visits them in
// ascending sender order.
TEST_F(RlirReceiverTest, StreamsOrderedBySenderNotArrival) {
  const net::SenderId senders[] = {9, 3, 5};
  const net::Ipv4Address origins[] = {net::Ipv4Address(10, 0, 9, 1),
                                      net::Ipv4Address(10, 0, 3, 1),
                                      net::Ipv4Address(10, 0, 5, 1)};
  PrefixDemux demux;
  for (int i = 0; i < 3; ++i) demux.add_origin(net::Ipv4Prefix(origins[i], 24), senders[i]);
  RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux);
  std::vector<std::pair<net::SenderId, double>> flushed;
  receiver.add_estimate_sink(
      [&](net::SenderId sender, const rli::RliReceiver::PacketEstimate& e) {
        flushed.emplace_back(sender, e.estimate_ns);
      });

  // Sender s's segment delay is 100*s ns. Senders 9, 3 and 5 send 1, 2 and
  // 3 references, in that order: 3 and 5 land before 9 in sender order.
  receiver.on_packet(reference(0, 900, 0, 9), TimePoint(0));
  const rli::RliReceiver* stream9 = receiver.stream(9);
  ASSERT_NE(stream9, nullptr);
  receiver.on_packet(reference(10, 300, 1, 3), TimePoint(10));
  receiver.on_packet(reference(20, 300, 2, 3), TimePoint(20));
  receiver.on_packet(reference(30, 500, 3, 5), TimePoint(30));
  receiver.on_packet(reference(40, 500, 4, 5), TimePoint(40));
  receiver.on_packet(reference(50, 500, 5, 5), TimePoint(50));
  for (int i = 0; i < 3; ++i) {
    receiver.on_packet(regular(1000 + i, origins[i]), TimePoint(1000 + i));
  }

  EXPECT_EQ(receiver.stream_count(), 3u);
  EXPECT_EQ(receiver.stream(9), stream9);  // later insertions moved no stream
  const std::pair<net::SenderId, std::uint64_t> references_seen[] = {{9, 1}, {3, 2}, {5, 3}};
  for (const auto& [sender, refs] : references_seen) {
    ASSERT_NE(receiver.stream(sender), nullptr);
    EXPECT_EQ(receiver.stream(sender)->references_seen(), refs) << sender;
  }

  EXPECT_EQ(receiver.flush(), 3u);
  const std::vector<std::pair<net::SenderId, double>> expected = {
      {3, 300.0}, {5, 500.0}, {9, 900.0}};
  EXPECT_EQ(flushed, expected);
}

TEST_F(RlirReceiverTest, StreamAccessorForUnknownSender) {
  const RlirReceiver receiver(rli::ReceiverConfig{}, &clock_, &demux_);
  EXPECT_EQ(receiver.stream(99), nullptr);
}

// The motivating failure (Section 3.1): without demultiplexing, streams with
// different segment delays contaminate each other's estimates.
TEST_F(RlirReceiverTest, NoDemuxProducesWrongEstimates) {
  SingleSenderDemux no_demux(1);
  RlirReceiver broken(rli::ReceiverConfig{}, &clock_, &no_demux);

  // Sender 1 anchors (delay 1000) bracket regular packets that actually
  // took sender 2's segment (delay 5000).
  broken.on_packet(reference(0, 1000, 0, 1), TimePoint(0));
  broken.on_packet(regular(100, kOriginB), TimePoint(100));
  broken.on_packet(reference(1000, 1000, 1, 1), TimePoint(1000));

  for (const auto& [key, stats] : broken.stream(1)->per_flow()) {
    // Estimated 1000 although the true segment delay was 5000: "totally
    // wrong", as the paper puts it.
    EXPECT_DOUBLE_EQ(stats.mean(), 1000.0);
  }
}

}  // namespace
}  // namespace rlir::rlir
