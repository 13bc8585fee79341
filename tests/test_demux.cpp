// Unit tests: rlir/demux.h — the three demultiplexing strategies.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "rlir/demux.h"

namespace rlir::rlir {
namespace {

net::Packet packet_from(net::Ipv4Address src, net::Ipv4Address dst = net::Ipv4Address(),
                        net::TosMark tos = 0) {
  net::Packet p;
  p.key.src = src;
  p.key.dst = dst;
  p.tos = tos;
  p.kind = net::PacketKind::kRegular;
  return p;
}

TEST(PrefixDemux, MapsOriginBlocksToSenders) {
  PrefixDemux demux;
  demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24), 1);
  demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 0, 1, 0), 24), 2);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(10, 0, 0, 5))), 1);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(10, 0, 1, 5))), 2);
  EXPECT_FALSE(demux.classify(packet_from(net::Ipv4Address(10, 0, 2, 5))));
  EXPECT_EQ(demux.rule_count(), 2u);
}

TEST(PrefixDemux, LongestPrefixWins) {
  PrefixDemux demux;
  demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 8), 1);
  demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 9, 0, 0), 16), 2);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(10, 9, 1, 1))), 2);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(10, 8, 1, 1))), 1);
}

TEST(MarkingDemux, MapsTosMarks) {
  MarkingDemux demux;
  demux.map_mark(1, 100);
  demux.map_mark(2, 101);
  EXPECT_EQ(demux.classify(packet_from({}, {}, 1)), 100);
  EXPECT_EQ(demux.classify(packet_from({}, {}, 2)), 101);
  EXPECT_FALSE(demux.classify(packet_from({}, {}, 0)));  // unmarked
  EXPECT_FALSE(demux.classify(packet_from({}, {}, 9)));  // unknown mark
}

TEST(SingleSenderDemux, AttributesEverything) {
  const SingleSenderDemux demux(7);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(1, 2, 3, 4))), 7);
  EXPECT_EQ(demux.classify(packet_from(net::Ipv4Address(9, 9, 9, 9))), 7);
}

class ReverseEcmpDemuxTest : public ::testing::Test {
 protected:
  ReverseEcmpDemuxTest() : topo_(4), receiver_tor_(topo_.tor(3, 0)) {}

  topo::FatTree topo_;
  topo::Crc32EcmpHasher hasher_;
  topo::NodeId receiver_tor_;
};

TEST_F(ReverseEcmpDemuxTest, ValidatesConstruction) {
  EXPECT_THROW(ReverseEcmpDemux(nullptr, &hasher_, receiver_tor_), std::invalid_argument);
  EXPECT_THROW(ReverseEcmpDemux(&topo_, nullptr, receiver_tor_), std::invalid_argument);
  EXPECT_THROW(ReverseEcmpDemux(&topo_, &hasher_, topo_.core(0)), std::invalid_argument);
  ReverseEcmpDemux demux(&topo_, &hasher_, receiver_tor_);
  EXPECT_THROW(demux.set_sender_at_core(4, 1), std::out_of_range);
  EXPECT_THROW(demux.set_sender_at_core(-1, 1), std::out_of_range);
  // kNoSender marks an unmapped core; it cannot be registered as a verdict.
  EXPECT_THROW(demux.set_sender_at_core(0, net::kNoSender), std::invalid_argument);
}

TEST_F(ReverseEcmpDemuxTest, CrossPodAttributedToForwardRouteCore) {
  ReverseEcmpDemux demux(&topo_, &hasher_, receiver_tor_);
  // Register every core twice: the second registration replaces the first.
  for (int c = 0; c < topo_.core_count(); ++c) {
    demux.set_sender_at_core(c, static_cast<net::SenderId>(50 + c));
    demux.set_sender_at_core(c, static_cast<net::SenderId>(100 + c));
  }
  common::Xoshiro256 rng(1);
  for (int pod = 0; pod < topo_.pods(); ++pod) {
    if (pod == receiver_tor_.pod) continue;
    for (int t = 0; t < topo_.tors_per_pod(); ++t) {
      const auto origin = topo_.tor(pod, t);
      for (int i = 0; i < 500; ++i) {
        net::Packet p = packet_from(
            topo_.host_address(origin, static_cast<int>(rng.uniform_u64(200))),
            topo_.host_address(receiver_tor_, static_cast<int>(rng.uniform_u64(200))));
        p.key.src_port = static_cast<std::uint16_t>(rng.next());
        p.key.dst_port = static_cast<std::uint16_t>(rng.next());
        const auto route = topo::ecmp_route(topo_, hasher_, p.key, origin, receiver_tor_);
        const auto sender = demux.classify(p);
        ASSERT_TRUE(sender);
        EXPECT_EQ(*sender, 100 + route[2].index) << origin.name(topo_.k());
      }
    }
  }
}

TEST_F(ReverseEcmpDemuxTest, SamePodUsesUpstreamRules) {
  ReverseEcmpDemux demux(&topo_, &hasher_, receiver_tor_);
  demux.set_sender_at_core(0, 100);
  const auto same_pod = topo_.tor(3, 1);  // T8, the paper's S5 case
  demux.add_same_pod_origin(topo_.host_prefix(same_pod), 55);
  // Same-pod origin with a registered rule.
  const auto hit = demux.classify(packet_from(topo_.host_address(same_pod, 1),
                                              topo_.host_address(receiver_tor_, 1)));
  ASSERT_TRUE(hit);
  EXPECT_EQ(*hit, 55);
  // Same-pod origin without a rule: unattributable.
  EXPECT_FALSE(demux.classify(packet_from(topo_.host_address(receiver_tor_, 2),
                                          topo_.host_address(receiver_tor_, 1))));
}

TEST_F(ReverseEcmpDemuxTest, UnknownOriginUnclassified) {
  ReverseEcmpDemux demux(&topo_, &hasher_, receiver_tor_);
  demux.set_sender_at_core(0, 100);
  EXPECT_FALSE(demux.classify(packet_from(net::Ipv4Address(192, 168, 0, 1))));
}

TEST_F(ReverseEcmpDemuxTest, UnregisteredCoreUnclassified) {
  ReverseEcmpDemux demux(&topo_, &hasher_, receiver_tor_);
  // No senders registered: every cross-pod packet is unattributable.
  EXPECT_FALSE(demux.classify(packet_from(topo_.host_address(topo_.tor(0, 0), 1),
                                          topo_.host_address(receiver_tor_, 1))));
}

}  // namespace
}  // namespace rlir::rlir
