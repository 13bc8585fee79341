// EstimateExporter: estimate-stream folding into per-flow sketches, sink
// attachment to an RLIR receiver, and epoch drain/reset semantics.
#include "collect/exporter.h"

#include <gtest/gtest.h>

#include <vector>

#include "rlir/demux.h"
#include "timebase/clock.h"

namespace rlir::collect {
namespace {

using timebase::TimePoint;

net::FiveTuple make_key(std::uint16_t port) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 0, 0, 1);
  key.dst = net::Ipv4Address(10, 9, 9, 9);
  key.src_port = port;
  return key;
}

rli::RliReceiver::PacketEstimate estimate(std::uint16_t port, double ns) {
  return rli::RliReceiver::PacketEstimate{make_key(port), TimePoint::zero(), ns};
}

TEST(EstimateExporterTest, FoldsEstimatesPerFlowAndDrainsSorted) {
  EstimateExporter exporter(ExporterConfig{{}, /*link=*/9});
  exporter.observe(1, estimate(300, 1000.0));
  exporter.observe(1, estimate(100, 2000.0));
  exporter.observe(1, estimate(300, 3000.0));
  EXPECT_EQ(exporter.flow_count(), 2u);
  EXPECT_EQ(exporter.estimates_observed(), 3u);

  const auto records = exporter.drain(/*epoch=*/4);
  ASSERT_EQ(records.size(), 2u);
  // Drained in flow-key order, stamped with link and epoch.
  EXPECT_EQ(records[0].key, make_key(100));
  EXPECT_EQ(records[1].key, make_key(300));
  for (const auto& r : records) {
    EXPECT_EQ(r.link, 9u);
    EXPECT_EQ(r.epoch, 4u);
  }
  EXPECT_EQ(records[1].sketch.count(), 2u);

  // Drain resets: the next epoch starts empty.
  EXPECT_EQ(exporter.flow_count(), 0u);
  EXPECT_TRUE(exporter.drain(5).empty());
}

TEST(EstimateExporterTest, AttachToRlirReceiver) {
  timebase::PerfectClock clock;
  rlir::PrefixDemux demux;
  demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 24), 3);
  rlir::RlirReceiver receiver(rli::ReceiverConfig{}, &clock, &demux);
  EstimateExporter exporter(ExporterConfig{{}, 0});
  exporter.attach(receiver);

  auto ref = net::make_reference_packet(3, TimePoint(0), TimePoint(0), 1);
  ref.ts = TimePoint(500);
  receiver.on_packet(ref, TimePoint(500));
  net::Packet p;
  p.ts = TimePoint(700);
  p.key = make_key(8);
  receiver.on_packet(p, TimePoint(700));
  auto ref2 = net::make_reference_packet(3, TimePoint(1000), TimePoint(1000), 2);
  ref2.ts = TimePoint(1500);
  receiver.on_packet(ref2, TimePoint(1500));

  EXPECT_EQ(exporter.estimates_observed(), 1u);
  const auto records = exporter.drain(0);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].key, make_key(8));
}

}  // namespace
}  // namespace rlir::collect
