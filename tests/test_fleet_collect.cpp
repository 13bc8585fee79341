// End-to-end collection tier over a fat-tree: taps -> RLIR receivers ->
// estimate records (through the binary wire format) -> sharded collector ->
// queries. The acceptance bar: the collector's sketched answers must match
// the unsharded FlowStatsMap ground truth exactly on counts/means and within
// the sketch's configured relative error on quantiles, with per-flow memory
// O(sketch size) rather than O(samples).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <vector>

#include "collect/fleet.h"
#include "collect/sharded_collector.h"
#include "common/stats.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/sender_agent.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"

namespace rlir {
namespace {

using timebase::Duration;
using topo::FatTree;
using topo::NodeId;

class FleetCollectTest : public ::testing::Test {
 protected:
  static constexpr int kK = 4;

  FleetCollectTest()
      : topo_(kK),
        src_a_(topo_.tor(0, 0)),
        src_b_(topo_.tor(0, 1)),
        dst_(topo_.tor(3, 0)) {}

  std::vector<net::Packet> make_traffic(NodeId from, NodeId to, double offered_bps,
                                        std::uint64_t seed, Duration duration) {
    trace::SyntheticConfig cfg;
    cfg.duration = duration;
    cfg.offered_bps = offered_bps;
    cfg.seed = seed;
    cfg.src_pool = topo_.host_prefix(from);
    cfg.dst_pool = topo_.host_prefix(to);
    cfg.first_seq = seed * 100'000'000ULL;
    return trace::SyntheticTraceGenerator(cfg).generate_all();
  }

  /// The scheduler sink that feeds `collector`: a fleet's batches leave only
  /// through the sinks its scheduler is given.
  static collect::EpochScheduler::BatchSink ingest_into(collect::ShardedCollector& collector) {
    return [&collector](std::uint32_t, const std::vector<collect::EstimateRecord>& batch) {
      collector.ingest(batch);
    };
  }

  FatTree topo_;
  NodeId src_a_;
  NodeId src_b_;
  NodeId dst_;
  topo::Crc32EcmpHasher hasher_;
  timebase::PerfectClock clock_;
};

TEST_F(FleetCollectTest, CollectorMatchesUnshardedGroundTruth) {
  topo::FatTreeSim sim(&topo_, topo::FatTreeSimConfig{}, &hasher_);
  const Duration duration = Duration::milliseconds(30);

  // --- Upstream instrumentation: senders at the source ToRs, fleet
  // vantages at every core (prefix demux by origin ToR).
  const auto cores = topo_.cores();

  rli::SenderConfig s1_cfg;
  s1_cfg.id = 1;
  s1_cfg.static_gap = 50;
  rlir::TorSenderAgent s1(s1_cfg, &clock_, cores);
  sim.add_agent(src_a_, &s1);
  rli::SenderConfig s2_cfg = s1_cfg;
  s2_cfg.id = 2;
  rlir::TorSenderAgent s2(s2_cfg, &clock_, cores);
  sim.add_agent(src_b_, &s2);

  rlir::PrefixDemux up_demux;
  up_demux.add_origin(topo_.host_prefix(src_a_), 1);
  up_demux.add_origin(topo_.host_prefix(src_b_), 2);

  // --- Downstream instrumentation: senders at every core, one more fleet
  // vantage at the destination ToR (reverse-ECMP demux).
  rlir::ReverseEcmpDemux down_demux(&topo_, &hasher_, dst_);
  std::vector<std::unique_ptr<rlir::CoreSenderAgent>> core_senders;
  for (int c = 0; c < topo_.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(
        std::make_unique<rlir::CoreSenderAgent>(cfg, &clock_, std::vector<NodeId>{dst_}));
    sim.add_agent(topo_.core(c), core_senders.back().get());
    down_demux.set_sender_at_core(c, cfg.id);
  }

  // --- The collection tier under test.
  collect::FleetConfig fleet_cfg;
  const double accuracy = common::LatencySketchConfig::relative_accuracy;
  collect::FleetCollector fleet(fleet_cfg, &clock_);
  for (const auto& core : cores) fleet.deploy(sim, core, &up_demux);
  const auto down_link = fleet.deploy(sim, dst_, &down_demux);
  ASSERT_EQ(fleet.vantage_count(), cores.size() + 1);
  EXPECT_EQ(fleet.node(down_link), dst_);

  // Shadow capture of every per-packet estimate, fleet-wide: the exact
  // sample sets the sketched quantiles are judged against.
  std::unordered_map<net::FiveTuple, std::vector<double>> samples;
  for (collect::LinkId link = 0; link < fleet.vantage_count(); ++link) {
    fleet.receiver(link).add_estimate_sink(
        [&samples](net::SenderId, const rli::RliReceiver::PacketEstimate& pe) {
          samples[pe.key].push_back(pe.estimate_ns);
        });
  }

  for (const auto& pkt : make_traffic(src_a_, dst_, 1.2e9, 61, duration)) {
    sim.inject_from_host(pkt);
  }
  for (const auto& pkt : make_traffic(src_b_, dst_, 1.2e9, 62, duration)) {
    sim.inject_from_host(pkt);
  }
  sim.run();

  // One scheduler boundary past the whole run ends epoch 0: it flushes every
  // receiver, then drains and ingests every vantage's exporter.
  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = Duration::seconds(1);
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);
  collect::ShardedCollector collector;
  scheduler.add_sink(ingest_into(collector));
  ASSERT_LT(sim.now(), timebase::TimePoint::zero() + sched_cfg.period);
  scheduler.advance_to(timebase::TimePoint::zero() + sched_cfg.period);
  const auto records = scheduler.records_delivered();
  ASSERT_GT(records, 0u);
  EXPECT_EQ(collector.records_ingested(), records);
  EXPECT_EQ(collector.epoch_count(), 1u);

  // --- Acceptance: sketched answers vs the unbounded classic aggregation.
  const auto truth = fleet.unsharded_estimates();
  ASSERT_GT(truth.size(), 100u);
  EXPECT_EQ(collector.flow_count(), truth.size());

  std::uint64_t total_estimates = 0;
  std::size_t quantile_checked = 0;
  for (const auto& [key, stats] : truth) {
    const auto* sketch = collector.flow(key);
    ASSERT_NE(sketch, nullptr) << key.to_string();
    // Counts are exact; means agree to fp noise (same samples, different
    // summation order).
    EXPECT_EQ(sketch->count(), stats.count()) << key.to_string();
    EXPECT_NEAR(sketch->mean(), stats.mean(), 1e-6 * std::max(1.0, std::abs(stats.mean())));
    EXPECT_EQ(sketch->max(), stats.max()) << key.to_string();
    total_estimates += stats.count();

    // Quantiles within the sketch's configured relative-error bound of the
    // true order statistic.
    auto it = samples.find(key);
    ASSERT_NE(it, samples.end());
    ASSERT_EQ(it->second.size(), stats.count());
    if (it->second.size() < 20) continue;
    std::vector<double> sorted = it->second;
    std::sort(sorted.begin(), sorted.end());
    for (double q : {0.5, 0.9, 0.99}) {
      const auto rank = static_cast<std::size_t>(q * static_cast<double>(sorted.size() - 1));
      const double expected = sorted[rank];
      const auto got = collector.flow_quantile(key, q);
      ASSERT_TRUE(got.has_value());
      if (expected > 1.0) {
        EXPECT_NEAR(*got, expected, accuracy * expected * (1.0 + 1e-9))
            << key.to_string() << " q=" << q;
      }
      ++quantile_checked;
    }
  }
  EXPECT_GT(quantile_checked, 100u);
  EXPECT_EQ(collector.estimates_ingested(), total_estimates);

  // --- Memory: per-flow state is O(sketch bins), never O(samples). (The
  // dedicated million-sample bound lives in test_sharded_collector; here we
  // check the property held on real measurement traffic.)
  std::uint64_t largest_flow = 0;
  for (const auto& [key, stats] : truth) {
    largest_flow = std::max(largest_flow, stats.count());
    const auto* sketch = collector.flow(key);
    EXPECT_LE(sketch->bin_count(), common::LatencySketchConfig::max_bins);
  }
  ASSERT_GT(largest_flow, 200u);  // the heavy-tailed workload has big flows
  for (const auto& [key, stats] : truth) {
    if (stats.count() != largest_flow) continue;
    const auto* sketch = collector.flow(key);
    // The heaviest flow keeps fewer bins than samples: bins are bounded by
    // the delay dynamic range, not the packet count.
    EXPECT_LT(sketch->bin_count(), stats.count());
    break;
  }

  // --- Fleet-level queries answer over every vantage.
  EXPECT_EQ(collector.links().size(), fleet.vantage_count());
  const auto fleet_sketch = collector.fleet();
  EXPECT_EQ(fleet_sketch.count(), total_estimates);
  const auto top = collector.top_k_flows(10, 0.99);
  ASSERT_EQ(top.size(), 10u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].p99_ns, top[i].p99_ns);
  }
  // The worst flow's p99 can't exceed the fleet-wide max.
  EXPECT_LE(top[0].p99_ns, fleet_sketch.max() * (1.0 + accuracy));
}

TEST_F(FleetCollectTest, SchedulerDrivenCollectionLosesNoEstimate) {
  // Stepped simulation time drives epoch boundaries, receiver flushes, and
  // idle-flow aging. The conservation law under test: every estimate any
  // vantage produces (including boundary flushes and aged-out flows)
  // reaches the collector exactly once.
  topo::FatTreeSim sim(&topo_, topo::FatTreeSimConfig{}, &hasher_);
  const auto cores = topo_.cores();

  rli::SenderConfig s_cfg;
  s_cfg.id = 1;
  s_cfg.static_gap = 50;
  rlir::TorSenderAgent sender(s_cfg, &clock_, cores);
  sim.add_agent(src_a_, &sender);
  rlir::PrefixDemux demux;
  demux.add_origin(topo_.host_prefix(src_a_), 1);

  collect::FleetCollector fleet(collect::FleetConfig{}, &clock_);
  for (const auto& core : cores) fleet.deploy(sim, core, &demux);

  // Shadow count of every estimate delivered by every vantage's receiver.
  std::uint64_t observed = 0;
  for (collect::LinkId link = 0; link < fleet.vantage_count(); ++link) {
    fleet.receiver(link).add_estimate_sink(
        [&observed](net::SenderId, const rli::RliReceiver::PacketEstimate&) { ++observed; });
  }

  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = Duration::milliseconds(5);
  sched_cfg.max_flow_idle = Duration::milliseconds(2);
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);
  collect::ShardedCollector collector;
  scheduler.add_sink(ingest_into(collector));

  const Duration horizon = Duration::milliseconds(25);
  for (const auto& pkt : make_traffic(src_a_, dst_, 1.0e9, 81, horizon)) {
    sim.inject_from_host(pkt);
  }
  // Step simulation and scheduler in lockstep, finer than the period.
  const Duration step = Duration::milliseconds(1);
  timebase::TimePoint t = timebase::TimePoint::zero();
  while (sim.events_pending()) {
    t += step;
    sim.run_until(t);
    scheduler.advance_to(t);
  }
  // Close out the final (partial) epoch.
  scheduler.advance_to(sim.now() + sched_cfg.period);

  ASSERT_GT(observed, 1000u);
  EXPECT_EQ(collector.estimates_ingested(), observed);
  EXPECT_EQ(scheduler.records_delivered(), collector.records_ingested());
  EXPECT_GE(scheduler.epochs_fired(), 4u);  // ~25ms of traffic / 5ms period
  EXPECT_GE(collector.epoch_count(), 4u);
  // Every vantage exporter ends empty: drained by boundaries, not leaks.
  EXPECT_GT(collector.flow_count(), 0u);
  EXPECT_EQ(collector.flow_count(), fleet.unsharded_estimates().size());
}

TEST_F(FleetCollectTest, EpochsAccumulateAcrossCollections) {
  // Two traffic phases drained as separate epochs into the same collector:
  // per-flow state must equal the union, and both epochs must be visible.
  topo::FatTreeSim sim(&topo_, topo::FatTreeSimConfig{}, &hasher_);
  const auto cores = topo_.cores();

  rli::SenderConfig s_cfg;
  s_cfg.id = 1;
  s_cfg.static_gap = 50;
  rlir::TorSenderAgent sender(s_cfg, &clock_, cores);
  sim.add_agent(src_a_, &sender);
  rlir::PrefixDemux demux;
  demux.add_origin(topo_.host_prefix(src_a_), 1);

  collect::FleetCollector fleet(collect::FleetConfig{}, &clock_);
  for (const auto& core : cores) fleet.deploy(sim, core, &demux);
  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = Duration::milliseconds(50);
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);
  collect::ShardedCollector collector;
  scheduler.add_sink(ingest_into(collector));
  // Ends the epoch in progress at the first boundary past the simulation
  // clock; returns the records that boundary delivered.
  const auto end_epoch = [&] {
    const std::int64_t period = sched_cfg.period.ns();
    const auto before = scheduler.records_delivered();
    scheduler.advance_to(timebase::TimePoint((sim.now().ns() / period + 1) * period));
    return scheduler.records_delivered() - before;
  };

  // Phase 1 runs and drains as epoch 0; phase 2 is injected with timestamps
  // shifted past that boundary (the event queue rejects scheduling in the
  // past) and drains as epoch 1.
  for (const auto& pkt : make_traffic(src_a_, dst_, 1.0e9, 71, Duration::milliseconds(15))) {
    sim.inject_from_host(pkt);
  }
  sim.run();
  ASSERT_EQ(scheduler.next_epoch(), 0u);
  const auto epoch0 = end_epoch();
  ASSERT_GT(epoch0, 0u);
  ASSERT_EQ(scheduler.next_epoch(), 1u);
  const auto flows_after_0 = collector.flow_count();

  const auto phase2_offset = sched_cfg.period + Duration::microseconds(10);
  for (auto pkt : make_traffic(src_a_, dst_, 1.0e9, 72, Duration::milliseconds(15))) {
    pkt.ts += phase2_offset;
    sim.inject_from_host(pkt);
  }
  sim.run();
  const auto epoch1 = end_epoch();
  ASSERT_GT(epoch1, 0u);
  ASSERT_EQ(scheduler.next_epoch(), 2u);

  EXPECT_EQ(collector.epoch_count(), 2u);
  EXPECT_GE(collector.flow_count(), flows_after_0);
  EXPECT_EQ(collector.records_ingested(), epoch0 + epoch1);

  // After the second drain the classic aggregation (which never resets)
  // still matches the collector's totals.
  std::uint64_t truth_estimates = 0;
  for (const auto& [key, stats] : fleet.unsharded_estimates()) truth_estimates += stats.count();
  EXPECT_EQ(collector.estimates_ingested(), truth_estimates);
  EXPECT_EQ(collector.flow_count(), fleet.unsharded_estimates().size());
}

}  // namespace
}  // namespace rlir
