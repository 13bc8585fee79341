// EpochScheduler: grid-aligned epoch firing, bit-identical batches across
// replays (the determinism contract of the collection tier), idle-flow
// aging bounds, and a wall-clock caller that stalls past several
// boundaries.
#include "collect/epoch_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "collect/sharded_collector.h"
#include "common/rng.h"

namespace rlir::collect {
namespace {

using timebase::Duration;
using timebase::TimePoint;

net::FiveTuple make_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 2, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 1, 1);
  key.src_port = static_cast<std::uint16_t>(3000 + i);
  key.dst_port = 80;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kTcp);
  return key;
}

rli::RliReceiver::PacketEstimate estimate_at(std::uint32_t flow, std::int64_t t_ns,
                                             double latency_ns) {
  return rli::RliReceiver::PacketEstimate{make_key(flow), TimePoint(t_ns), latency_ns};
}

/// A seeded estimate schedule: `count` estimates at strictly increasing
/// times over [0, horizon), cycling through `flows` flows.
struct ScheduledEstimate {
  std::int64_t t_ns;
  std::uint32_t flow;
  double latency_ns;
};
std::vector<ScheduledEstimate> make_schedule(std::uint64_t seed, std::size_t count,
                                             std::uint32_t flows, std::int64_t horizon_ns) {
  common::Xoshiro256 rng(seed);
  std::vector<ScheduledEstimate> events;
  events.reserve(count);
  const std::int64_t step = horizon_ns / static_cast<std::int64_t>(count);
  for (std::size_t i = 0; i < count; ++i) {
    events.push_back(ScheduledEstimate{static_cast<std::int64_t>(i) * step + 1,
                                       static_cast<std::uint32_t>(i) % flows,
                                       rng.uniform(10e3, 200e3)});
  }
  return events;
}

/// Replays a schedule through an exporter + scheduler, encoding every
/// delivered batch; returns the concatenated wire bytes (the determinism
/// fingerprint) and the delivered epoch sequence.
struct ReplayResult {
  std::vector<std::uint8_t> wire;
  std::vector<std::uint32_t> epochs;
  std::uint64_t aged = 0;
};
ReplayResult replay(const std::vector<ScheduledEstimate>& events, Duration period,
                    Duration max_idle, std::int64_t advance_step_ns) {
  EstimateExporter exporter(ExporterConfig{{}, /*link=*/5});
  EpochSchedulerConfig cfg;
  cfg.period = period;
  cfg.max_flow_idle = max_idle;
  EpochScheduler scheduler(cfg);
  scheduler.add_exporter(&exporter);
  ReplayResult result;
  scheduler.add_sink([&result](std::uint32_t epoch, const std::vector<EstimateRecord>& batch) {
    result.epochs.push_back(epoch);
    const auto bytes = encode_records(batch);
    result.wire.insert(result.wire.end(), bytes.begin(), bytes.end());
  });

  // Drive sim time on a fixed cadence independent of event times: the
  // scheduler's grid, not the call pattern, decides epoch boundaries.
  std::int64_t now = 0;
  for (const auto& ev : events) {
    while (now < ev.t_ns) {
      now = std::min(ev.t_ns, now + advance_step_ns);
      scheduler.advance_to(TimePoint(now));
    }
    exporter.observe(1, estimate_at(ev.flow, ev.t_ns, ev.latency_ns));
  }
  scheduler.advance_to(TimePoint(now + period.ns()));  // final drain boundary
  result.aged = scheduler.flows_aged_out();
  return result;
}

TEST(EpochSchedulerTest, NonPositivePeriodThrows) {
  EpochSchedulerConfig cfg;
  cfg.period = Duration::zero();
  EXPECT_THROW(EpochScheduler{cfg}, std::invalid_argument);
}

TEST(EpochSchedulerTest, FiresOncePerGridBoundaryRegardlessOfCallPattern) {
  EstimateExporter exporter(ExporterConfig{{}, 0});
  EpochSchedulerConfig cfg;
  cfg.period = Duration::milliseconds(1);
  EpochScheduler scheduler(cfg);
  scheduler.add_exporter(&exporter);

  // Many tiny advances, then one huge one: boundary count only depends on
  // how much simulated time passed.
  for (int i = 1; i <= 10; ++i) {
    scheduler.advance_to(TimePoint(Duration::microseconds(100 * i).ns()));
  }
  EXPECT_EQ(scheduler.epochs_fired(), 1u);  // crossed 1ms once
  scheduler.advance_to(TimePoint(Duration::milliseconds(5).ns()));
  EXPECT_EQ(scheduler.epochs_fired(), 5u);
  // Re-advancing to the past (or the same time) is a no-op.
  scheduler.advance_to(TimePoint(Duration::milliseconds(3).ns()));
  EXPECT_EQ(scheduler.epochs_fired(), 5u);
  EXPECT_EQ(scheduler.next_epoch(), 5u);
}

TEST(EpochSchedulerTest, SameSeedAndPeriodYieldBitIdenticalBatches) {
  const auto events = make_schedule(/*seed=*/77, /*count=*/400, /*flows=*/23,
                                    /*horizon_ns=*/Duration::milliseconds(8).ns());
  const auto a = replay(events, Duration::milliseconds(1), Duration::zero(),
                        Duration::microseconds(50).ns());
  const auto b = replay(events, Duration::milliseconds(1), Duration::zero(),
                        Duration::microseconds(50).ns());
  ASSERT_FALSE(a.wire.empty());
  EXPECT_EQ(a.wire, b.wire);
  EXPECT_EQ(a.epochs, b.epochs);
}

TEST(EpochSchedulerTest, AdvanceCadenceDoesNotChangeBatches) {
  // Same workload driven with 50us advances vs 400us advances: boundaries
  // are on the period grid either way, so the delivered record stream is
  // byte-identical (aging off; with aging on, eviction instants legitimately
  // depend on when the scheduler gets to look at the clock).
  const auto events = make_schedule(/*seed=*/78, /*count=*/300, /*flows=*/17,
                                    /*horizon_ns=*/Duration::milliseconds(6).ns());
  const auto fine = replay(events, Duration::milliseconds(1), Duration::zero(),
                           Duration::microseconds(50).ns());
  const auto coarse = replay(events, Duration::milliseconds(1), Duration::zero(),
                             Duration::microseconds(400).ns());
  EXPECT_EQ(fine.wire, coarse.wire);
  EXPECT_EQ(fine.epochs, coarse.epochs);
}

TEST(EpochSchedulerTest, DrainedBatchesReachACollectorWithEpochIndices) {
  EstimateExporter exporter(ExporterConfig{{}, /*link=*/2});
  EpochSchedulerConfig cfg;
  cfg.period = Duration::milliseconds(1);
  EpochScheduler scheduler(cfg);
  scheduler.add_exporter(&exporter);
  ShardedCollector collector;
  scheduler.add_sink([&collector](std::uint32_t, const std::vector<EstimateRecord>& batch) {
    collector.ingest(batch);
  });

  exporter.observe(1, estimate_at(0, Duration::microseconds(100).ns(), 50e3));
  exporter.observe(1, estimate_at(1, Duration::microseconds(200).ns(), 60e3));
  scheduler.advance_to(TimePoint(Duration::milliseconds(1).ns()));  // epoch 0
  exporter.observe(1, estimate_at(0, Duration::microseconds(1200).ns(), 70e3));
  scheduler.advance_to(TimePoint(Duration::milliseconds(2).ns()));  // epoch 1

  EXPECT_EQ(collector.records_ingested(), 3u);
  EXPECT_EQ(collector.flow_count(), 2u);
  EXPECT_EQ(collector.epoch_count(), 2u);
  EXPECT_EQ(scheduler.records_delivered(), 3u);
  EXPECT_EQ(exporter.flow_count(), 0u);  // drained
}

TEST(EpochSchedulerTest, IdleFlowsAgeOutEarlyAndNothingIsLost) {
  EstimateExporter exporter(ExporterConfig{{}, /*link=*/3});
  EpochSchedulerConfig cfg;
  cfg.period = Duration::milliseconds(10);  // long epoch
  cfg.max_flow_idle = Duration::milliseconds(1);
  EpochScheduler scheduler(cfg);
  scheduler.add_exporter(&exporter);
  ShardedCollector collector;
  std::uint64_t aging_batches = 0;
  scheduler.add_sink([&](std::uint32_t, const std::vector<EstimateRecord>& batch) {
    collector.ingest(batch);
    ++aging_batches;
  });

  // Flow 0 sends once at t=0.1ms and goes quiet; flow 1 keeps sending.
  exporter.observe(1, estimate_at(0, Duration::microseconds(100).ns(), 40e3));
  for (int i = 1; i <= 8; ++i) {
    exporter.observe(1, estimate_at(1, Duration::microseconds(500 * i).ns(), 50e3));
    scheduler.advance_to(TimePoint(Duration::microseconds(500 * i).ns()));
  }

  // Flow 0 was idle > 1ms mid-epoch: evicted, shipped, memory freed — while
  // the active flow stays resident. No boundary has fired yet.
  EXPECT_EQ(scheduler.epochs_fired(), 0u);
  EXPECT_EQ(scheduler.flows_aged_out(), 1u);
  EXPECT_EQ(exporter.flows_aged_out(), 1u);
  EXPECT_EQ(exporter.flow_count(), 1u);
  EXPECT_EQ(collector.flow_count(), 1u);
  ASSERT_NE(collector.flow(make_key(0)), nullptr);

  // The epoch boundary drains the survivor; every estimate is accounted for.
  scheduler.advance_to(TimePoint(Duration::milliseconds(10).ns()));
  EXPECT_EQ(scheduler.epochs_fired(), 1u);
  EXPECT_EQ(collector.flow_count(), 2u);
  EXPECT_EQ(collector.estimates_ingested(), 9u);
  EXPECT_GE(aging_batches, 2u);  // at least: one aging batch + one drain
}

TEST(EpochSchedulerTest, StalledWallClockCallerEndsEveryMissedEpochInOrder) {
  // A deployment passes elapsed steady-clock time to advance_to. After a
  // stall, one call ends every missed epoch in order, each under its grid
  // index, and idle aging then runs against the caller's clock under the
  // in-progress epoch's index. Nothing is lost along the way.
  EstimateExporter exporter(ExporterConfig{{}, /*link=*/6});
  EpochSchedulerConfig cfg;
  cfg.period = Duration::milliseconds(10);
  cfg.max_flow_idle = Duration::milliseconds(2);
  EpochScheduler scheduler(cfg);
  scheduler.add_exporter(&exporter);
  std::vector<std::uint32_t> ended;
  scheduler.add_epoch_hook([&ended](std::uint32_t epoch) { ended.push_back(epoch); });
  ShardedCollector collector;
  using Batches = std::vector<std::pair<std::uint32_t, std::size_t>>;  // (epoch, records)
  Batches batches;
  scheduler.add_sink([&](std::uint32_t epoch, const std::vector<EstimateRecord>& batch) {
    batches.emplace_back(epoch, batch.size());
    collector.ingest(batch);
  });
  const auto us = [](std::int64_t v) { return Duration::microseconds(v).ns(); };

  // Three flows report before the first call; none has been idle 2 ms yet.
  for (std::uint32_t f = 0; f < 3; ++f) {
    exporter.observe(1, estimate_at(f, us(200 * (f + 1)), 30e3));
  }
  scheduler.advance_to(TimePoint(us(1'000)));
  EXPECT_EQ(scheduler.epochs_fired(), 0u);
  EXPECT_TRUE(batches.empty());

  // The caller stalls and next reads the clock at 57 ms: boundaries 10..50 ms
  // end epochs 0-4 in order, and epoch 0's drain carries the three records.
  // The drains leave the exporter empty, so this call's aging ships nothing.
  scheduler.advance_to(TimePoint(us(57'000)));
  EXPECT_EQ(ended, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(scheduler.epochs_fired(), 5u);
  EXPECT_EQ(scheduler.next_epoch(), 5u);
  EXPECT_EQ(batches, (Batches{{0, 3}}));
  EXPECT_EQ(scheduler.flows_aged_out(), 0u);

  // The caller then folds in a packet that arrived during the stall (54 ms)
  // and a fresh one (58 ms). At 59 ms the first has been idle 5 ms: it ages
  // out under epoch 5, while the second stays resident.
  exporter.observe(1, estimate_at(3, us(54'000), 40e3));
  exporter.observe(1, estimate_at(4, us(58'000), 50e3));
  scheduler.advance_to(TimePoint(us(59'000)));
  EXPECT_EQ(scheduler.epochs_fired(), 5u);
  EXPECT_EQ(scheduler.flows_aged_out(), 1u);
  EXPECT_EQ(batches, (Batches{{0, 3}, {5, 1}}));
  ASSERT_NE(collector.flow(make_key(3)), nullptr);
  EXPECT_EQ(exporter.flow_count(), 1u);

  // The final boundary drains the survivor: every estimate has arrived.
  scheduler.advance_to(TimePoint(us(60'000)));
  EXPECT_EQ(ended.back(), 5u);
  EXPECT_EQ(batches, (Batches{{0, 3}, {5, 1}, {5, 1}}));
  EXPECT_EQ(collector.estimates_ingested(), 5u);
  EXPECT_EQ(collector.flow_count(), 5u);
  EXPECT_EQ(collector.epoch_count(), 2u);
  EXPECT_EQ(scheduler.records_delivered(), 5u);
}

}  // namespace
}  // namespace rlir::collect
