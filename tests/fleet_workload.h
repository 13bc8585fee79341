// Shared E2E workload for the transport-tier acceptance tests: a FatTreeSim
// fleet (2 source ToRs -> 1 destination ToR, core + destination vantages,
// scheduler-driven epochs) whose record batches are bit-identical run to
// run — so a baseline run collected in-process and a transport run shipped
// over byte streams can be compared bin for bin.
//
// Used by test_transport_e2e (single agent), test_fleet_coordinator_e2e
// (partitioned 4-agent fleet) and test_fleet_coordinator_fault (agent kill
// mid-stream).
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/fleet.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/sender_agent.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"

namespace rlir::testutil {

inline constexpr int kWorkloadFatTreeK = 4;
inline constexpr std::size_t kWorkloadShards = 4;

/// Runs the standard fleet workload. Every sink in `sinks` receives the
/// full batch stream (none = collect into the in-process collector);
/// `between_steps` runs after each simulation step AND once after the final
/// epoch — the hook transport runs use to pump clients / poll agents inline
/// with the simulation. Returns the fleet's local collector state (empty
/// when sinks diverted collection).
template <typename BetweenSteps>
collect::ShardedCollector run_fleet_workload(
    std::vector<collect::EpochScheduler::BatchSink> sinks, BetweenSteps between_steps) {
  using timebase::Duration;

  topo::FatTree topo(kWorkloadFatTreeK);
  topo::Crc32EcmpHasher hasher;
  timebase::PerfectClock clock;
  topo::FatTreeSim sim(&topo, topo::FatTreeSimConfig{}, &hasher);

  const auto src_a = topo.tor(0, 0);
  const auto src_b = topo.tor(0, 1);
  const auto dst = topo.tor(3, 0);
  const auto cores = topo.cores();
  sim.add_extra_delay(topo.core(1), Duration::microseconds(40));

  rli::SenderConfig s1_cfg;
  s1_cfg.id = 1;
  s1_cfg.static_gap = 50;
  rlir::TorSenderAgent s1(s1_cfg, &clock, cores);
  sim.add_agent(src_a, &s1);
  rli::SenderConfig s2_cfg = s1_cfg;
  s2_cfg.id = 2;
  rlir::TorSenderAgent s2(s2_cfg, &clock, cores);
  sim.add_agent(src_b, &s2);

  rlir::PrefixDemux up_demux;
  up_demux.add_origin(topo.host_prefix(src_a), 1);
  up_demux.add_origin(topo.host_prefix(src_b), 2);

  rlir::ReverseEcmpDemux down_demux(&topo, &hasher, dst);
  std::vector<std::unique_ptr<rlir::CoreSenderAgent>> core_senders;
  for (int c = 0; c < topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(std::make_unique<rlir::CoreSenderAgent>(
        cfg, &clock, std::vector<topo::NodeId>{dst}));
    sim.add_agent(topo.core(c), core_senders.back().get());
    down_demux.set_sender_at_core(c, cfg.id);
  }

  collect::FleetConfig fleet_cfg;
  fleet_cfg.collector.shard_count = kWorkloadShards;
  collect::FleetCollector fleet(fleet_cfg, &clock);
  for (auto& sink : sinks) fleet.add_batch_sink(std::move(sink));
  for (const auto& core : cores) fleet.deploy(sim, core, &up_demux);
  fleet.deploy(sim, dst, &down_demux);

  for (const auto src : {src_a, src_b}) {
    trace::SyntheticConfig cfg;
    cfg.duration = Duration::milliseconds(20);
    cfg.offered_bps = 1.0e9;
    cfg.seed = src == src_a ? 61 : 62;
    cfg.src_pool = topo.host_prefix(src);
    cfg.dst_pool = topo.host_prefix(dst);
    cfg.first_seq = cfg.seed * 100'000'000ULL;
    for (const auto& pkt : trace::SyntheticTraceGenerator(cfg).generate_all()) {
      sim.inject_from_host(pkt);
    }
  }

  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = Duration::milliseconds(5);
  sched_cfg.max_flow_idle = Duration::milliseconds(2);
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);

  const Duration step = Duration::milliseconds(1);
  timebase::TimePoint t = timebase::TimePoint::zero();
  while (sim.events_pending()) {
    t += step;
    sim.run_until(t);
    scheduler.advance_to(t);
    between_steps();
  }
  scheduler.advance_to(sim.now() + sched_cfg.period);
  between_steps();

  return fleet.collector().snapshot();
}

/// The in-process ground truth every transport run is compared against.
inline collect::ShardedCollector fleet_baseline_state() {
  return run_fleet_workload({}, [] {});
}

/// Bin-for-bin equality of two collectors' entire observable state.
inline void expect_identical_collectors(collect::ShardedCollector& got,
                                        collect::ShardedCollector& want) {
  ASSERT_GT(want.records_ingested(), 0u);
  EXPECT_EQ(got.records_ingested(), want.records_ingested());
  EXPECT_EQ(got.estimates_ingested(), want.estimates_ingested());
  EXPECT_EQ(got.flow_count(), want.flow_count());
  EXPECT_EQ(got.epochs_seen(), want.epochs_seen());

  // Fleet-wide and per-vantage distributions, exact.
  EXPECT_EQ(got.fleet().bins(), want.fleet().bins());
  EXPECT_EQ(got.fleet().count(), want.fleet().count());
  ASSERT_EQ(got.links(), want.links());
  for (const auto link : want.links()) {
    const auto got_dist = got.link_distribution(link);
    const auto want_dist = want.link_distribution(link);
    ASSERT_TRUE(got_dist.has_value());
    EXPECT_EQ(got_dist->bins(), want_dist->bins()) << "link " << link;
  }

  // Every flow's merged sketch, bin for bin (top_k with k = all flows
  // enumerates them deterministically).
  const auto all = want.top_k_flows(want.flow_count(), 0.99);
  ASSERT_EQ(all.size(), want.flow_count());
  for (const auto& flow : all) {
    const auto* got_sketch = got.flow(flow.key);
    const auto* want_sketch = want.flow(flow.key);
    ASSERT_NE(got_sketch, nullptr) << flow.key.to_string();
    EXPECT_EQ(got_sketch->bins(), want_sketch->bins()) << flow.key.to_string();
    EXPECT_EQ(got_sketch->count(), want_sketch->count()) << flow.key.to_string();
    EXPECT_EQ(got_sketch->sum(), want_sketch->sum()) << flow.key.to_string();
  }

  // And the ranked answers a higher tier would consume.
  const auto got_top = got.top_k_flows(10, 0.99);
  const auto want_top = want.top_k_flows(10, 0.99);
  ASSERT_EQ(got_top.size(), want_top.size());
  for (std::size_t i = 0; i < want_top.size(); ++i) {
    EXPECT_EQ(got_top[i].key, want_top[i].key) << "rank " << i;
    EXPECT_EQ(got_top[i].p99_ns, want_top[i].p99_ns) << "rank " << i;
  }
}

}  // namespace rlir::testutil
