// Fleet-wide latency queries: the full collection pipeline on a fat-tree.
//
//   taps -> RLIR receivers (4 cores upstream + 2 destination ToRs
//   downstream) -> per-flow sketches -> EstimateRecord batches (binary wire
//   format) -> RecordViews -> lane-locked ShardedCollector -> operator
//   queries.
//
// Traffic from two pod-0 ToRs fans out to two pod-3 ToRs; one core is
// secretly slow. The example answers the questions an operator would ask a
// telemetry backend: What does latency look like fleet-wide? Per vantage
// point? Which flows are hurting the most? How expensive is the answer?
#include <cstdio>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/fleet.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/sender_agent.h"
#include "sim/tap.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"

namespace rlir {

int run_example() {
  using timebase::Duration;

  constexpr int kK = 4;
  topo::FatTree topo(kK);
  topo::Crc32EcmpHasher hasher;
  timebase::PerfectClock clock;
  topo::FatTreeSim sim(&topo, topo::FatTreeSimConfig{}, &hasher);

  const std::vector sources = {topo.tor(0, 0), topo.tor(0, 1)};
  const std::vector destinations = {topo.tor(3, 0), topo.tor(3, 1)};
  const int slow_core = 2;
  sim.add_extra_delay(topo.core(slow_core), Duration::microseconds(60));
  std::printf("fault injected: +60us at %s (the queries below surface it)\n\n",
              topo.core(slow_core).name(kK).c_str());

  // --- Measurement deployment (the paper's partial placement): senders at
  // source ToRs anchoring ToR->core segments, senders at cores anchoring
  // core->ToR segments.
  const auto cores = topo.cores();

  rlir::PrefixDemux up_demux;
  std::vector<std::unique_ptr<rlir::TorSenderAgent>> tor_senders;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(1 + i);
    cfg.static_gap = 50;
    tor_senders.push_back(std::make_unique<rlir::TorSenderAgent>(cfg, &clock, cores));
    sim.add_agent(sources[i], tor_senders.back().get());
    up_demux.add_origin(topo.host_prefix(sources[i]), cfg.id);
  }

  std::vector<std::unique_ptr<rlir::CoreSenderAgent>> core_senders;
  std::vector<std::unique_ptr<rlir::ReverseEcmpDemux>> down_demuxes;
  for (const auto& dst : destinations) {
    down_demuxes.push_back(std::make_unique<rlir::ReverseEcmpDemux>(&topo, &hasher, dst));
  }
  for (int c = 0; c < topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(
        std::make_unique<rlir::CoreSenderAgent>(cfg, &clock, destinations));
    sim.add_agent(topo.core(c), core_senders.back().get());
    for (auto& demux : down_demuxes) demux->set_sender_at_core(c, cfg.id);
  }

  // --- The collection tier: one vantage per core, one per destination ToR.
  collect::FleetConfig fleet_cfg;
  fleet_cfg.collector.shard_count = 8;
  collect::FleetCollector fleet(fleet_cfg, &clock);
  for (const auto& core : cores) fleet.deploy(sim, core, &up_demux);
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    fleet.deploy(sim, destinations[i], down_demuxes[i].get());
  }

  // Evaluation-only ground truth: the true end-to-end delay distribution at
  // the destinations (full path, vs the per-segment views RLIR measures).
  sim::DelaySketchTap truth_tap;
  for (const auto& dst : destinations) sim.add_arrival_tap(dst, &truth_tap);

  // --- Traffic: every source ToR to every destination ToR.
  std::uint64_t seed = 100;
  for (const auto& src : sources) {
    for (const auto& dst : destinations) {
      trace::SyntheticConfig cfg;
      cfg.duration = Duration::milliseconds(40);
      cfg.offered_bps = 0.8e9;
      cfg.seed = seed;
      cfg.src_pool = topo.host_prefix(src);
      cfg.dst_pool = topo.host_prefix(dst);
      cfg.first_seq = seed * 10'000'000ULL;
      for (const auto& pkt : trace::SyntheticTraceGenerator(cfg).generate_all()) {
        sim.inject_from_host(pkt);
      }
      seed += 100;
    }
  }

  // --- Scheduler-driven collection: epochs fire on a 10ms period as
  // simulated time advances (receiver flushes + exporter drains included),
  // and flows idle for >4ms are aged out of exporter tables early.
  // advance_to is the only way an epoch ends.
  collect::EpochSchedulerConfig sched_cfg;
  sched_cfg.period = Duration::milliseconds(10);
  sched_cfg.max_flow_idle = Duration::milliseconds(4);
  collect::EpochScheduler scheduler(sched_cfg);
  fleet.attach_scheduler(scheduler);

  const Duration step = Duration::milliseconds(1);
  timebase::TimePoint t = timebase::TimePoint::zero();
  while (sim.events_pending()) {
    t += step;
    sim.run_until(t);
    scheduler.advance_to(t);
  }
  scheduler.advance_to(sim.now() + sched_cfg.period);  // final drain

  const auto records = static_cast<std::size_t>(scheduler.records_delivered());
  const auto& collector = fleet.collector();
  std::printf("scheduler: %llu epochs fired, %llu flows aged out mid-epoch\n",
              static_cast<unsigned long long>(scheduler.epochs_fired()),
              static_cast<unsigned long long>(scheduler.flows_aged_out()));

  // --- Query 1: fleet-wide latency distribution.
  const auto fleet_sketch = collector.fleet();
  std::printf("collected %zu records, %llu estimates, %zu flows, %zu vantages\n\n",
              records, static_cast<unsigned long long>(collector.estimates_ingested()),
              collector.flow_count(), collector.links().size());
  std::printf("fleet-wide latency:  p50 %8.1fus   p90 %8.1fus   p99 %8.1fus   max %8.1fus\n",
              fleet_sketch.quantile(0.5) / 1e3, fleet_sketch.quantile(0.9) / 1e3,
              fleet_sketch.quantile(0.99) / 1e3, fleet_sketch.max() / 1e3);
  std::printf("(true end-to-end:    p50 %8.1fus   p90 %8.1fus   p99 %8.1fus — full-path\n"
              " ground truth at the destinations; the fleet view above is per-segment)\n\n",
              truth_tap.sketch().quantile(0.5) / 1e3, truth_tap.sketch().quantile(0.9) / 1e3,
              truth_tap.sketch().quantile(0.99) / 1e3);

  // --- Query 2: per-vantage distributions (the slow core stands out).
  std::printf("%-10s %8s %12s %12s %12s\n", "vantage", "flows", "p50", "p99", "mean");
  for (const auto link : collector.links()) {
    const auto dist = collector.link_distribution(link);
    std::printf("%-10s %8llu %10.1fus %10.1fus %10.1fus\n",
                fleet.node(link).name(kK).c_str(),
                static_cast<unsigned long long>(dist->count()), dist->quantile(0.5) / 1e3,
                dist->quantile(0.99) / 1e3, dist->mean() / 1e3);
  }

  // --- Query 3: top-k worst flows at p99.
  std::printf("\ntop-5 worst flows by p99:\n");
  for (const auto& flow : collector.top_k_flows(5, 0.99)) {
    std::printf("  %-44s %6llu pkts  p50 %8.1fus  p99 %8.1fus\n",
                flow.key.to_string().c_str(), static_cast<unsigned long long>(flow.packets),
                flow.p50_ns / 1e3, flow.p99_ns / 1e3);
  }

  // --- Query 4: what does the answer cost? bytes/flow is bounded by the
  // sketch bin budget no matter how long a flow lives — the property that
  // lets the tier track elephants without per-sample state.
  std::printf("\nmemory: %.1f KiB of sketches for %zu flows (%.0f bytes/flow, "
              "bounded regardless of flow length)\n",
              static_cast<double>(collector.approx_flow_bytes()) / 1024.0,
              collector.flow_count(),
              static_cast<double>(collector.approx_flow_bytes()) /
                  static_cast<double>(collector.flow_count()));
  return 0;
}

}  // namespace rlir

int main() { return rlir::run_example(); }
