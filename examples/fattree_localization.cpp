// Fat-tree anomaly localization: the end-to-end RLIR workflow on the
// paper's Figure-1 topology.
//
// A k=4 fat-tree carries traffic from two ToRs (pods 0) to T7 (pod 3).
// RLIR instances are deployed at the ToR uplinks and at every core (the
// paper's partial placement). One core is secretly slow. The example:
//   1. wires up upstream (ToR->core) and downstream (core->ToR) measurement,
//   2. demultiplexes downstream traffic by reverse-ECMP computation,
//   3. localizes the slow switch from the per-segment estimates alone,
//   4. feeds every vantage's estimates through the collection tier and asks
//      it which flows the fault actually hurt (localization says *where*,
//      the collector says *who*).
#include <cstdio>
#include <memory>
#include <vector>

#include "collect/exporter.h"
#include "collect/sharded_collector.h"
#include "rli/receiver.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/localization.h"
#include "rlir/receiver.h"
#include "rlir/sender_agent.h"
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

  const auto src_a = topo.tor(0, 0);   // T1
  const auto src_b = topo.tor(0, 1);   // T2
  const auto dst = topo.tor(3, 0);     // T7

  // The fault we will have to find: core C2 (index 1) forwards slowly.
  const int slow_core = 1;
  sim.add_extra_delay(topo.core(slow_core), Duration::microseconds(80));
  std::printf("injected fault: +80us forwarding delay at %s (hidden from RLIR)\n\n",
              topo.core(slow_core).name(kK).c_str());

  // --- Downstream instrumentation: a sender at every core, receiver at T7.
  rlir::ReverseEcmpDemux demux(&topo, &hasher, dst);
  std::vector<std::unique_ptr<rlir::CoreSenderAgent>> core_senders;
  for (int c = 0; c < topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(std::make_unique<rlir::CoreSenderAgent>(
        cfg, &clock, std::vector<topo::NodeId>{dst}));
    sim.add_agent(topo.core(c), core_senders.back().get());
    demux.set_sender_at_core(c, cfg.id);
  }
  rlir::RlirReceiver down_receiver(rli::ReceiverConfig{}, &clock, &demux);
  sim.add_arrival_tap(dst, &down_receiver);
  collect::EstimateExporter down_exporter(collect::ExporterConfig{{}, /*link=*/0});
  down_exporter.attach(down_receiver);

  // --- Upstream instrumentation: senders at T1/T2, receivers at each core.
  std::vector<topo::NodeId> cores;
  for (int c = 0; c < topo.core_count(); ++c) cores.push_back(topo.core(c));
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
  std::vector<std::unique_ptr<rlir::RlirReceiver>> up_receivers;
  std::vector<std::unique_ptr<collect::EstimateExporter>> up_exporters;
  for (const auto& core : cores) {
    up_receivers.push_back(
        std::make_unique<rlir::RlirReceiver>(rli::ReceiverConfig{}, &clock, &up_demux));
    sim.add_arrival_tap(core, up_receivers.back().get());
    up_exporters.push_back(std::make_unique<collect::EstimateExporter>(
        collect::ExporterConfig{{}, static_cast<collect::LinkId>(up_exporters.size() + 1)}));
    up_exporters.back()->attach(*up_receivers.back());
  }

  // --- Traffic.
  for (const auto& [tor, seed] : {std::pair{src_a, 100ULL}, std::pair{src_b, 200ULL}}) {
    trace::SyntheticConfig cfg;
    cfg.duration = Duration::milliseconds(50);
    cfg.offered_bps = 1.5e9;
    cfg.seed = seed;
    cfg.src_pool = topo.host_prefix(tor);
    cfg.dst_pool = topo.host_prefix(dst);
    cfg.first_seq = seed * 10'000'000ULL;
    for (const auto& pkt : trace::SyntheticTraceGenerator(cfg).generate_all()) {
      sim.inject_from_host(pkt);
    }
  }
  sim.run();

  // --- Localization from per-segment estimates.
  rlir::AnomalyLocalizer localizer;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    localizer.add_segment("up " + src_a.name(kK) + "/" + src_b.name(kK) + "-" +
                              cores[c].name(kK),
                          up_receivers[c]->merged_estimates());
  }
  for (int c = 0; c < topo.core_count(); ++c) {
    const auto* stream = down_receiver.stream(static_cast<net::SenderId>(10 + c));
    localizer.add_segment("down " + topo.core(c).name(kK) + "-" + dst.name(kK),
                          stream != nullptr ? stream->per_flow() : rli::FlowStatsMap{});
  }

  std::printf("%-18s %8s %14s %10s\n", "segment", "flows", "median delay", "score");
  for (const auto& seg : localizer.segments()) {
    std::printf("%-18s %8zu %12.1fus %10s\n", seg.name.c_str(), seg.flows,
                seg.median_flow_delay_ns / 1e3, "");
  }
  std::printf("\nfindings (threshold 3x baseline):\n");
  for (const auto& finding : localizer.localize(3.0)) {
    std::printf("  %-18s score %6.1f %s\n", finding.segment.c_str(), finding.score,
                finding.anomalous ? "<-- ANOMALOUS" : "");
  }

  // --- Collection tier: same estimates, flow-centric answer. Every
  // vantage's sketches travel the binary wire format into the sharded
  // collector, which names the flows the slow core actually hurt.
  collect::ShardedCollector collector;
  const auto ship = [&collector](collect::EstimateExporter& exporter) {
    collector.ingest(exporter.drain(/*epoch=*/0));
  };
  ship(down_exporter);
  for (auto& exporter : up_exporters) ship(*exporter);

  std::printf("\ncollector view (%zu flows, %llu estimates): worst flows by p99\n",
              collector.flow_count(),
              static_cast<unsigned long long>(collector.estimates_ingested()));
  for (const auto& flow : collector.top_k_flows(5, 0.99)) {
    std::printf("  %-44s %5llu pkts  p99 %8.1fus\n", flow.key.to_string().c_str(),
                static_cast<unsigned long long>(flow.packets), flow.p99_ns / 1e3);
  }
  return 0;
}

}  // namespace rlir

int main() { return rlir::run_example(); }
