#include "recording.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "rli/sender.h"
#include "rlir/segment_truth.h"
#include "rlir/sender_agent.h"
#include "sim/tap.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"

namespace perfbench {
namespace {

namespace net = rlir::net;
namespace rli = rlir::rli;
namespace sim = rlir::sim;
namespace timebase = rlir::timebase;
namespace topo = rlir::topo;
namespace trace = rlir::trace;

class ArrivalTap final : public sim::PacketTap {
 public:
  ArrivalTap(std::vector<Arrival>* out, std::uint8_t vantage) : out_(out), vantage_(vantage) {}

  void on_packet(const net::Packet& p, timebase::TimePoint arrival) override {
    out_->push_back(Arrival{arrival.ns(), p.ref_stamp.ns(), p.key, p.sender, p.kind, vantage_});
  }

 private:
  std::vector<Arrival>* out_;
  std::uint8_t vantage_;
};

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::unique_ptr<Recording> record(const Workload& w, std::uint64_t seed, double span_scale) {
  const auto started = std::chrono::steady_clock::now();
  auto rec = std::make_unique<Recording>();
  const topo::FatTree& topo = rec->topo;
  topo::FatTreeSim sim(&topo, topo::FatTreeSimConfig{}, &rec->hasher);

  const std::vector sources = {topo.tor(0, 0), topo.tor(0, 1), topo.tor(1, 0), topo.tor(1, 1)};
  const std::vector dests = {topo.tor(2, 0), topo.tor(2, 1), topo.tor(3, 0), topo.tor(3, 1)};
  const auto cores = topo.cores();

  // The paper's partial placement (examples/fleet_query): senders at the
  // source ToR uplinks anchor ToR->core, senders at the cores anchor
  // core->ToR; receivers sit at the cores and the destination ToRs.
  std::vector<std::unique_ptr<rlir::rlir::TorSenderAgent>> tor_senders;
  for (std::size_t i = 0; i < sources.size(); ++i) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(1 + i);
    cfg.static_gap = 50;
    tor_senders.push_back(std::make_unique<rlir::rlir::TorSenderAgent>(cfg, &rec->clock, cores));
    sim.add_agent(sources[i], tor_senders.back().get());
    rec->up_demux.add_origin(topo.host_prefix(sources[i]), cfg.id);
  }
  for (const auto& dst : dests) {
    rec->down_demuxes.push_back(
        std::make_unique<rlir::rlir::ReverseEcmpDemux>(&rec->topo, &rec->hasher, dst));
  }
  std::vector<std::unique_ptr<rlir::rlir::CoreSenderAgent>> core_senders;
  for (int c = 0; c < topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(10 + c);
    cfg.static_gap = 50;
    core_senders.push_back(std::make_unique<rlir::rlir::CoreSenderAgent>(cfg, &rec->clock, dests));
    sim.add_agent(topo.core(c), core_senders.back().get());
    for (auto& demux : rec->down_demuxes) demux->set_sender_at_core(c, cfg.id);
  }

  std::vector<std::unique_ptr<ArrivalTap>> taps;
  for (std::size_t c = 0; c < cores.size(); ++c) {
    taps.push_back(std::make_unique<ArrivalTap>(&rec->arrivals, static_cast<std::uint8_t>(c)));
    sim.add_arrival_tap(cores[c], taps.back().get());
    rec->demux.push_back(&rec->up_demux);
  }
  for (std::size_t d = 0; d < dests.size(); ++d) {
    taps.push_back(
        std::make_unique<ArrivalTap>(&rec->arrivals, static_cast<std::uint8_t>(cores.size() + d)));
    sim.add_arrival_tap(dests[d], taps.back().get());
    rec->demux.push_back(rec->down_demuxes[d].get());
  }

  rlir::rlir::SegmentTruth up;
  rlir::rlir::SegmentTruth down;
  for (const auto& src : sources) sim.add_arrival_tap(src, &up.entry_tap());
  for (const auto& core : cores) {
    sim.add_arrival_tap(core, &up.exit_tap());
    sim.add_arrival_tap(core, &down.entry_tap());
  }
  for (const auto& dst : dests) sim.add_arrival_tap(dst, &down.exit_tap());

  const Duration span(static_cast<std::int64_t>(static_cast<double>(w.traffic_span.ns()) *
                                                span_scale));
  std::unordered_set<net::FiveTuple> flows;
  std::uint64_t pair = 0;
  for (const auto& src : sources) {
    for (const auto& dst : dests) {
      trace::SyntheticConfig cfg;
      cfg.duration = span;
      cfg.offered_bps = w.pair_bps;
      cfg.mean_flow_packets = w.mean_flow_packets;
      cfg.pareto_alpha = w.pareto_alpha;
      cfg.burst_probability = w.burst_probability;
      cfg.seed = splitmix64(seed * 64 + pair);
      cfg.src_pool = topo.host_prefix(src);
      cfg.dst_pool = topo.host_prefix(dst);
      cfg.first_seq = (pair + 1) << 40;
      trace::SyntheticTraceGenerator gen(cfg);
      while (auto pkt = gen.next()) {
        flows.insert(pkt->key);
        sim.inject_from_host(*pkt);
        ++rec->packets;
      }
      ++pair;
    }
  }
  sim.run();

  for (const auto& a : rec->arrivals) {
    if (a.kind == net::PacketKind::kRegular) ++rec->regular_arrivals;
  }
  for (const auto* seg : {&up, &down}) {
    for (const auto& [key, stats] : seg->per_flow()) rec->truth[key].merge(stats);
  }
  rec->flows.assign(flows.begin(), flows.end());
  std::sort(rec->flows.begin(), rec->flows.end());
  rec->sim_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();
  return rec;
}

}  // namespace perfbench
