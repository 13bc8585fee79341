// The client half of the shard-per-process pair: runs the same fat-tree
// measurement workload as examples/fleet_query, but instead of ingesting
// in-process, every epoch batch travels through a CollectorClient — framed,
// CRC-guarded, coalesced — to a CollectorAgent, and the operator queries
// are answered REMOTELY over the same connection.
//
//   # terminal 1
//   ./collector_daemon --listen unix:/tmp/rlir.sock
//   # terminal 2
//   ./remote_fleet_query --connect unix:/tmp/rlir.sock
//
// Run without --connect and it spins up an in-process agent on a loopback
// pipe instead — same protocol bytes, no daemon needed (the standalone demo
// and the deterministic-test configuration).
#include <atomic>
#include <cstdio>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/fleet.h"
#include "obs/metrics.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/sender_agent.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"
#include "transport/agent.h"
#include "transport/client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

int run(const std::string& connect_text) {
  using timebase::Duration;

  // --- Transport setup: dial the daemon, or build the loopback fallback.
  std::unique_ptr<transport::CollectorAgent> local_agent;
  transport::CollectorClient::StreamFactory factory;
  if (connect_text.empty()) {
    local_agent = std::make_unique<transport::CollectorAgent>();
    factory = [&local_agent]() {
      auto [client_end, agent_end] = transport::make_loopback();
      local_agent->add_connection(std::move(agent_end));
      return std::move(client_end);
    };
    std::printf("no --connect given: using an in-process agent over a loopback pipe\n\n");
  } else {
    const auto address = transport::SocketAddress::parse(connect_text);
    factory = [address]() { return transport::connect_to(address); };
  }
  transport::CollectorClient client(transport::CollectorClientConfig{}, factory);
  if (!connect_text.empty() && !client.connected()) {
    std::fprintf(stderr, "cannot connect to %s — is collector_daemon running?\n",
                 connect_text.c_str());
    return 1;
  }

  // --- The same workload as examples/fleet_query: 2 source ToRs -> 2
  // destination ToRs across a k=4 fat tree, one secretly slow core.
  constexpr int kK = 4;
  topo::FatTree topo(kK);
  topo::Crc32EcmpHasher hasher;
  timebase::PerfectClock clock;
  topo::FatTreeSim sim(&topo, topo::FatTreeSimConfig{}, &hasher);

  const std::vector sources = {topo.tor(0, 0), topo.tor(0, 1)};
  const std::vector destinations = {topo.tor(3, 0), topo.tor(3, 1)};
  sim.add_extra_delay(topo.core(2), Duration::microseconds(60));
  std::printf("fault injected: +60us at %s\n", topo.core(2).name(kK).c_str());

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
    core_senders.push_back(std::make_unique<rlir::CoreSenderAgent>(cfg, &clock, destinations));
    sim.add_agent(topo.core(c), core_senders.back().get());
    for (auto& demux : down_demuxes) demux->set_sender_at_core(c, cfg.id);
  }

  collect::FleetConfig fleet_cfg;
  collect::FleetCollector fleet(fleet_cfg, &clock);
  // The one-line difference from fleet_query: batches leave the process.
  fleet.add_batch_sink(client.make_sink());
  for (const auto& core : cores) fleet.deploy(sim, core, &up_demux);
  for (std::size_t i = 0; i < destinations.size(); ++i) {
    fleet.deploy(sim, destinations[i], down_demuxes[i].get());
  }

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
    if (local_agent != nullptr) local_agent->poll();
  }
  scheduler.advance_to(sim.now() + sched_cfg.period);  // final drain

  // Push out everything still buffered; the loopback agent polls inline.
  for (int i = 0; i < 64 && !client.drain(16); ++i) {
    if (local_agent != nullptr) local_agent->poll();
  }
  if (local_agent != nullptr) local_agent->poll();

  const auto& cs = client.stats();
  std::printf("shipped %llu records in %llu batches -> %llu frames (%llu bytes), "
              "%llu shed, %llu reconnects\n\n",
              static_cast<unsigned long long>(cs.records_submitted),
              static_cast<unsigned long long>(cs.batches_submitted),
              static_cast<unsigned long long>(cs.frames_sent),
              static_cast<unsigned long long>(cs.bytes_sent),
              static_cast<unsigned long long>(cs.records_shed),
              static_cast<unsigned long long>(cs.reconnects));

  // --- Remote queries. For the loopback configuration the agent must be
  // polled between send and reply, so the query loop drives it.
  std::function<void()> drive;
  if (local_agent != nullptr) drive = [&] { local_agent->poll(); };
  const auto ask = [&](const transport::Query& q) { return client.query(q, 20000, drive); };

  const auto fleet_reply = ask({.target = transport::Target::kFleet});
  if (!fleet_reply.has_value() || fleet_reply->entries.size() != 1) {
    std::fprintf(stderr, "fleet query got no reply\n");
    return 1;
  }
  const auto& dist = fleet_reply->entries.front().sketch;
  std::printf("remote fleet-wide latency: p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  max %8.1fus "
              "(%llu estimates)\n",
              dist.quantile(0.5) / 1e3, dist.quantile(0.9) / 1e3, dist.quantile(0.99) / 1e3,
              dist.max() / 1e3, static_cast<unsigned long long>(dist.count()));

  const auto top_reply = ask({.target = transport::Target::kTopK, .k = 5, .q = 0.99});
  if (!top_reply.has_value()) {
    std::fprintf(stderr, "top-k query got no reply\n");
    return 1;
  }
  std::printf("\nremote top-5 worst flows by p99:\n");
  for (const auto& entry : top_reply->entries) {
    const auto flow = collect::summarize(entry.flow, entry.sketch);
    std::printf("  %-44s %6llu pkts  p50 %8.1fus  p99 %8.1fus\n",
                flow.key.to_string().c_str(), static_cast<unsigned long long>(flow.packets),
                flow.p50_ns / 1e3, flow.p99_ns / 1e3);
  }

  const auto metrics_reply = ask({.target = transport::Target::kMetrics});
  if (!metrics_reply.has_value()) {
    std::fprintf(stderr, "metrics query got no reply\n");
    return 1;
  }
  const auto counter = [&metrics_reply](const char* name) {
    return static_cast<unsigned long long>(
        obs::counter_total(metrics_reply->scrape.metrics, name));
  };
  const auto records = counter("rlir_agent_records_ingested_total");
  std::printf("\nagent: %llu records / %llu estimates across %llu flows, %llu epochs; "
              "%llu frames, %llu protocol errors\n",
              records, counter("rlir_agent_estimates_ingested_total"),
              counter("rlir_agent_flows_total"), counter("rlir_agent_epochs_total"),
              counter("rlir_agent_frames_received_total"),
              counter("rlir_agent_protocol_errors_total"));
  const bool conserved = records == cs.records_submitted - cs.records_shed;
  std::printf("conservation: client shipped %llu records, agent ingested %llu -> %s\n",
              static_cast<unsigned long long>(cs.records_submitted - cs.records_shed), records,
              conserved ? "exact" : "MISMATCH");
  return conserved ? 0 : 1;
}

}  // namespace
}  // namespace rlir

int main(int argc, char** argv) {
  std::string connect_text;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      connect_text = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--connect (tcp:HOST:PORT | unix:PATH)]\n", argv[0]);
      return 2;
    }
  }
  try {
    return rlir::run(connect_text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "remote_fleet_query: %s\n", e.what());
    return 1;
  }
}
