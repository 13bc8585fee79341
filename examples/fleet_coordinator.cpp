// The fleet-of-agents deployment shape, end to end: the fat-tree
// measurement workload from examples/fleet_query, but every epoch batch is
// SPRAYED by flow hash across N collector agents (PartitionedClient), and
// the operator's questions are answered by a QueryCoordinator that fans
// out to every agent and merges the replies — exactly, because each flow's
// records live on exactly one agent.
//
//   # against real daemons (one per terminal, or one per machine):
//   ./collector_daemon --listen unix:/tmp/rlir0.sock
//   ./collector_daemon --listen unix:/tmp/rlir1.sock
//   ./fleet_coordinator --connect unix:/tmp/rlir0.sock,unix:/tmp/rlir1.sock
//
// Run without --connect and it spins up `--agents N` (default 4)
// in-process agents over loopback pipes — same protocol bytes, no daemons.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/fleet.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "rli/sender.h"
#include "rlir/demux.h"
#include "rlir/sender_agent.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"
#include "trace/synthetic.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/http_metrics.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int run(const std::vector<std::string>& connect_texts, std::size_t n_agents,
        bool dump_metrics, const std::string& http_text, const std::string& trace_dump) {
  using timebase::Duration;

  // --- The fleet: dialed daemons, or in-process agents on loopback pipes.
  // In-process agents get their own span rings so collect_trace() can pull
  // their side of the story; dialed daemons bring their own (see
  // collector_daemon).
  std::vector<std::unique_ptr<obs::SpanRecorder>> agent_spans;
  std::vector<std::unique_ptr<transport::CollectorAgent>> local_agents;
  std::vector<transport::CollectorClient::StreamFactory> factories;
  if (connect_texts.empty()) {
    for (std::size_t i = 0; i < n_agents; ++i) {
      agent_spans.push_back(std::make_unique<obs::SpanRecorder>());
      transport::CollectorAgentConfig acfg;
      acfg.instruments.spans = agent_spans.back().get();
      local_agents.push_back(std::make_unique<transport::CollectorAgent>(acfg));
      factories.push_back([&local_agents, i]() {
        auto [client_end, agent_end] = transport::make_loopback();
        local_agents[i]->add_connection(std::move(agent_end));
        return std::move(client_end);
      });
    }
    std::printf("no --connect given: %zu in-process agents over loopback pipes\n\n",
                n_agents);
  } else {
    for (const auto& text : connect_texts) {
      const auto address = transport::SocketAddress::parse(text);
      factories.push_back([address]() { return transport::connect_to(address); });
    }
    n_agents = factories.size();
  }
  const auto poll_local = [&local_agents] {
    for (auto& agent : local_agents) agent->poll();
  };

  transport::PartitionedClient pc;
  for (auto& factory : factories) pc.add_endpoint(factory);

  // --- The workload of examples/fleet_query: 2 source ToRs -> 2
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
  // The fleet-tier difference: batches leave the process N ways by flow hash.
  fleet.add_batch_sink(pc.make_sink());
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
    pc.pump();
    poll_local();
  }
  scheduler.advance_to(sim.now() + sched_cfg.period);  // final drain
  for (int i = 0; i < 10000 && !pc.drain(16); ++i) poll_local();
  poll_local();

  std::printf("sprayed %llu records across %zu agents (%zu healthy):\n",
              static_cast<unsigned long long>(pc.stats().records_submitted), n_agents,
              pc.healthy_count());
  for (std::size_t i = 0; i < n_agents; ++i) {
    std::printf("  agent %zu: %10llu records routed  (%s)\n", i,
                static_cast<unsigned long long>(pc.records_routed(i)),
                pc.endpoint_healthy(i) ? "healthy" : "DOWN");
  }

  // --- Fleet queries: the coordinator fans out and merges. Every fan-out
  // below is traced end to end: merge span -> per-agent leg spans -> client
  // query spans -> agent answer spans (pulled back via collect_trace).
  obs::SpanRecorder coord_spans;
  transport::QueryCoordinatorConfig coord_cfg;
  coord_cfg.instruments.spans = &coord_spans;
  transport::QueryCoordinator coord(coord_cfg);
  for (auto& factory : factories) coord.add_agent(std::move(factory));
  if (!local_agents.empty()) coord.set_drive(poll_local);
  if (coord.connected_count() == 0) {
    std::fprintf(stderr, "no agent reachable — are the daemons running?\n");
    return 1;
  }

  const auto dist = coord.fleet();
  std::printf("\nfleet-wide latency (merged from %zu agents): "
              "p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  max %8.1fus  (%llu estimates)\n",
              coord.connected_count(), dist.quantile(0.5) / 1e3, dist.quantile(0.9) / 1e3,
              dist.quantile(0.99) / 1e3, dist.max() / 1e3,
              static_cast<unsigned long long>(dist.count()));

  std::printf("\nfleet top-5 worst flows by p99:\n");
  for (const auto& [rank, flow] : coord.top_k_ranked(5, 0.99)) {
    std::printf("  %-44s %6llu pkts  p50 %8.1fus  p99 %8.1fus\n",
                flow.key.to_string().c_str(), static_cast<unsigned long long>(flow.packets),
                flow.p50_ns / 1e3, flow.p99_ns / 1e3);
  }

  const auto counter = [](const obs::Scrape& scrape, const char* name) {
    return static_cast<unsigned long long>(obs::counter_total(scrape.metrics, name));
  };
  std::printf("\nper-agent stats:\n");
  const auto per_agent = coord.per_agent_scrapes();
  for (std::size_t i = 0; i < per_agent.size(); ++i) {
    if (!per_agent[i].has_value()) {
      std::printf("  agent %zu: UNREACHABLE\n", i);
      continue;
    }
    std::printf("  agent %zu: %8llu records, %8llu estimates, %5llu flows, %3llu epochs\n", i,
                counter(*per_agent[i], "rlir_agent_records_ingested_total"),
                counter(*per_agent[i], "rlir_agent_estimates_ingested_total"),
                counter(*per_agent[i], "rlir_agent_flows_total"),
                counter(*per_agent[i], "rlir_agent_epochs_total"));
  }

  const auto ingested = counter(coord.fleet_metrics(), "rlir_agent_records_ingested_total");
  const auto delivered = pc.stats().records_submitted - pc.records_shed();
  const bool conserved = ingested == delivered;
  std::printf("\nconservation: sprayed %llu records, fleet ingested %llu -> %s\n",
              static_cast<unsigned long long>(delivered), ingested,
              conserved ? "exact" : "MISMATCH");
  if (!conserved) {
    // Lost records are exactly what the flight recorder exists for: dump the
    // coordinator's span ring + event trace as one black-box JSON document.
    obs::FlightRecorder flight(
        &coord_spans, &coord.events(),
        [](const std::string& reason, const std::string& json) {
          std::fprintf(stderr, "FLIGHT RECORDER (%s):\n%s", reason.c_str(), json.c_str());
        });
    flight.trigger("conservation-mismatch");
  }

  // --- The last fan-out, reassembled across processes: merge + legs +
  // client hops from the coordinator's ring, answer spans from each agent.
  const auto trace = coord.collect_trace();
  std::printf("\ntrace %016llx: %zu spans across %zu processes "
              "(%zu agents answered%s)\n",
              static_cast<unsigned long long>(trace.trace_id), trace.size(),
              trace.processes.size(), trace.agents_answered,
              trace.spans_dropped > 0 ? ", ring evictions — may have gaps" : "");
  if (!trace_dump.empty()) {
    const std::string json = obs::to_chrome_trace(trace.processes);
    std::FILE* out = std::fopen(trace_dump.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "fleet_coordinator: cannot write %s\n", trace_dump.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), out);
    std::fclose(out);
    std::printf("wrote %zu-span Chrome trace to %s (chrome://tracing, Perfetto)\n",
                trace.size(), trace_dump.c_str());
  }

  if (dump_metrics) {
    // The fleet roll-up a monitoring system would scrape: every agent's
    // registry merged (counters summed, histograms unioned bin-for-bin).
    const auto scrape = coord.fleet_metrics();
    std::printf("\n# fleet metrics (merged from %zu agents)\n", coord.connected_count());
    std::fputs(obs::to_prometheus(scrape.metrics).c_str(), stdout);
  }

  if (!http_text.empty()) {
    // Keep serving the merged fleet scrape over HTTP until signalled — each
    // GET /metrics triggers a fresh kMetrics fan-out, so the scrape is live.
    auto http_listener = std::make_unique<transport::HttpMetricsServer>(
        std::make_unique<transport::SocketListener>(transport::SocketAddress::parse(http_text)),
        [&coord] { return obs::to_prometheus(coord.fleet_metrics().metrics); });
    std::printf("\nserving merged GET /metrics on %s (Ctrl-C to exit)\n", http_text.c_str());
    std::fflush(stdout);
    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load(std::memory_order_relaxed)) {
      const std::size_t served = http_listener->poll();
      poll_local();
      if (served == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  return conserved ? 0 : 1;
}

}  // namespace
}  // namespace rlir

int main(int argc, char** argv) {
  std::vector<std::string> connect_texts;
  std::size_t n_agents = 4;
  bool dump_metrics = false;
  std::string http_text;
  std::string trace_dump;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        connect_texts.emplace_back(p, comma != nullptr ? comma - p : std::strlen(p));
        p = comma != nullptr ? comma + 1 : p + connect_texts.back().size();
      }
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      n_agents = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--http") == 0 && i + 1 < argc) {
      http_text = argv[++i];
    } else if (std::strcmp(argv[i], "--trace-dump") == 0 && i + 1 < argc) {
      trace_dump = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect ADDR[,ADDR...]] [--agents N] [--metrics] [--http ADDR]\n"
                   "          [--trace-dump FILE]\n"
                   "  ADDR = tcp:HOST:PORT | unix:PATH\n"
                   "  --metrics         dump the merged fleet scrape (Prometheus text)\n"
                   "  --http ADDR       serve the merged scrape as GET /metrics until Ctrl-C\n"
                   "  --trace-dump FILE write the last query's assembled cross-process trace\n"
                   "                    as Chrome trace-event JSON\n",
                   argv[0]);
      return 2;
    }
  }
  if (n_agents == 0) return 2;
  try {
    return rlir::run(connect_texts, n_agents, dump_metrics, http_text, trace_dump);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_coordinator: %s\n", e.what());
    return 1;
  }
}
