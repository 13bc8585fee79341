// One-shot fleet health report: dial every collector agent, scrape its
// metrics + event trace through the metrics query target, and print the
// merged roll-up the way an operator's `top` would — fleet totals first,
// then the per-agent breakdown and recent fault events.
//
//   # against running daemons:
//   ./fleet_top --connect unix:/tmp/rlir0.sock,unix:/tmp/rlir1.sock
//   ./fleet_top --connect tcp:127.0.0.1:9100 --prom   # raw Prometheus text
//
// Run without --connect and it demos against `--agents N` (default 3)
// in-process agents fed a synthetic workload over loopback pipes — same
// scrape bytes, no daemons. --prom / --json switch the output to the raw
// merged exposition (what a monitoring system would ingest).
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <string>
#include <vector>

#include "collect/estimate_record.h"
#include "common/rng.h"
#include "obs/exposition.h"
#include "obs/span.h"
#include "transport/agent.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

net::FiveTuple demo_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 1);
  key.src_port = static_cast<std::uint16_t>(3000 + i);
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

/// "E1:E2" -> inclusive epoch window; false on malformed text.
bool parse_window(const char* text, std::uint32_t* first, std::uint32_t* last) {
  char* end = nullptr;
  const unsigned long e1 = std::strtoul(text, &end, 10);
  if (end == text || *end != ':') return false;
  const char* rest = end + 1;
  const unsigned long e2 = std::strtoul(rest, &end, 10);
  if (end == rest || *end != '\0') return false;
  *first = static_cast<std::uint32_t>(e1);
  *last = static_cast<std::uint32_t>(e2);
  return true;
}

int run(const std::vector<std::string>& connect_texts, std::size_t n_agents,
        bool prom, bool json, bool windowed, std::uint32_t window_first,
        std::uint32_t window_last) {
  // --- The fleet: dialed daemons, or demo agents fed a synthetic workload.
  std::vector<std::unique_ptr<obs::SpanRecorder>> agent_spans;
  std::vector<std::unique_ptr<transport::CollectorAgent>> local_agents;
  std::vector<transport::CollectorClient::StreamFactory> factories;
  if (connect_texts.empty()) {
    for (std::size_t i = 0; i < n_agents; ++i) {
      // Demo agents keep history so --window has something to answer
      // (daemons need their own --history flag) and a span ring so the
      // worst-hop report has agent-side spans (daemons always have one).
      agent_spans.push_back(std::make_unique<obs::SpanRecorder>());
      transport::CollectorAgentConfig cfg;
      cfg.enable_history = true;
      cfg.instruments.spans = agent_spans.back().get();
      local_agents.push_back(std::make_unique<transport::CollectorAgent>(cfg));
      factories.push_back([&local_agents, i]() {
        auto [client_end, agent_end] = transport::make_loopback();
        local_agents[i]->add_connection(std::move(agent_end));
        return std::move(client_end);
      });
    }
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

  if (!local_agents.empty()) {
    // Demo workload: spray a few thousand records so the scrape has shape.
    transport::PartitionedClient pc;
    for (auto& factory : factories) pc.add_endpoint(factory);
    common::Xoshiro256 rng(42);
    std::vector<collect::EstimateRecord> batch;
    for (std::uint32_t i = 0; i < 4000; ++i) {
      collect::EstimateRecord r;
      r.key = demo_key(i % 64);
      r.link = i % 4;
      r.epoch = i % 8;
      r.sender = 1;
      for (int s = 0; s < 8; ++s) r.sketch.add(40e3 * rng.uniform(0.5, 1.5));
      batch.push_back(std::move(r));
    }
    pc.submit(0, batch);
    for (int i = 0; i < 10000 && !pc.drain(16); ++i) poll_local();
    poll_local();
  }

  // --- The scrape: one metrics fan-out, merged + per-agent. The fan-out
  // is traced (the coordinator carries a span ring), so the report can end
  // with a worst-hop breakdown pulled back through a span-ring fan-out.
  obs::SpanRecorder coord_spans;
  transport::QueryCoordinatorConfig coord_cfg;
  coord_cfg.instruments.spans = &coord_spans;
  transport::QueryCoordinator coord(coord_cfg);
  for (auto& factory : factories) coord.add_agent(std::move(factory));
  if (!local_agents.empty()) coord.set_drive(poll_local);
  if (coord.connected_count() == 0) {
    std::fprintf(stderr, "fleet_top: no agent reachable — are the daemons running?\n");
    return 1;
  }

  auto per_agent = coord.per_agent_scrapes();
  std::vector<obs::Scrape> answered;
  for (auto& scrape : per_agent) {
    if (scrape.has_value()) answered.push_back(*scrape);
  }
  auto fleet = transport::merge_scrapes(answered);

  if (prom || json) {
    std::fputs(json ? obs::to_json(fleet.metrics, fleet.events).c_str()
                    : obs::to_prometheus(fleet.metrics).c_str(),
               stdout);
    if (json) std::fputs("\n", stdout);
    return 0;
  }

  std::printf("fleet: %zu/%zu agents answered\n", answered.size(), per_agent.size());
  std::printf("  records %llu  estimates %llu  flows %llu  epochs %llu  "
              "queries %llu  protocol errors %llu\n",
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_records_ingested_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_estimates_ingested_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_flows_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_epochs_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_queries_answered_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_protocol_errors_total")));
  // Every kind an agent records is counted by an agent counter bumped at
  // the same site; the ring itself only reports its evictions.
  std::printf("  connections accepted %llu  closed %llu  slo violations %llu  "
              "slow queries %llu  (events dropped %llu)\n\n",
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_connections_accepted_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_agent_connections_closed_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_slo_violations_total")),
              static_cast<unsigned long long>(
                  obs::counter_total(fleet.metrics, "rlir_slow_queries_total")),
              static_cast<unsigned long long>(fleet.events.dropped));

  for (std::size_t i = 0; i < per_agent.size(); ++i) {
    if (!per_agent[i].has_value()) {
      std::printf("  agent %zu: UNREACHABLE\n", i);
      continue;
    }
    const auto& s = *per_agent[i];
    std::printf("  agent %zu: %8llu records  %5llu flows  %3llu epochs  "
                "%2llu conns accepted  %llu disconnects\n",
                i,
                static_cast<unsigned long long>(
                    obs::counter_total(s.metrics, "rlir_agent_records_ingested_total")),
                static_cast<unsigned long long>(
                    obs::counter_total(s.metrics, "rlir_agent_flows_total")),
                static_cast<unsigned long long>(
                    obs::counter_total(s.metrics, "rlir_agent_epochs_total")),
                static_cast<unsigned long long>(
                    obs::counter_total(s.metrics, "rlir_agent_connections_accepted_total")),
                static_cast<unsigned long long>(
                    obs::counter_total(s.metrics, "rlir_agent_connections_closed_total")));
  }

  // --- Where the scrape's time went, worst hop per stage: the coordinator's
  // merge/leg/query spans plus each agent's decode/ingest/answer spans,
  // reassembled across processes via the span-ring fan-out.
  const auto trace = coord.collect_trace();
  if (trace.size() > 0) {
    struct Worst {
      const obs::Span* span = nullptr;
      const std::string* process = nullptr;
    };
    Worst worst[obs::kSpanKindCount] = {};
    for (const auto& [process, spans] : trace.processes) {
      for (const auto& s : spans) {
        auto& w = worst[static_cast<std::size_t>(s.kind) - 1];
        if (w.span == nullptr || s.duration_ns() > w.span->duration_ns()) {
          w.span = &s;
          w.process = &process;
        }
      }
    }
    std::printf("\nworst hop per stage (%zu spans across %zu processes):\n", trace.size(),
                trace.processes.size());
    for (const auto& w : worst) {
      if (w.span == nullptr) continue;
      std::printf("  %-12s %10.1fus  in %s%s%s\n", obs::span_kind_stage(w.span->kind),
                  w.span->duration_ns() / 1e3, w.process->c_str(),
                  w.span->label.empty() ? "" : "  ", w.span->label.c_str());
    }
  }

  if (windowed) {
    // Time-travel query: a windowed fleet fan-out over each agent's history
    // store, merged bin-for-bin with honest coverage labeling.
    std::printf("\nfleet latency over epoch window [%u, %u]:\n", window_first, window_last);
    const auto result = coord.window_fleet(window_first, window_last);
    if (!result.window.covered || !result.sketch.has_value()) {
      std::printf("  no covered history — run the daemons with --history, or the window "
                  "was evicted\n");
    } else {
      const auto& sketch = *result.sketch;
      std::printf("  covered [%u, %u] (%s, %llu records)\n", result.window.first,
                  result.window.last, result.window.complete ? "complete" : "PARTIAL",
                  static_cast<unsigned long long>(result.window.records));
      std::printf("  p50 %8.1fus  p90 %8.1fus  p99 %8.1fus  max %8.1fus  (%llu estimates)\n",
                  sketch.quantile(0.5) / 1e3, sketch.quantile(0.9) / 1e3,
                  sketch.quantile(0.99) / 1e3, sketch.max() / 1e3,
                  static_cast<unsigned long long>(sketch.count()));
    }
  }
  return 0;
}

}  // namespace
}  // namespace rlir

int main(int argc, char** argv) {
  std::vector<std::string> connect_texts;
  std::size_t n_agents = 3;
  bool prom = false;
  bool json = false;
  bool windowed = false;
  std::uint32_t window_first = 0;
  std::uint32_t window_last = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--connect") == 0 && i + 1 < argc) {
      for (const char* p = argv[++i]; *p != '\0';) {
        const char* comma = std::strchr(p, ',');
        connect_texts.emplace_back(p, comma != nullptr ? comma - p : std::strlen(p));
        p = comma != nullptr ? comma + 1 : p + connect_texts.back().size();
      }
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      n_agents = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--prom") == 0) {
      prom = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--window") == 0 && i + 1 < argc) {
      if (!rlir::parse_window(argv[++i], &window_first, &window_last)) {
        std::fprintf(stderr, "fleet_top: --window expects E1:E2 (epoch ids)\n");
        return 2;
      }
      windowed = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--connect ADDR[,ADDR...]] [--agents N] [--prom | --json]\n"
                   "          [--window E1:E2]\n"
                   "  ADDR = tcp:HOST:PORT | unix:PATH\n"
                   "  --prom / --json   raw merged exposition instead of the report\n"
                   "  --window E1:E2    append the fleet latency over an epoch window\n",
                   argv[0]);
      return 2;
    }
  }
  if (n_agents == 0) return 2;
  try {
    return rlir::run(connect_texts, n_agents, prom, json, windowed, window_first, window_last);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fleet_top: %s\n", e.what());
    return 1;
  }
}
