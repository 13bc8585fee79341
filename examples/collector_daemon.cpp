// The shard-per-process deployment unit: a standalone collector daemon that
// listens on a TCP or Unix-domain socket, drains framed EstimateRecord
// batches from any number of vantage-point clients into a lane-locked
// ShardedCollector (each shard merges under its own lock), and answers fleet
// queries in place.
//
//   ./collector_daemon --listen unix:/tmp/rlir-collector.sock
//   ./collector_daemon --listen tcp:127.0.0.1:9100 --shards 8
//
// Pair it with examples/remote_fleet_query (runs a fat-tree measurement
// workload, streams the records here, then queries), or any CollectorClient.
// Runs until SIGINT/SIGTERM, or until --idle-exit-ms of silence after the
// first connection (handy for scripted demos).
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

#include "collect/slo_watcher.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "obs/span.h"
#include "transport/agent.h"
#include "transport/http_metrics.h"
#include "transport/socket.h"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --listen (tcp:HOST:PORT | unix:PATH) [--shards N] "
               "[--idle-exit-ms MS] [--metrics] [--metrics-every EPOCHS] [--quiet]\n"
               "          [--http ADDR] [--history] [--slo-ns NS] [--slow-query-ms MS]\n"
               "  --metrics             dump the Prometheus scrape on exit\n"
               "  --metrics-every N     stderr health line every N ingested epochs (default 8)\n"
               "  --quiet               suppress the periodic health line\n"
               "  --http ADDR           serve GET /metrics, /healthz, /trace on ADDR\n"
               "  --history             keep the epoch history store (windowed queries)\n"
               "  --slo-ns NS           watch windowed p99 > NS per flow (implies --history)\n"
               "  --slow-query-ms MS    log spans slower than MS to the event trace\n",
               argv0);
  return 2;
}

/// One operator-readable line per N epochs: the always-on heartbeat between
/// full scrapes (metrics queries or the --metrics exit dump).
void print_health_line(rlir::transport::CollectorAgent& agent) {
  const auto stats = agent.stats();
  std::fprintf(stderr,
               "collector_daemon: epochs %llu  records %llu  flows %llu  conns %zu  "
               "accepted %llu  closed %llu  protocol errors %llu\n",
               static_cast<unsigned long long>(stats.epochs),
               static_cast<unsigned long long>(stats.records_ingested),
               static_cast<unsigned long long>(stats.flows), agent.connection_count(),
               static_cast<unsigned long long>(agent.connections_accepted()),
               static_cast<unsigned long long>(agent.connections_closed()),
               static_cast<unsigned long long>(stats.protocol_errors));
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_text;
  std::size_t shards = 8;
  long idle_exit_ms = 0;  // 0 = run until signalled
  bool dump_metrics = false;
  bool quiet = false;
  unsigned long metrics_every = 8;
  std::string http_text;
  bool enable_history = false;
  double slo_ns = 0.0;
  long slow_query_ms = 0;  // 0 = slow-span logging off
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") == 0 && i + 1 < argc) {
      listen_text = argv[++i];
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--idle-exit-ms") == 0 && i + 1 < argc) {
      idle_exit_ms = std::strtol(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      dump_metrics = true;
    } else if (std::strcmp(argv[i], "--metrics-every") == 0 && i + 1 < argc) {
      metrics_every = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (std::strcmp(argv[i], "--http") == 0 && i + 1 < argc) {
      http_text = argv[++i];
    } else if (std::strcmp(argv[i], "--history") == 0) {
      enable_history = true;
    } else if (std::strcmp(argv[i], "--slo-ns") == 0 && i + 1 < argc) {
      slo_ns = std::strtod(argv[++i], nullptr);
      enable_history = true;  // the watcher reads the store
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0 && i + 1 < argc) {
      slow_query_ms = std::strtol(argv[++i], nullptr, 10);
    } else {
      return usage(argv[0]);
    }
  }
  if (listen_text.empty() || shards == 0 || metrics_every == 0) return usage(argv[0]);

  using namespace rlir;
  try {
    const auto address = transport::SocketAddress::parse(listen_text);
    // Always-on self-profiling ring: decode/ingest/answer spans per frame,
    // served back through span-ring queries and GET /trace. Declared before
    // the agent so the agent's bind in its ctor sees a live recorder.
    obs::SpanRecorder spans;
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = shards;
    cfg.enable_history = enable_history;
    cfg.instruments.spans = &spans;
    transport::CollectorAgent agent(cfg);
    if (slow_query_ms > 0) {
      spans.set_slow_log(slow_query_ms * 1'000'000, &agent.events());
      std::printf("collector_daemon: slow-span log at %ld ms\n", slow_query_ms);
    }
    auto listener = std::make_unique<transport::SocketListener>(address);
    std::printf("collector_daemon: listening on %s (%zu shards, lane-locked ingest)\n",
                listener->address().to_string().c_str(), shards);
    std::fflush(stdout);
    agent.set_listener(std::move(listener));

    std::unique_ptr<transport::HttpMetricsServer> http;
    if (!http_text.empty()) {
      auto http_listener = std::make_unique<transport::SocketListener>(
          transport::SocketAddress::parse(http_text));
      std::printf("collector_daemon: GET /metrics on %s\n",
                  http_listener->address().to_string().c_str());
      http = std::make_unique<transport::HttpMetricsServer>(
          std::move(http_listener),
          [&agent] { return obs::to_prometheus(agent.scrape().metrics); });
      const auto started = std::chrono::steady_clock::now();
      http->add_route("/healthz", [&agent, started] {
        const auto uptime = std::chrono::duration_cast<std::chrono::seconds>(
                                std::chrono::steady_clock::now() - started)
                                .count();
        const auto stats = agent.stats();
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "{\"status\":\"ok\",\"uptime_s\":%lld,\"epochs\":%llu,"
                      "\"records\":%llu}\n",
                      static_cast<long long>(uptime),
                      static_cast<unsigned long long>(stats.epochs),
                      static_cast<unsigned long long>(stats.records_ingested));
        return std::string(buf);
      });
      http->add_route("/trace", [&spans] {
        return obs::to_chrome_trace(spans.snapshot().spans, "collector_daemon");
      });
    }
    // Black-box dump on SLO violations: the span ring + recent events, as
    // one JSON document on stderr (rate-limited inside the recorder).
    obs::FlightRecorder flight(&spans, &agent.events(),
                               [](const std::string& reason, const std::string& json) {
                                 std::fprintf(stderr, "FLIGHT RECORDER (%s):\n%s",
                                              reason.c_str(), json.c_str());
                               });
    std::unique_ptr<collect::SloWatcher> watcher;
    if (slo_ns > 0.0) {
      collect::SloWatcherConfig wcfg;
      wcfg.threshold_ns = slo_ns;
      wcfg.instruments.registry = &agent.metrics();
      wcfg.instruments.trace = &agent.events();
      watcher = std::make_unique<collect::SloWatcher>(wcfg, agent.history());
      std::printf("collector_daemon: SLO watch p%.0f > %.0f ns over %zu-epoch windows\n",
                  wcfg.quantile * 100.0, slo_ns, wcfg.window_epochs);
    }

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);

    // The poll loop, with idle-exit bookkeeping the library's run() doesn't
    // need: a demo daemon should end itself once its client went away.
    using Clock = std::chrono::steady_clock;
    auto last_activity = Clock::now();
    bool saw_connection = false;
    std::uint64_t next_health_epoch = metrics_every;
    while (!g_stop.load(std::memory_order_relaxed)) {
      const std::size_t frames = agent.poll();
      if (http != nullptr) http->poll();
      if (watcher != nullptr) {
        for (const auto& v : watcher->poll()) {
          std::fprintf(stderr, "SLO VIOLATION %s  p%.0f %.1fus > %.1fus  window [%u,%u]\n",
                       v.key.to_string().c_str(), watcher->config().quantile * 100.0,
                       v.value_ns / 1e3, v.threshold_ns / 1e3, v.window_first, v.window_last);
          for (const auto& f : v.findings) {
            if (f.anomalous) {
              std::fprintf(stderr, "  likely culprit: %s (score %.2f)\n", f.segment.c_str(),
                           f.score);
            }
          }
          flight.trigger("slo:" + v.key.to_string());
        }
      }
      if (agent.connection_count() > 0) saw_connection = true;
      if (frames > 0 || agent.connection_count() > 0) {
        last_activity = Clock::now();
      } else if (idle_exit_ms > 0 && saw_connection &&
                 Clock::now() - last_activity > std::chrono::milliseconds(idle_exit_ms)) {
        std::printf("collector_daemon: idle for %ld ms after last client, exiting\n",
                    idle_exit_ms);
        break;
      }
      if (!quiet && frames > 0 && agent.stats().epochs >= next_health_epoch) {
        print_health_line(agent);
        // Re-arm past the CURRENT epoch count: a burst that jumps several
        // boundaries prints one line, not one per boundary.
        next_health_epoch = (agent.stats().epochs / metrics_every + 1) * metrics_every;
      }
      if (frames == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    const auto stats = agent.stats();
    std::printf("collector_daemon: served %llu frames / %llu batches -> %llu records "
                "(%llu estimates, %llu flows), %llu queries, %llu protocol errors\n",
                static_cast<unsigned long long>(stats.frames_received),
                static_cast<unsigned long long>(stats.batches_received),
                static_cast<unsigned long long>(stats.records_ingested),
                static_cast<unsigned long long>(stats.estimates_ingested),
                static_cast<unsigned long long>(stats.flows),
                static_cast<unsigned long long>(stats.queries_answered),
                static_cast<unsigned long long>(stats.protocol_errors));
    if (dump_metrics) {
      // Same samples a metrics query ships: registry + collector totals, in
      // Prometheus text.
      std::fputs(obs::to_prometheus(agent.scrape().metrics).c_str(), stdout);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "collector_daemon: %s\n", e.what());
    return 1;
  }
}
