// Transport-tier throughput baseline: how fast framed record batches move
// from a CollectorClient into a CollectorAgent's collector, over the two
// byte-stream backends:
//
//   * loopback — the in-memory pipe, client and agent on one thread
//     (protocol + framing + decode cost, no kernel);
//   * unix socket — a real AF_UNIX stream, agent on its own thread merging
//     each batch inline into its lane-locked collector (the
//     shard-per-process shape).
//
// Also reports the frame overhead (wire bytes per record) so the cost of
// the framing layer over raw batch encoding is visible. Prints one
// "name value unit" row per metric; `--smoke` shrinks counts for CI;
// `--json <path>` dumps the metrics as the BENCH_transport.json artifact.
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collect/exporter.h"
#include "common/rng.h"
#include "obs/exposition.h"
#include "rli/receiver.h"
#include "trace/synthetic.h"
#include "transport/agent.h"
#include "transport/client.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"

namespace rlir {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::max(std::chrono::duration<double>(Clock::now() - start).count(), 1e-9);
}

std::vector<std::pair<std::string, double>>& metrics() {
  static std::vector<std::pair<std::string, double>> rows;
  return rows;
}

/// The merged fleet scrape of the last partitioned run, as an obs JSON
/// object — embedded in the BENCH_transport.json artifact so a perf
/// regression comes with the observability state that explains it (shed
/// counts, queue depths, batch-size histograms).
std::string& fleet_metrics_json() {
  static std::string json;
  return json;
}

void print_metric(const std::string& name, double value, const char* unit) {
  std::printf("%-28s %14.3f %s\n", name.c_str(), value, unit);
  metrics().emplace_back(name, value);
}

bool write_json(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n");
  for (std::size_t i = 0; i < metrics().size(); ++i) {
    const auto& [name, value] = metrics()[i];
    const bool last = i + 1 == metrics().size() && fleet_metrics_json().empty();
    std::fprintf(f, "  \"%s\": %.6g%s\n", name.c_str(), value, last ? "" : ",");
  }
  if (!fleet_metrics_json().empty()) {
    std::fprintf(f, "  \"fleet_metrics\": %s\n", fleet_metrics_json().c_str());
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// One epoch's worth of records from a realistic flow-skewed workload.
std::vector<collect::EstimateRecord> make_batch(std::uint64_t target_packets) {
  trace::SyntheticConfig trace_cfg;
  trace_cfg.duration =
      timebase::Duration::milliseconds(static_cast<std::int64_t>(target_packets / 400 + 1));
  trace_cfg.seed = 42;
  trace::SyntheticTraceGenerator gen(trace_cfg);
  collect::EstimateExporter exporter(collect::ExporterConfig{{}, 0});
  common::Xoshiro256 latency_rng(7);
  for (std::uint64_t i = 0; i < target_packets; ++i) {
    auto pkt = gen.next();
    if (!pkt) break;
    const double latency_ns = latency_rng.lognormal(std::log(80e3), 0.6);
    exporter.observe(net::kNoSender,
                     rli::RliReceiver::PacketEstimate{pkt->key, pkt->ts, latency_ns});
  }
  return exporter.drain(/*epoch=*/0);
}

/// Streams `epochs` copies of the batch through a client/agent pair over
/// `make_stream`, driving the agent via `drive` (inline poll for loopback,
/// no-op for the threaded socket run). Returns records/sec.
template <typename MakeStream, typename Drive>
double run_backend(const std::vector<collect::EstimateRecord>& batch, std::uint32_t epochs,
                   transport::CollectorAgent& agent, MakeStream make_stream, Drive drive,
                   double* overhead_out) {
  transport::CollectorClientConfig client_cfg;
  // The bench measures lossless end-to-end throughput: it submits whole
  // epochs back-to-back with no pacing, so the queue must hold the full run
  // (production clients pace by epoch interval and want the default cap's
  // shed-oldest behavior instead; at full size the threaded socket stage
  // would otherwise shed by design and report loss).
  client_cfg.max_buffered_bytes = 256u << 20;
  transport::CollectorClient client(client_cfg, make_stream);
  const auto start = Clock::now();
  std::vector<collect::EstimateRecord> stamped = batch;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    for (auto& r : stamped) r.epoch = e;
    client.submit(e, stamped);
    client.pump();
    drive();
  }
  while (!client.drain(64)) drive();
  drive();
  // The clock stops when the agent's collector has merged everything —
  // which for the socket backend means waiting for the agent THREAD to
  // read what drain() only pushed into the kernel buffer.
  const auto expected = static_cast<std::uint64_t>(batch.size()) * epochs;
  // 60s cap: on a loaded single-core box the agent thread can trail the
  // client by tens of seconds at full batch sizes.
  for (int i = 0; i < 600000 && agent.collector().records_ingested() < expected; ++i) {
    drive();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const double elapsed = seconds_since(start);
  if (overhead_out != nullptr) {
    *overhead_out = static_cast<double>(client.stats().bytes_sent) /
                    (static_cast<double>(batch.size()) * epochs);
  }
  return static_cast<double>(batch.size()) * epochs / elapsed;
}

/// Streams the batch through a PartitionedClient spraying over `n_agents`
/// loopback agents (all polled inline, like the single-agent loopback run,
/// so the number isolates the partitioning/fan-out cost — not thread
/// parallelism). Emits the fleet rate plus each endpoint's records/s.
int run_partitioned(const std::vector<collect::EstimateRecord>& batch, std::uint32_t epochs,
                    std::size_t shards, std::size_t n_agents) {
  std::vector<std::unique_ptr<transport::CollectorAgent>> agents;
  for (std::size_t i = 0; i < n_agents; ++i) {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = shards;
    agents.push_back(std::make_unique<transport::CollectorAgent>(cfg));
  }
  const auto poll_all = [&agents] {
    for (auto& agent : agents) agent->poll();
  };

  transport::PartitionedClient pc;
  for (std::size_t i = 0; i < n_agents; ++i) {
    pc.add_endpoint([&agents, i]() {
      auto [client_end, agent_end] = transport::make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      return std::move(client_end);
    });
  }

  const auto start = Clock::now();
  std::vector<collect::EstimateRecord> stamped = batch;
  for (std::uint32_t e = 0; e < epochs; ++e) {
    for (auto& r : stamped) r.epoch = e;
    pc.submit(e, stamped);
    pc.pump();
    poll_all();
  }
  while (!pc.drain(64)) poll_all();
  poll_all();
  const double elapsed = seconds_since(start);

  const auto prefix = "partitioned_" + std::to_string(n_agents) + "_agents";
  print_metric(prefix + "_rate",
               static_cast<double>(batch.size()) * epochs / elapsed, "records/s");
  std::uint64_t ingested = 0;
  for (std::size_t i = 0; i < n_agents; ++i) {
    ingested += agents[i]->stats().records_ingested;
    print_metric(prefix + "_endpoint_" + std::to_string(i) + "_rate",
                 static_cast<double>(pc.records_routed(i)) / elapsed, "records/s");
  }
  if (ingested != static_cast<std::uint64_t>(batch.size()) * epochs) {
    std::fprintf(stderr, "partitioned %zu-agent run lost records\n", n_agents);
    return 1;
  }

  // Capture the fleet's merged scrape (largest sweep wins: runs overwrite).
  // Local agents, so scrape() is a direct call — no kMetrics round-trip, the
  // bench clock is already stopped either way.
  std::vector<obs::Scrape> scrapes;
  for (auto& agent : agents) scrapes.push_back(agent->scrape());
  fleet_metrics_json() = obs::to_json(transport::merge_scrapes(scrapes).metrics);
  return 0;
}

int run(std::uint64_t target_packets, std::uint32_t epochs, std::size_t shards,
        const std::vector<std::size_t>& agent_sweep, const std::string& json_path,
        const std::string& socket_dir) {
  const auto batch = make_batch(target_packets);
  print_metric("batch_records", static_cast<double>(batch.size()), "records");

  // --- Loopback: deterministic single-thread protocol cost.
  {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = shards;
    transport::CollectorAgent agent(cfg);
    double overhead = 0.0;
    const double rate = run_backend(
        batch, epochs, agent,
        [&agent]() {
          auto [client_end, agent_end] = transport::make_loopback();
          agent.add_connection(std::move(agent_end));
          return std::move(client_end);
        },
        [&agent]() { agent.poll(); }, &overhead);
    print_metric("loopback_rate", rate, "records/s");
    print_metric("loopback_wire_bytes_per_record", overhead, "bytes");
    if (agent.stats().records_ingested !=
        static_cast<std::uint64_t>(batch.size()) * epochs) {
      std::fprintf(stderr, "loopback lost records\n");
      return 1;
    }
  }

  // --- Partitioned fleet sweep: flow-hash spray over N loopback agents.
  for (const std::size_t n_agents : agent_sweep) {
    if (const int rc = run_partitioned(batch, epochs, shards, n_agents); rc != 0) return rc;
  }

  // --- Unix socket: the deployment shape (client thread + agent thread).
  {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = shards;
    transport::CollectorAgent agent(cfg);
    const auto path = socket_dir + "/rlir_bench_transport.sock";
    try {
      agent.set_listener(std::make_unique<transport::SocketListener>(
          transport::SocketAddress::unix_path(path)));
    } catch (const std::exception& e) {
      // Sandboxed environments without socket rights still get the loopback
      // numbers; report the skip instead of failing the whole harness.
      std::fprintf(stderr, "unix-socket stage skipped: %s\n", e.what());
      print_metric("unix_socket_rate", 0.0, "records/s (skipped)");
      if (!json_path.empty() && !write_json(json_path)) return 1;
      return 0;
    }
    std::atomic<bool> stop{false};
    std::thread agent_thread([&] { agent.run(stop, timebase::Duration::microseconds(50)); });
    const auto address = transport::SocketAddress::unix_path(path);
    const double rate = run_backend(
        batch, epochs, agent, [address]() { return transport::connect_to(address); }, []() {},
        nullptr);
    stop.store(true);
    agent_thread.join();
    print_metric("unix_socket_rate", rate, "records/s");
    if (agent.stats().records_ingested !=
        static_cast<std::uint64_t>(batch.size()) * epochs) {
      std::fprintf(stderr, "unix-socket run lost records\n");
      return 1;
    }
  }

  if (!json_path.empty() && !write_json(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace rlir

int main(int argc, char** argv) {
  std::uint64_t packets = 200'000;
  std::uint32_t epochs = 8;
  std::size_t shards = 4;
  std::vector<std::size_t> agent_sweep = {2, 4};
  std::string json_path;
  std::string socket_dir = "/tmp";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      packets = 2'000;
      epochs = 2;
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--epochs") == 0 && i + 1 < argc) {
      epochs = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--agents") == 0 && i + 1 < argc) {
      // Comma-separated fleet sizes for the partitioned sweep; 0 disables.
      agent_sweep.clear();
      for (const char* p = argv[++i]; *p != '\0';) {
        char* end = nullptr;
        const auto n = std::strtoul(p, &end, 10);
        if (end == p) return 2;
        if (n > 0) agent_sweep.push_back(n);
        p = *end == ',' ? end + 1 : end;
      }
    } else if (std::strcmp(argv[i], "--socket-dir") == 0 && i + 1 < argc) {
      socket_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--packets N] [--epochs N] [--shards N] "
                   "[--agents N[,M...]] [--socket-dir DIR] [--json PATH]\n",
                   argv[0]);
      return 2;
    }
  }
  if (shards == 0 || epochs == 0) return 2;
  return rlir::run(packets, epochs, shards, agent_sweep, json_path, socket_dir);
}
