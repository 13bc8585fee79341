// Collection-tier throughput baseline: how fast estimates fold into
// sketches, how compact the wire format is, how fast the sharded collector
// ingests record batches — and how much multi-producer ingest into the
// lane-locked collector buys over one producer.
//
// Pipeline measured (the deployment data path end to end):
//   synthetic trace --stream--> exporter sketches --drain--> wire bytes
//   --view decode--> sharded collector --> fleet queries
// then again with N producer threads decoding views and ingesting them in
// parallel into one ShardedCollector (threads-vs-throughput sweep).
//
// Prints one "name value unit" row per metric. `--smoke` shrinks every
// count so CI can run the whole harness in well under a second; `--packets`,
// `--shards`, and `--threads` override the defaults for manual
// investigation; `--json <path>` additionally dumps every metric as a flat
// JSON object (the CI perf-trajectory artifact).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collect/exporter.h"
#include "collect/history.h"
#include "collect/sharded_collector.h"
#include "common/rng.h"
#include "obs/span.h"
#include "trace/synthetic.h"
#include "trace/trace_file.h"

namespace rlir {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  // Floor keeps the rate divisions finite in --smoke runs.
  return std::max(std::chrono::duration<double>(Clock::now() - start).count(), 1e-9);
}

/// Accumulates every reported metric so --json can dump the whole run.
std::vector<std::pair<std::string, double>>& metrics() {
  static std::vector<std::pair<std::string, double>> rows;
  return rows;
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
    std::fprintf(f, "  \"%s\": %.6g%s\n", name.c_str(), value,
                 i + 1 < metrics().size() ? "," : "");
  }
  std::fprintf(f, "}\n");
  std::fclose(f);
  return true;
}

/// Concurrent-ingest measurement: `threads` producers each decode views (as
/// the agent does) and ingest `epochs` epoch-batches (total records =
/// threads x epochs x batch) into one lane-locked collector; an ingest
/// returns once its batch is merged, so the clock stops when the last
/// producer joins. Returns records/sec.
double run_concurrent(const std::vector<std::uint8_t>& bytes, std::size_t batch_records,
                      std::uint32_t epochs, std::size_t shard_count, std::size_t threads) {
  collect::CollectorConfig cfg;
  cfg.shard_count = shard_count;
  collect::ShardedCollector collector(cfg);

  const auto start = Clock::now();
  std::vector<std::thread> producers;
  producers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    producers.emplace_back([&, t] {
      std::vector<collect::RecordView> views;
      for (std::uint32_t e = 0; e < epochs; ++e) {
        views.clear();
        collect::decode_record_views_prefix(bytes.data(), bytes.size(), views);
        const auto epoch = static_cast<std::uint32_t>(t * epochs + e);
        for (auto& v : views) v.epoch = epoch;
        collector.ingest(views);
      }
    });
  }
  for (auto& p : producers) p.join();
  const double elapsed = seconds_since(start);
  const double total = static_cast<double>(batch_records) * epochs * static_cast<double>(threads);
  return total / elapsed;
}

int run(std::uint64_t target_packets, std::size_t shard_count, std::uint32_t epochs,
        const std::vector<std::size_t>& thread_sweep, bool history_churn,
        const std::string& json_path) {
  // --- Stage 0: a realistic flow-skewed workload, persisted and then
  // streamed back (TraceReader::for_each keeps ingest memory flat).
  trace::SyntheticConfig trace_cfg;
  trace_cfg.duration = timebase::Duration::milliseconds(
      static_cast<std::int64_t>(target_packets / 400 + 1));
  trace_cfg.seed = 42;
  std::stringstream trace_stream;
  {
    trace::SyntheticTraceGenerator gen(trace_cfg);
    std::vector<net::Packet> packets;
    packets.reserve(target_packets);
    while (packets.size() < target_packets) {
      auto pkt = gen.next();
      if (!pkt) break;
      packets.push_back(*pkt);
    }
    trace::TraceWriter::write(trace_stream, packets);
  }

  // --- Stage 1: exporter ingest (per-packet estimate -> per-flow sketch).
  // Latencies are synthetic (log-normal around ~80us, the paper's loaded-
  // queue scale); the estimate path doesn't care where the number came from.
  collect::EstimateExporter exporter(collect::ExporterConfig{{}, 0});
  common::Xoshiro256 latency_rng(7);
  const auto ingest_start = Clock::now();
  const std::uint64_t streamed = trace::TraceReader::for_each(
      trace_stream, [&](const net::Packet& pkt) {
        const double latency_ns = latency_rng.lognormal(std::log(80e3), 0.6);
        exporter.observe(net::kNoSender,
                         rli::RliReceiver::PacketEstimate{pkt.key, pkt.ts, latency_ns});
      });
  const double ingest_s = seconds_since(ingest_start);
  print_metric("estimates_ingested", static_cast<double>(streamed), "estimates");
  print_metric("exporter_flows", static_cast<double>(exporter.flow_count()), "flows");
  print_metric("exporter_rate", static_cast<double>(streamed) / ingest_s, "estimates/s");

  // --- Stage 2: wire format density.
  const auto records = exporter.drain(/*epoch=*/0);
  const auto bytes = collect::encode_records(records);
  print_metric("wire_bytes_per_record",
               static_cast<double>(bytes.size()) / static_cast<double>(records.size()),
               "bytes");
  print_metric("wire_bytes_per_estimate",
               static_cast<double>(bytes.size()) / static_cast<double>(streamed), "bytes");

  // --- Stage 3: single-threaded collector ingest across epochs (view
  // decode + shard + merge), one views batch per epoch — what the agent's
  // ingest loop runs per frame, and the baseline the concurrent sweep is
  // judged against.
  collect::CollectorConfig collector_cfg;
  collector_cfg.shard_count = shard_count;
  collect::ShardedCollector collector(collector_cfg);
  std::vector<collect::RecordView> views;
  const auto ingest_epoch = [&](collect::ShardedCollector& c, std::uint32_t epoch,
                                collect::SketchHistoryStore* history = nullptr) {
    views.clear();
    collect::decode_record_views_prefix(bytes.data(), bytes.size(), views);
    for (auto& v : views) v.epoch = epoch;
    c.ingest(views);
    if (history != nullptr) history->ingest_views(views);
  };
  const auto collect_start = Clock::now();
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) ingest_epoch(collector, epoch);
  const double collect_s = seconds_since(collect_start);
  const double total_records = static_cast<double>(records.size()) * epochs;
  const double serial_rate = total_records / collect_s;
  print_metric("collector_records", total_records, "records");
  print_metric("collector_rate", serial_rate, "records/s");
  print_metric("collector_estimate_rate",
               static_cast<double>(collector.estimates_ingested()) / collect_s,
               "estimates/s");

  // --- Stage 3a: the same serial view-path ingest with each batch also
  // handed to the time-travel history store, as an agent tees it — what
  // keeping every epoch's raw delta log costs on the hot path (one mutex per
  // batch + raw-buffer body append per record; the default config keeps the
  // bench's epochs raw, so no fold runs inside the timed loop). Plain/teed
  // runs alternate and each reports its best pass: the overhead ratio is
  // tens of ns per record, smaller than the drift between two one-shot loops
  // on a shared machine.
  const auto time_serial = [&](collect::ShardedCollector& c,
                               collect::SketchHistoryStore* history = nullptr) {
    const auto start = Clock::now();
    for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) ingest_epoch(c, epoch, history);
    return seconds_since(start);
  };
  const auto best_teed = [&](const collect::HistoryConfig& cfg, double* out_bytes,
                             double* out_epochs, double* out_folds) {
    double rate = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
      collect::SketchHistoryStore history(cfg);
      collect::ShardedCollector teed(collector_cfg);
      rate = std::max(rate, total_records / time_serial(teed, &history));
      if (out_bytes != nullptr) *out_bytes = static_cast<double>(history.approx_bytes());
      if (out_epochs != nullptr) {
        *out_epochs = static_cast<double>(history.epochs_retained());
      }
      if (out_folds != nullptr) *out_folds = static_cast<double>(history.compactions());
    }
    return rate;
  };
  double plain_rate = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    collect::ShardedCollector plain(collector_cfg);
    plain_rate = std::max(plain_rate, total_records / time_serial(plain));
  }
  double history_bytes = 0.0;
  double history_epochs = 0.0;
  const double history_rate =
      best_teed(collect::HistoryConfig{}, &history_bytes, &history_epochs, nullptr);
  print_metric("collector_rate_history", history_rate, "records/s");
  print_metric("history_overhead", plain_rate / history_rate, "x");
  print_metric("history_bytes", history_bytes, "bytes");
  print_metric("history_epochs", history_epochs, "epochs");

  // --- Stage 3a': the same serial view-path ingest with the tracing
  // recorder attached — one kAgentIngest span per epoch batch into a live
  // SpanRecorder with the stage histograms bound, which is exactly what a
  // traced agent records per delivered frame. CI gates this against the
  // baseline so the recorder stays per-batch (one mutex + one histogram
  // observe per epoch), never per-record. Alternates with plain passes and
  // reports the best, like the history tee above.
  const auto time_traced = [&](collect::ShardedCollector& c, obs::SpanRecorder& spans) {
    const auto start = Clock::now();
    for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
      obs::SpanTimer span(&spans, obs::SpanKind::kAgentIngest, {},
                          "epoch" + std::to_string(epoch));
      ingest_epoch(c, epoch);
    }
    return seconds_since(start);
  };
  double traced_rate = 0.0;
  double traced_spans = 0.0;
  for (int pass = 0; pass < 2; ++pass) {
    obs::MetricsRegistry registry;
    obs::SpanRecorder spans;
    spans.bind_metrics(&registry, {});
    collect::ShardedCollector traced(collector_cfg);
    traced_rate = std::max(traced_rate, total_records / time_traced(traced, spans));
    traced_spans = static_cast<double>(spans.total());
  }
  print_metric("collector_rate_traced", traced_rate, "records/s");
  print_metric("tracing_overhead", plain_rate / traced_rate, "x");
  print_metric("tracing_spans", traced_spans, "spans");

  // --history: re-run with tiers shrunk so EVERY epoch boundary folds the
  // raw log into the mid/coarse maps — the worst-case compaction tax (each
  // fold re-merges the whole epoch, roughly a second ingest pass). Separate
  // metrics, not baseline-gated: the ratio is workload-shaped, the hot-path
  // number above is the regression gate.
  if (history_churn) {
    collect::HistoryConfig churn_cfg;
    churn_cfg.raw_epochs = 1;
    churn_cfg.mid_window = 2;
    churn_cfg.mid_segments = 2;
    churn_cfg.coarse_window = 4;
    churn_cfg.coarse_segments = 2;
    double churn_bytes = 0.0;
    double churn_epochs = 0.0;
    double churn_folds = 0.0;
    const double churn_rate = best_teed(churn_cfg, &churn_bytes, &churn_epochs, &churn_folds);
    print_metric("history_churn_throughput", churn_rate, "records/s");
    print_metric("history_churn_overhead", plain_rate / churn_rate, "x");
    print_metric("history_churn_bytes", churn_bytes, "bytes");
    print_metric("history_churn_epochs", churn_epochs, "epochs");
    print_metric("history_churn_compactions", churn_folds, "folds");
  }

  // --- Stage 3b: threads-vs-throughput sweep over one collector
  // (shard-grouped merges under the shard locks; producers decode views in
  // parallel too, exactly as many networked vantage feeds would).
  for (const std::size_t threads : thread_sweep) {
    const double rate = run_concurrent(bytes, records.size(), epochs, shard_count, threads);
    const std::string suffix = "_t" + std::to_string(threads);
    print_metric("mt_collector_rate" + suffix, rate, "records/s");
    print_metric("mt_speedup" + suffix, rate / serial_rate, "x");
  }

  // --- Stage 4: query sanity + memory accounting.
  const auto fleet = collector.fleet();
  print_metric("fleet_p50", fleet.quantile(0.5) / 1e3, "us");
  print_metric("fleet_p99", fleet.quantile(0.99) / 1e3, "us");
  const auto top = collector.top_k_flows(3, 0.99);
  print_metric("top_flow_p99", top.empty() ? 0.0 : top.front().p99_ns / 1e3, "us");
  print_metric("collector_flows", static_cast<double>(collector.flow_count()), "flows");
  print_metric("bytes_per_flow",
               static_cast<double>(collector.approx_flow_bytes()) /
                   static_cast<double>(collector.flow_count()),
               "bytes");

  if (!json_path.empty() && !write_json(json_path)) return 1;
  return 0;
}

std::vector<std::size_t> parse_threads(const char* arg) {
  // Comma-separated list, e.g. "1,2,4". Empty/invalid/absurd entries are
  // rejected by returning an empty vector (caller prints usage).
  constexpr unsigned long kMaxThreads = 1024;
  std::vector<std::size_t> out;
  const std::string text(arg);
  if (text.empty() || text.back() == ',') return {};
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(item.c_str(), &end, 10);
    // The whole token must be digits ("2;4" and "4x8" are typos, not
    // counts) and the count plausible (strtoul overflow returns ULONG_MAX).
    if (v == 0 || v > kMaxThreads || end != item.c_str() + item.size()) return {};
    out.push_back(v);
  }
  return out;
}

}  // namespace
}  // namespace rlir

int main(int argc, char** argv) {
  std::uint64_t packets = 500'000;
  std::size_t shards = 8;
  std::uint32_t epochs = 4;
  std::vector<std::size_t> thread_sweep = {1, 2, 4};
  bool history_churn = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      packets = 2'000;
      epochs = 2;
    } else if (std::strcmp(argv[i], "--history") == 0) {
      history_churn = true;
    } else if (std::strcmp(argv[i], "--packets") == 0 && i + 1 < argc) {
      packets = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_sweep = rlir::parse_threads(argv[++i]);
      if (thread_sweep.empty()) {
        std::fprintf(stderr, "bad --threads list (want e.g. 1,2,4)\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--history] [--packets N] [--shards N] "
                   "[--threads L1,L2,...] [--json PATH]\n"
                   "  --history   shrink the history tiers so every epoch folds "
                   "(compaction churn)\n",
                   argv[0]);
      return 2;
    }
  }
  return rlir::run(packets, shards, epochs, thread_sweep, history_churn, json_path);
}
