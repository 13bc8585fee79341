// pipeline_bench: the paper's whole measurement path under one clock.
//
//   set-up  FatTreeSim + RLIR senders run the workload's seeded traffic and
//           record every vantage arrival (recording.h); agents start on
//           their own threads; clients and the coordinator connect.
//   timed   recorded arrivals -> RlirReceiver -> EstimateExporter ->
//           EpochScheduler (sim-clock tick) -> CollectorClient or
//           PartitionedClient make_sink -> AF_UNIX socket -> CollectorAgent
//           (collector + history) -> QueryCoordinator.
//   checks  after the clock stops: conservation, the coordinator's fleet and
//           per-link sketches against an in-process ShardedCollector oracle
//           (bin for bin), and the error of the collected flow means against
//           simulator ground truth. A traced run also checks that per-layer
//           self times account for each thread's wall time and that the
//           agents' own stage spans agree with the busy polls timed here.
//
// Prints every metric with its unit, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics, or
// with --trace 1 the per-layer metrics of a traced run. A failed check exits
// 1 without printing that line.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--smoke] [--perturb-oracle]
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "calibrate.h"
#include "collect/history.h"
#include "collect/sharded_collector.h"
#include "obs/span.h"
#include "recording.h"
#include "replay.h"
#include "rli/flow_stats.h"
#include "spans.h"
#include "transport/agent.h"
#include "transport/client.h"
#include "transport/coordinator.h"
#include "transport/partitioned_client.h"
#include "transport/socket.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace collect = rlir::collect;
namespace common = rlir::common;
namespace obs = rlir::obs;
namespace rli = rlir::rli;
namespace transport = rlir::transport;

/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupReps = 5;
/// Program span rings in a traced run: large enough to keep the whole run.
constexpr std::size_t kSpanRing = 1u << 16;
/// Coalesced frames the client may queue per endpoint before the replay
/// thread waits for the agent (4 x 256 KiB, under the client's 4 MiB cap
/// with an epoch's batch on top).
constexpr std::size_t kBacklogFrames = 4;
/// Least share of the agents' busy polls their own stage spans must cover.
constexpr double kMinSpannedBusy = 0.8;
/// state_bytes_per_flow counts the history as it stands once the records of
/// this many epochs are ingested: enough for every tier (64 raw epochs, 16
/// mid segments of 8) to have filled and the first coarse segment to form.
constexpr std::uint32_t kStateEpochs = 256;

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  bool perturb_oracle = false;
};

/// Sockets and trace files, relative to the checkout the benchmark runs in.
const std::string kOutDir = ".bench_build/perfbench-out";

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// Samples beyond a percentile (the "at least ten beyond" rule).
std::size_t beyond(std::size_t n, double q) {
  return n - std::min(n, static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))));
}

// --- Agents ------------------------------------------------------------------

/// One CollectorAgent on its own thread, configured and polled the way
/// collector_daemon runs it (8 shards, history on, 1 ms idle sleep). The loop
/// is the benchmark's own so it can time busy polls and see when the last
/// record shipped to it has been ingested.
class AgentHost {
 public:
  AgentHost(const std::string& socket_path, bool traced, std::size_t index)
      : spans_(traced ? std::make_unique<obs::SpanRecorder>(kSpanRing) : nullptr),
        agent_(config(spans_.get())),
        log_("agent" + std::to_string(index)) {
    agent_.set_listener(std::make_unique<transport::SocketListener>(
        transport::SocketAddress::unix_path(socket_path)));
    ingested_ = agent_.metrics().counter("rlir_collect_records_submitted_total");
    connections_ = agent_.metrics().gauge("rlir_agent_connections");
    thread_ = std::thread([this] { loop(); });
  }
  ~AgentHost() { stop(); }
  AgentHost(const AgentHost&) = delete;
  AgentHost& operator=(const AgentHost&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    stop_.store(true);
    thread_.join();
  }

  /// Sets the number of records the agent must have ingested to be done.
  void expect_total(std::uint64_t records) {
    // Target first: a check in between then cannot stamp the old one.
    target_.store(records);
    done_ns_.store(0);
    check(now_ns());
  }
  /// When the agent reached its current target; 0 until then.
  [[nodiscard]] std::int64_t done_ns() const { return done_ns_.load(); }
  /// Why the poll thread died, if it did.
  [[nodiscard]] std::string error() {
    const std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }
  [[nodiscard]] std::int64_t connections() const { return connections_->value(); }

  [[nodiscard]] transport::CollectorAgent& agent() { return agent_; }
  [[nodiscard]] obs::SpanRecorder* spans() { return spans_.get(); }
  // Valid after stop().
  [[nodiscard]] const SpanLog& log() const { return log_; }
  [[nodiscard]] std::int64_t busy_ns() const { return busy_ns_; }
  [[nodiscard]] std::uint64_t idle_polls() const { return idle_polls_; }

 private:
  static transport::CollectorAgentConfig config(obs::SpanRecorder* spans) {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = 8;
    cfg.enable_history = true;
    cfg.instruments.spans = spans;
    return cfg;
  }

  void loop() {
    try {
      poll_until_stopped();
    } catch (const std::exception& e) {
      const std::lock_guard<std::mutex> lock(mu_);
      error_ = e.what();
    }
  }

  void poll_until_stopped() {
    SpanLog* log = spans_ != nullptr ? &log_ : nullptr;
    while (!stop_.load(std::memory_order_relaxed)) {
      const std::int64_t t0 = now_ns();
      const std::size_t frames = agent_.poll();
      const std::int64_t t1 = now_ns();
      if (frames > 0) {
        busy_ns_ += t1 - t0;
        if (log != nullptr) log->add("agent", t0, t1);
      } else {
        ++idle_polls_;
        if (log != nullptr) log->add("agent.idle_poll", t0, t1);
      }
      check(t1);
      if (frames == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        if (log != nullptr) log->add("agent.sleep", t1, now_ns());
      }
    }
    agent_.poll();
    check(now_ns());
  }

  /// Called from both threads; the first to see the target reached stamps it.
  void check(std::int64_t now) {
    if (ingested_->value() < target_.load()) return;
    std::int64_t unset = 0;
    done_ns_.compare_exchange_strong(unset, now);
  }

  // Declared before the agent, which binds its stage histograms to it.
  std::unique_ptr<obs::SpanRecorder> spans_;
  transport::CollectorAgent agent_;
  obs::Counter* ingested_ = nullptr;
  obs::Gauge* connections_ = nullptr;

  std::mutex mu_;
  std::string error_;
  std::atomic<std::uint64_t> target_{~std::uint64_t{0}};
  std::atomic<std::int64_t> done_ns_{0};

  // Agent-thread state, read only after stop().
  SpanLog log_;
  std::int64_t busy_ns_ = 0;
  std::uint64_t idle_polls_ = 0;

  std::atomic<bool> stop_{false};
  std::thread thread_;
};

// --- Export path -------------------------------------------------------------

/// The client side as deployed: a CollectorClient for one agent, a
/// PartitionedClient spraying by flow hash for several.
class Shipper {
 public:
  Shipper(const std::vector<std::string>& paths, obs::SpanRecorder* spans) {
    const auto factory = [](const std::string& path) {
      const auto address = transport::SocketAddress::unix_path(path);
      return [address] { return transport::connect_to(address); };
    };
    if (paths.size() == 1) {
      transport::CollectorClientConfig cfg;
      cfg.instruments.spans = spans;
      single_ = std::make_unique<transport::CollectorClient>(cfg, factory(paths[0]));
      endpoints_.push_back(single_.get());
      return;
    }
    transport::PartitionedClientConfig cfg;
    cfg.instruments.spans = spans;
    parted_ = std::make_unique<transport::PartitionedClient>(cfg);
    for (const auto& path : paths) parted_->add_endpoint(factory(path));
    for (std::size_t i = 0; i < paths.size(); ++i) endpoints_.push_back(&parted_->client(i));
  }

  [[nodiscard]] collect::EpochScheduler::BatchSink sink() {
    return single_ ? single_->make_sink() : parted_->make_sink();
  }
  void pump() { single_ ? single_->pump() : parted_->pump(); }
  bool drain() { return single_ ? single_->drain(64) : parted_->drain(64); }

  /// Records handed to endpoint i so far.
  [[nodiscard]] std::uint64_t routed(std::size_t i) const {
    return single_ ? single_->stats().records_submitted : parted_->records_routed(i);
  }
  [[nodiscard]] std::size_t max_buffered() const {
    std::size_t most = 0;
    for (const auto* c : endpoints_) most = std::max(most, c->buffered_bytes());
    return most;
  }
  [[nodiscard]] transport::CollectorClient::Stats totals() const {
    transport::CollectorClient::Stats sum;
    for (const auto* c : endpoints_) {
      const auto s = c->stats();
      sum.records_submitted += s.records_submitted;
      sum.records_shed += s.records_shed;
      sum.frames_sent += s.frames_sent;
      sum.bytes_sent += s.bytes_sent;
    }
    return sum;
  }

 private:
  std::unique_ptr<transport::CollectorClient> single_;
  std::unique_ptr<transport::PartitionedClient> parted_;
  std::vector<transport::CollectorClient*> endpoints_;
};

/// Agents, export path and coordinator of one set-up.
struct Fleet {
  std::vector<std::unique_ptr<AgentHost>> agents;
  // Tracing rings for the replay thread (scheduler + clients) and the
  // coordinator; declared before their users.
  std::unique_ptr<obs::SpanRecorder> replay_spans;
  std::unique_ptr<obs::SpanRecorder> coord_spans;
  std::unique_ptr<Shipper> shipper;
  std::unique_ptr<transport::QueryCoordinator> coord;
};

std::unique_ptr<Fleet> start_fleet(const Workload& w, const Options& opt) {
  auto fleet = std::make_unique<Fleet>();
  if (opt.trace) {
    fleet->replay_spans = std::make_unique<obs::SpanRecorder>(kSpanRing);
    fleet->coord_spans = std::make_unique<obs::SpanRecorder>(kSpanRing);
  }
  // Listeners unlink their socket files when the agents are destroyed.
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < w.agents; ++i) {
    paths.push_back(kOutDir + "/agent" + std::to_string(i) + "-" + std::to_string(::getpid()) +
                    ".sock");
    fleet->agents.push_back(std::make_unique<AgentHost>(paths.back(), opt.trace, i));
  }
  fleet->shipper = std::make_unique<Shipper>(paths, fleet->replay_spans.get());
  transport::QueryCoordinatorConfig ccfg;
  ccfg.instruments.spans = fleet->coord_spans.get();
  fleet->coord = std::make_unique<transport::QueryCoordinator>(ccfg);
  for (const auto& path : paths) {
    const auto address = transport::SocketAddress::unix_path(path);
    fleet->coord->add_agent([address] { return transport::connect_to(address); });
  }
  // Each agent accepts the export connection and the coordinator's.
  const std::int64_t deadline = now_ns() + 5'000'000'000;
  for (const auto& a : fleet->agents) {
    while (a->connections() < 2) {
      if (now_ns() > deadline) throw std::runtime_error("agents did not accept connections");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  return fleet;
}

// --- Operator queries --------------------------------------------------------

constexpr const char* kQueryLayers[] = {"query.window_fleet", "query.window_link",
                                        "query.window_flow_quantile", "query.top_k"};

struct QuerySample {
  std::size_t kind = 0;
  /// From the query's due time (open loop) or its send (closed loop).
  double latency_ms = 0.0;
  /// From its send: the per-kind service time.
  double service_ms = 0.0;
  bool ok = true;
};

/// The operator's fixed mix: window_fleet and window_link over the last 8
/// sealed epochs, window_flow_quantile of a seeded flow, top_k_ranked(10,
/// 0.99), in rotation.
class QueryMix {
 public:
  QueryMix(const Recording& rec, std::uint64_t seed) : rec_(rec), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  QuerySample run(transport::QueryCoordinator& coord, std::uint64_t k, std::uint32_t last_epoch,
                  std::int64_t due_ns, SpanLog* log) {
    QuerySample s;
    s.kind = k % 4;
    const std::uint32_t first = last_epoch >= 7 ? last_epoch - 7 : 0;
    const std::uint64_t failures = coord.stats().agent_failures;
    const std::int64_t t0 = now_ns();
    {
      Scope span(log, kQueryLayers[s.kind]);
      switch (s.kind) {
        case 0:
          (void)coord.window_fleet(first, last_epoch);
          break;
        case 1:
          (void)coord.window_link(static_cast<collect::LinkId>(rng_() % kVantages), first,
                                  last_epoch);
          break;
        case 2:
          (void)coord.window_flow_quantile(rec_.flows[rng_() % rec_.flows.size()], 0.99, first,
                                           last_epoch);
          break;
        default:
          (void)coord.top_k_ranked(10, 0.99);
          break;
      }
    }
    const std::int64_t t1 = now_ns();
    s.latency_ms = static_cast<double>(t1 - due_ns) / 1e6;
    s.service_ms = static_cast<double>(t1 - t0) / 1e6;
    s.ok = coord.stats().agent_failures == failures;
    return s;
  }

 private:
  const Recording& rec_;
  std::mt19937_64 rng_;
};

// --- The timed phase ---------------------------------------------------------

struct Timed {
  std::int64_t start_ns = 0;
  /// When the last pass had been fed, and when every agent had ingested all
  /// it was sent (in closed loop, after each pass).
  std::int64_t replayed_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t passes = 0;
  /// Wall time of each pass: in closed loop from its first arrival until the
  /// agents have ingested all of it, in open loop until the replay thread has
  /// fed it. Closed loop also times the reference kernel before the first
  /// pass and after each (calibrate.h).
  std::vector<double> pass_s;
  std::vector<double> ref_s;
  std::uint32_t epochs = 0;
  std::uint32_t last_epoch = 0;
  /// The agents' history bytes once the first kStateEpochs epochs are in.
  std::optional<std::size_t> history_bytes;
  std::vector<double> late_ms;
  std::vector<QuerySample> queries;
  // Replay-thread counters.
  std::uint64_t arrivals = 0;
  std::uint64_t regular_arrivals = 0;
  std::uint64_t estimates = 0;
  std::uint64_t unclassified = 0;
  std::uint64_t advances = 0;
  std::uint64_t flows_aged = 0;
  SpanLog replay_log{"replay"};
  SpanLog operator_log{"operator"};
};

/// Ships everything the client holds and waits until every agent has
/// ingested all it was sent. Returns when the last agent got there.
std::int64_t settle(Shipper& ship, Fleet& fleet, SpanLog* log) {
  {
    Scope span(log, "client");
    while (!ship.drain()) {
      Scope wait(log, "client.wait");
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  }
  for (std::size_t i = 0; i < fleet.agents.size(); ++i) {
    fleet.agents[i]->expect_total(ship.routed(i));
  }
  Scope span(log, "replay.wait_ingest");
  const std::int64_t deadline = now_ns() + 60'000'000'000;
  std::int64_t done = 0;
  for (const auto& a : fleet.agents) {
    while (a->done_ns() == 0) {
      if (!a->error().empty()) throw std::runtime_error("agent failed: " + a->error());
      if (now_ns() > deadline) throw std::runtime_error("agents never ingested every record");
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    done = std::max(done, a->done_ns());
  }
  return done;
}

void run_timed(const Options& opt, const Recording& rec, Fleet& fleet, Calibrator& cal,
               Timed& out) {
  const Workload& w = *opt.workload;
  SpanLog* log = opt.trace ? &out.replay_log : nullptr;
  Shipper& ship = *fleet.shipper;

  // Block on backpressure instead of letting the client shed (it sheds above
  // max_buffered_bytes, 4 MiB): past kBacklogFrames coalesced frames queued
  // for an endpoint, the replay thread waits. The backlog, and the pump on
  // every tick below, keep a saturated agent fed while the replay thread
  // works, so the two run side by side instead of taking turns.
  const std::size_t limit = kBacklogFrames * transport::CollectorClientConfig{}.coalesce_bytes;
  auto ship_sink = ship.sink();
  auto sink = [&, log](std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch) {
    {
      Scope span(log, "client.wait");
      while (ship.max_buffered() > limit) {
        ship.pump();
        if (ship.max_buffered() <= limit) break;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
    Scope span(log, "client");
    ship_sink(epoch, batch);
  };
  Chain chain(rec, w, sink, fleet.replay_spans.get(), log);

  std::atomic<std::uint32_t> last_sealed{0};
  // Open loop is paced, not timed, so it is not calibrated: a kernel run
  // between passes would only make the pacer late.
  if (!w.open_loop) out.ref_s.push_back(cal.sample());
  out.start_ns = now_ns();
  const std::int64_t start = out.start_ns;
  // Open loop: simulated time maps linearly onto wall time so that a pass
  // takes arrivals/arrivals_per_s seconds.
  const double wall_per_sim =
      w.open_loop ? static_cast<double>(rec.arrivals.size()) / w.arrivals_per_s * 1e9 /
                        static_cast<double>(chain.period_ns())
                  : 0.0;
  const auto due_of = [&](std::int64_t sim_ns) {
    return start + static_cast<std::int64_t>(static_cast<double>(sim_ns) * wall_per_sim);
  };
  const Chain::Pace pace = [&](std::int64_t tick) {
    {
      // Every tick, as a deployed exporter's loop would: the socket takes
      // queued frames between epoch batches.
      Scope span(log, "client");
      ship.pump();
    }
    if (w.open_loop) {
      const std::int64_t due = due_of(tick);
      if (now_ns() < due) {
        Scope span(log, "replay.pace");
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
      }
      out.late_ms.push_back(static_cast<double>(std::max<std::int64_t>(0, now_ns() - due)) / 1e6);
    }
  };
  const Chain::Sealed sealed = [&](std::uint32_t epoch) {
    ++out.epochs;
    last_sealed.store(epoch);
  };

  // Open loop: the operator thread, joined on every exit path.
  struct Operator {
    std::atomic<bool> stop{false};
    std::string error;
    std::thread thread;
    void join() {
      stop.store(true);
      if (thread.joinable()) thread.join();
    }
    ~Operator() { join(); }
  } op;
  if (w.open_loop) {
    op.thread = std::thread([&] {
      SpanLog* olog = opt.trace ? &out.operator_log : nullptr;
      QueryMix mix(rec, opt.seed);
      try {
        for (std::uint64_t k = 0; !op.stop.load(); ++k) {
          const std::int64_t due =
              start + static_cast<std::int64_t>(static_cast<double>(k) * 1e9 / w.queries_per_s);
          if (now_ns() < due) {
            Scope span(olog, "operator.pace");
            std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
          }
          if (op.stop.load()) break;
          out.queries.push_back(mix.run(*fleet.coord, k, last_sealed.load(), due, olog));
        }
      } catch (const std::exception& e) {
        op.error = e.what();
      }
    });
  }

  const auto seconds_ns = static_cast<std::int64_t>(opt.seconds * 1e9);
  do {
    const std::int64_t pass_start = now_ns();
    chain.run_pass(out.passes++, pace, sealed);
    out.replayed_ns = now_ns();
    if (w.open_loop) {
      out.pass_s.push_back(static_cast<double>(out.replayed_ns - pass_start) / 1e9);
    } else {
      // Closed loop: a pass ends when the agents have ingested all of it;
      // the reference kernel then runs while they are idle.
      out.end_ns = settle(ship, fleet, log);
      out.pass_s.push_back(static_cast<double>(out.end_ns - pass_start) / 1e9);
      Scope span(log, "calibrate");
      out.ref_s.push_back(cal.sample());
    }
    if (!out.history_bytes && out.epochs >= kStateEpochs) {
      // Once per run, between passes and outside their timings: the history
      // then holds exactly the records of the passes so far, so its size
      // does not depend on how many passes the run gets through.
      if (w.open_loop) settle(ship, fleet, log);
      out.history_bytes = 0;
      for (const auto& a : fleet.agents) *out.history_bytes += a->agent().history()->approx_bytes();
    }
  } while (now_ns() - start < seconds_ns || !out.history_bytes);
  if (w.open_loop) out.end_ns = settle(ship, fleet, log);
  op.join();
  if (!op.error.empty()) throw std::runtime_error("operator thread failed: " + op.error);

  out.last_epoch = last_sealed.load();
  out.arrivals = chain.arrivals_fed();
  out.regular_arrivals = rec.regular_arrivals * out.passes;
  out.estimates = chain.estimates_observed();
  out.unclassified = chain.unclassified();
  out.advances = chain.advances();
  out.flows_aged = chain.scheduler().flows_aged_out();
}

// --- Checks ------------------------------------------------------------------

bool same_bins(const common::LatencySketch& a, const common::LatencySketch& b) {
  return a.count() == b.count() && a.zero_count() == b.zero_count() && a.bins() == b.bins();
}

/// The sketch of `passes` identical passes: `s` merged that many times.
common::LatencySketch repeated(const common::LatencySketch& s, std::uint32_t passes) {
  common::LatencySketch out(s.config());
  for (std::uint32_t p = 0; p < passes; ++p) out.merge(s);
  return out;
}

/// Each recorded flow's mean latency as the agents collected it, summed
/// across agents. Every pass adds the same records, so this is one pass's
/// mean.
rli::FlowStatsMap collected_means(const std::vector<collect::ShardedCollector>& collected,
                                  const Recording& rec) {
  rli::FlowStatsMap means;
  for (const auto& key : rec.flows) {
    double sum = 0.0;
    std::uint64_t count = 0;
    for (const auto& c : collected) {
      if (const auto* sketch = c.flow(key)) {
        sum += sketch->sum();
        count += sketch->count();
      }
    }
    if (count > 0) means[key].add(sum / static_cast<double>(count));
  }
  return means;
}

int report(const std::vector<std::string>& failures) {
  for (const auto& f : failures) std::fprintf(stderr, "pipeline_bench: CHECK FAILED: %s\n", f.c_str());
  return 1;
}

// --- Output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_row(const std::string& name, double value, const std::string& unit,
               const std::string& note = "") {
  std::printf("%-34s %16.6f %-12s %s\n", name.c_str(), value, unit.c_str(), note.c_str());
}

std::string count_note(std::size_t n, double q) {
  return "(n=" + std::to_string(n) + ", " + std::to_string(beyond(n, q)) + " beyond)";
}

common::LatencySketch stage_sketch(obs::MetricsRegistry& r, const char* stage) {
  return r.histogram("rlir_stage_ns", {{"stage", stage}})->snapshot();
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path);
  f << text;
  return static_cast<bool>(f);
}

int run(const Options& opt) {
  const Workload& w = *opt.workload;
  std::filesystem::create_directories(kOutDir);
  const double span_scale = opt.smoke ? 0.25 : 1.0;

  // --- Set-up, several times, each between two reference samples; the last
  // one is kept.
  Calibrator cal;
  std::vector<double> setup_s;
  std::vector<double> setup_ref = {cal.sample()};
  std::unique_ptr<Recording> rec;
  std::unique_ptr<Fleet> fleet;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    fleet.reset();
    rec.reset();
    const std::int64_t t0 = now_ns();
    rec = record(w, opt.seed, span_scale);
    fleet = start_fleet(w, opt);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    setup_ref.push_back(cal.sample());
  }

  // --- Timed phase.
  Timed timed;
  run_timed(opt, *rec, *fleet, cal, timed);
  const double elapsed_s = static_cast<double>(timed.end_ns - timed.start_ns) / 1e9;

  // Closed loop: the operator's mix, one query after another, against the
  // settled fleet.
  SpanLog post_log("post_queries");
  if (!w.open_loop) {
    QueryMix mix(*rec, opt.seed);
    for (std::uint64_t k = 0; k < w.post_queries; ++k) {
      timed.queries.push_back(mix.run(*fleet->coord, k, timed.last_epoch, now_ns(),
                                      opt.trace ? &post_log : nullptr));
    }
  }

  // --- Checks, untimed.
  std::vector<std::string> failures;
  const auto client = fleet->shipper->totals();
  std::uint64_t ingested = 0;
  for (const auto& a : fleet->agents) ingested += a->agent().collector().records_ingested();
  if (ingested != client.records_submitted || client.records_shed != 0) {
    failures.push_back("conservation: submitted " + std::to_string(client.records_submitted) +
                       ", ingested " + std::to_string(ingested) + ", shed " +
                       std::to_string(client.records_shed));
  }

  collect::ShardedCollector oracle;
  Chain oracle_chain(
      *rec, w,
      [&oracle](std::uint32_t, const std::vector<collect::EstimateRecord>& batch) {
        oracle.ingest(batch);
      },
      nullptr, nullptr);
  oracle_chain.run_pass(0, {}, {});
  auto expected_fleet = repeated(oracle.fleet(), timed.passes);
  if (opt.perturb_oracle) expected_fleet.add(12345.0);
  if (!same_bins(fleet->coord->fleet(), expected_fleet)) {
    failures.push_back("oracle: coordinator fleet sketch differs from the in-process collector");
  }
  const auto links = fleet->coord->link_distributions();
  if (links.size() != oracle.links().size()) {
    failures.push_back("oracle: coordinator reports " + std::to_string(links.size()) +
                       " links, in-process collector " + std::to_string(oracle.links().size()));
  }
  for (const auto& [link, sketch] : links) {
    const auto expected = oracle.link_distribution(link);
    if (!expected || !same_bins(sketch, repeated(*expected, timed.passes))) {
      failures.push_back("oracle: link " + std::to_string(link) + " sketch differs");
    }
  }

  for (const auto& a : fleet->agents) a->stop();
  std::vector<collect::ShardedCollector> collected;
  std::size_t collector_bytes = 0;
  const std::size_t history_bytes = *timed.history_bytes;
  std::size_t flows = 0;
  std::uint64_t compactions = 0;
  std::uint64_t protocol_errors = 0;
  std::vector<double> per_agent_records;
  for (const auto& a : fleet->agents) {
    collected.push_back(a->agent().collector().snapshot());
    collector_bytes += collected.back().approx_flow_bytes();
    flows += collected.back().flow_count();
    compactions += a->agent().history()->compactions();
    protocol_errors += a->agent().protocol_errors();
    per_agent_records.push_back(static_cast<double>(collected.back().records_ingested()));
  }
  if (protocol_errors != 0) failures.push_back("agents dropped peers for protocol errors");

  // Accuracy of what the agents collected, so that a loss anywhere from the
  // exporter to the collector shows; and it must cover every flow the
  // receivers estimated.
  const auto accuracy = rli::AccuracyReport::compare(rec->truth, collected_means(collected, *rec));
  const std::size_t estimated =
      rli::AccuracyReport::compare(rec->truth, oracle_chain.estimates()).flow_count();
  const double est_err = accuracy.flow_count() > 0 ? accuracy.median_mean_error() : NAN;
  if (accuracy.flow_count() < 50 || accuracy.flow_count() != estimated || !(est_err < 1.0)) {
    failures.push_back("accuracy: median relative error " + std::to_string(est_err) + " over " +
                       std::to_string(accuracy.flow_count()) + " collected flows, " +
                       std::to_string(estimated) + " estimated by the receivers");
  }
  if (!failures.empty()) return report(failures);

  // --- End-to-end metrics.
  std::vector<double> query_ms;
  std::size_t queries_failed = 0;
  for (const auto& q : timed.queries) {
    query_ms.push_back(q.latency_ms);
    queries_failed += q.ok ? 0 : 1;
  }
  const double records = static_cast<double>(client.records_submitted);
  // Rates are medians over passes (every pass replays the same arrivals and
  // ships the same records), so a transient stall on the host moves one pass,
  // not the figure. Closed loop scales each pass to the reference host
  // (calibrate.h); open loop reports the paced rate it achieved.
  const double pass_arrivals = static_cast<double>(rec->arrivals.size());
  // The first pass also pays the agents' first sight of every flow.
  const std::size_t warm = timed.pass_s.size() >= 3 ? 1 : 0;
  std::vector<double> tail(timed.pass_s.begin() + static_cast<std::ptrdiff_t>(warm),
                           timed.pass_s.end());
  const double raw_pkt_rate = pass_arrivals / percentile(tail, 0.5);
  const double pkt_rate = w.open_loop
                              ? raw_pkt_rate
                              : pass_arrivals / calibrated_median(timed.pass_s, timed.ref_s, warm);
  std::vector<Metric> e2e = {
      {"setup_s", calibrated_median(setup_s, setup_ref, 0), "s"},
      {"pkt_rate", pkt_rate, "arrivals/s"},
      {"est_err_p50", est_err, "ratio"},
      {"state_bytes_per_flow",
       static_cast<double>(collector_bytes + history_bytes) / static_cast<double>(flows), "bytes"},
  };

  std::printf("workload %s  seed %llu  %s loop  passes %u  epochs %u  %.3f s timed%s\n", w.name,
              static_cast<unsigned long long>(opt.seed), w.open_loop ? "open" : "closed",
              timed.passes, timed.epochs, elapsed_s, opt.trace ? "  (traced)" : "");
  std::printf("set-up: %zu arrivals (%llu packets, %zu flows, %.2f pkts/flow), sim %.3f s\n",
              rec->arrivals.size(), static_cast<unsigned long long>(rec->packets),
              rec->flows.size(),
              static_cast<double>(rec->packets) / static_cast<double>(rec->flows.size()),
              rec->sim_s);
  for (const auto& m : e2e) {
    std::string note;
    if (m.name == "setup_s") note = "(median of " + std::to_string(kSetupReps) + ", calibrated)";
    if (m.name == "pkt_rate") {
      note = "(median of passes " + std::to_string(warm + 1) + ".." + std::to_string(timed.passes) +
             (w.open_loop ? ", paced)" : ", calibrated)");
    }
    if (m.name == "est_err_p50") note = "(" + std::to_string(accuracy.flow_count()) + " flows)";
    print_row(m.name, m.value, m.unit, note);
  }
  std::printf("pass wall s: first %.3f, min %.3f, median %.3f, max %.3f\n", timed.pass_s.front(),
              *std::min_element(timed.pass_s.begin(), timed.pass_s.end()),
              percentile(timed.pass_s, 0.5),
              *std::max_element(timed.pass_s.begin(), timed.pass_s.end()));
  // As measured, before scaling to the reference host.
  print_row("setup_s_raw", percentile(setup_s, 0.5), "s", "(median, uncalibrated)");
  print_row("pkt_rate_raw", raw_pkt_rate, "arrivals/s", "(median of passes, uncalibrated)");
  std::vector<double> refs = setup_ref;
  refs.insert(refs.end(), timed.ref_s.begin(), timed.ref_s.end());
  print_row("ref_kernel_ms", percentile(refs, 0.5) * 1e3, "ms",
            "(median of " + std::to_string(refs.size()) + "; " +
                std::to_string(kReferenceKernelS * 1e3).substr(0, 5) + " on the reference host)");
  // Freshness and query latency, printed but not reported: across runs on a
  // shared host they spread by up to a quarter (README.md, Steadiness).
  print_row("ingest_lag_ms", static_cast<double>(timed.end_ns - timed.replayed_ns) / 1e6, "ms",
            "(last arrival replayed until every record ingested)");
  print_row("query_ms_p50", percentile(query_ms, 0.50), "ms", count_note(query_ms.size(), 0.50));
  if (w.open_loop) {
    print_row("replay.late_ms_p99", percentile(timed.late_ms, 0.99), "ms",
              count_note(timed.late_ms.size(), 0.99));
  }
  print_row("records_lost_frac", (records - static_cast<double>(ingested)) / records, "ratio");
  print_row("queries_failed_frac",
            query_ms.empty() ? 0.0
                             : static_cast<double>(queries_failed) /
                                   static_cast<double>(query_ms.size()),
            "ratio");
  std::printf("checks: conservation exact (%llu records), oracle bin-for-bin (fleet + %zu links, "
              "%u passes), accuracy over %zu collected flows\n",
              static_cast<unsigned long long>(ingested), links.size(), timed.passes,
              accuracy.flow_count());

  std::vector<Metric> out_metrics = e2e;
  if (opt.trace) {
    const SelfTimes replay = self_times(timed.replay_log, timed.start_ns, timed.end_ns);
    const double arrivals = static_cast<double>(timed.arrivals);
    const double estimates = static_cast<double>(timed.estimates);

    double busy_in_window = 0.0;
    std::int64_t busy_total = 0;
    double decode_ns = 0.0;
    double ingest_ns = 0.0;
    std::uint64_t idle_polls = 0;
    common::LatencySketch answer;
    common::LatencySketch window;
    for (const auto& a : fleet->agents) {
      const SelfTimes st = self_times(a->log(), timed.start_ns, timed.end_ns);
      busy_in_window += static_cast<double>(st.of("agent"));
      busy_total += a->busy_ns();
      idle_polls += a->idle_polls();
      auto& r = a->agent().metrics();
      decode_ns += stage_sketch(r, "decode").sum();
      ingest_ns += stage_sketch(r, "ingest").sum();
      answer.merge(stage_sketch(r, "answer"));
      window.merge(stage_sketch(r, "window"));
    }
    const double window_ns = static_cast<double>(timed.end_ns - timed.start_ns);
    auto& coord_reg = fleet->coord->metrics();
    std::vector<double> per_kind[4];
    for (const auto& q : timed.queries) per_kind[q.kind].push_back(q.service_ms);
    const double mean_agent_records =
        records / static_cast<double>(std::max<std::size_t>(1, per_agent_records.size()));
    const double max_agent_records =
        *std::max_element(per_agent_records.begin(), per_agent_records.end());

    out_metrics = {
        {"rlir.ns_per_pkt", static_cast<double>(replay.of("rlir")) / arrivals, "ns"},
        {"rlir.estimates_per_regular_pkt",
         estimates / static_cast<double>(timed.regular_arrivals), "ratio"},
        {"exporter.ns_per_estimate", static_cast<double>(replay.of("exporter")) / estimates, "ns"},
        {"exporter.estimates_per_record", estimates / records, "ratio"},
        {"scheduler.ns_per_advance",
         static_cast<double>(replay.of("scheduler")) / static_cast<double>(timed.advances), "ns"},
        {"scheduler.flows_aged", static_cast<double>(timed.flows_aged), "count"},
        {"replay.ns_per_pkt", static_cast<double>(replay.of("replay")) / arrivals, "ns"},
        {"client.ns_per_record", static_cast<double>(replay.of("client")) / records, "ns"},
        {"client.wait_s", static_cast<double>(replay.of("client.wait")) / 1e9, "s"},
        {"client.bytes_per_record", static_cast<double>(client.bytes_sent) / records, "bytes"},
        {"client.frames", static_cast<double>(client.frames_sent), "count"},
        {"agent.busy_frac",
         busy_in_window / (window_ns * static_cast<double>(fleet->agents.size())), "ratio"},
        {"agent.ns_per_record", busy_in_window / records, "ns"},
        {"agent.decode_ns_per_record", decode_ns / records, "ns"},
        {"agent.ingest_ns_per_record", ingest_ns / records, "ns"},
        {"agent.idle_polls", static_cast<double>(idle_polls), "count"},
        {"collector.bytes_per_flow",
         static_cast<double>(collector_bytes) / static_cast<double>(flows), "bytes"},
        {"history.bytes", static_cast<double>(history_bytes), "bytes"},
        {"history.compactions", static_cast<double>(compactions), "count"},
        {"history.window_ms_p50", window.quantile(0.5) / 1e6, "ms"},
        {"query.window_fleet_ms_p50", percentile(per_kind[0], 0.5), "ms"},
        {"query.window_link_ms_p50", percentile(per_kind[1], 0.5), "ms"},
        {"query.window_flow_quantile_ms_p50", percentile(per_kind[2], 0.5), "ms"},
        {"query.top_k_ms_p50", percentile(per_kind[3], 0.5), "ms"},
        {"coord.leg_ms_p50", stage_sketch(coord_reg, "leg").quantile(0.5) / 1e6, "ms"},
        {"coord.merge_ms_p50", stage_sketch(coord_reg, "merge").quantile(0.5) / 1e6, "ms"},
        {"agent.answer_ms_p50", answer.quantile(0.5) / 1e6, "ms"},
        {"setup.sim_s", rec->sim_s, "s"},
        {"setup.arrivals", static_cast<double>(rec->arrivals.size()), "count"},
        {"traced.pkt_rate", pkt_rate, "arrivals/s"},
    };
    std::printf("\nper-layer (traced run):\n");
    for (const auto& m : out_metrics) print_row(m.name, m.value, m.unit);
    print_row("rlir.unclassified_pkts", static_cast<double>(timed.unclassified), "count");
    print_row("client.records_shed", static_cast<double>(client.records_shed), "count");
    print_row("agent.protocol_errors", static_cast<double>(protocol_errors), "count");
    print_row("partition.skew", max_agent_records / mean_agent_records, "ratio");

    // Self time per layer and thread, and the check that it accounts for the
    // thread's wall time.
    std::printf("\nself time per thread over the timed window (%.3f s):\n", window_ns / 1e9);
    std::vector<const SpanLog*> logs = {&timed.replay_log};
    for (const auto& a : fleet->agents) logs.push_back(&a->log());
    if (w.open_loop) logs.push_back(&timed.operator_log);
    for (const SpanLog* l : logs) {
      const SelfTimes st = self_times(*l, timed.start_ns, timed.end_ns);
      const double share = static_cast<double>(st.total()) / window_ns;
      if (share < 0.9 || share > 1.1) {
        failures.push_back("self time: " + l->thread() + " layers sum to " +
                           std::to_string(100.0 * share) + "% of wall, not within 10%");
      }
      std::printf("  %-10s layers sum to %.1f%% of wall:", l->thread().c_str(), 100.0 * share);
      for (const auto& [layer, ns] : st.by_layer) {
        std::printf(" %s %.3fs", layer.c_str(), static_cast<double>(ns) / 1e9);
      }
      std::printf("\n");
    }
    // The agent's own stage spans (what a /metrics scrape shows) run inside
    // the busy polls the benchmark times; the rest is socket reads and CRC.
    const double spanned = (decode_ns + ingest_ns + answer.sum()) / static_cast<double>(busy_total);
    if (spanned < kMinSpannedBusy || spanned > 1.02) {
      failures.push_back("agent cross-check: decode+ingest+answer spans are " +
                         std::to_string(100.0 * spanned) + "% of the busy polls timed");
    }
    std::printf("agent cross-check: decode+ingest+answer spans (rlir_stage_ns) are %.1f%% of busy "
                "polls timed by the benchmark\n",
                100.0 * spanned);

    std::vector<std::pair<std::string, std::vector<obs::Span>>> processes;
    processes.emplace_back("replay", fleet->replay_spans->snapshot().spans);
    for (std::size_t i = 0; i < fleet->agents.size(); ++i) {
      processes.emplace_back("agent" + std::to_string(i),
                             fleet->agents[i]->spans()->snapshot().spans);
    }
    processes.emplace_back("coordinator", fleet->coord_spans->snapshot().spans);
    if (!w.open_loop) logs.push_back(&post_log);
    const std::string base = kOutDir + "/trace_" + w.name;
    if (!write_file(base + "_program.json", obs::to_chrome_trace(processes)) ||
        !write_file(base + "_bench.json", to_chrome_json(logs, timed.start_ns))) {
      std::fprintf(stderr, "pipeline_bench: cannot write traces under %s\n", kOutDir.c_str());
      return 1;
    }
    std::printf("traces: %s_program.json (program spans), %s_bench.json (benchmark spans)\n",
                base.c_str(), base.c_str());
    if (!failures.empty()) return report(failures);
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(client.records_submitted + timed.queries.size()) +
                     ", \"failed\": " +
                     std::to_string(client.records_submitted - ingested + queries_failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < out_metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.10g", out_metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + out_metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + out_metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--smoke] [--perturb-oracle]\n  workloads:");
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = find_workload(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      opt.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--perturb-oracle") {
      opt.perturb_oracle = true;
    } else {
      return usage();
    }
  }
  if (opt.workload == nullptr || !(opt.seconds > 0.0)) return usage();
  try {
    return run(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
