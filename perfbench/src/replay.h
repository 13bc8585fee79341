// The replay-thread half of the system under test, built from public APIs
// only: one rlir::RlirReceiver per vantage, each feeding its
// collect::EstimateExporter, all driven by one collect::EpochScheduler on the
// simulated clock. Batches leave through the sink the caller supplies: the
// transport client in the timed run, an in-process ShardedCollector for the
// oracle.
//
// A run replays the recording in passes. Pass p shifts every arrival by
// p * period_ns(), where the period ends on an epoch boundary after the last
// arrival, and each pass starts from fresh receivers. Every pass therefore
// produces the same records (up to epoch numbers), which is what lets one
// oracle pass stand for all of them.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/exporter.h"
#include "net/packet.h"
#include "obs/span.h"
#include "recording.h"
#include "rlir/receiver.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// Times 1 in 64 exporter observe() calls in a traced run, so exporter time
/// can be told apart from the receiver that calls it without a clock read
/// around every estimate.
struct ExporterProbe {
  std::uint64_t calls = 0;
  std::uint64_t sampled = 0;
  std::int64_t sampled_ns = 0;

  [[nodiscard]] double ns_per_call() const {
    return sampled == 0 ? 0.0 : static_cast<double>(sampled_ns) / static_cast<double>(sampled);
  }
};

class Chain {
 public:
  /// Runs before a tick's arrivals are fed (client pump, open-loop pacing).
  using Pace = std::function<void(std::int64_t tick_sim_ns)>;
  /// Runs after an advance that sealed `epoch`.
  using Sealed = std::function<void(std::uint32_t epoch)>;

  /// `spans` attaches the program's own tracing; `log` (traced runs) gets
  /// the benchmark's spans. Both may be null.
  Chain(const Recording& rec, const Workload& w, rlir::collect::EpochScheduler::BatchSink sink,
        rlir::obs::SpanRecorder* spans, SpanLog* log);
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  void run_pass(std::uint32_t pass, const Pace& pace, const Sealed& sealed);

  /// Pass length in simulated time.
  [[nodiscard]] std::int64_t period_ns() const { return period_ns_; }
  [[nodiscard]] rlir::collect::EpochScheduler& scheduler() { return scheduler_; }
  /// Per-flow estimates of the last pass, merged across vantages.
  [[nodiscard]] rlir::rli::FlowStatsMap estimates() const;
  /// Lifetime totals across passes.
  [[nodiscard]] std::uint64_t unclassified() const;
  [[nodiscard]] std::uint64_t estimates_observed() const;
  [[nodiscard]] std::uint64_t advances() const { return advances_; }
  [[nodiscard]] std::uint64_t arrivals_fed() const { return arrivals_fed_; }

 private:
  void begin_pass();
  /// Traced runs: a child span for the exporter share of the calls made
  /// since `calls_before`, estimated from the sampled cost per call.
  void log_exporter_share(std::uint64_t calls_before);

  const Recording& rec_;
  SpanLog* log_;
  std::int64_t tick_ns_;
  std::int64_t period_ns_;
  ExporterProbe probe_;
  std::vector<std::unique_ptr<rlir::collect::EstimateExporter>> exporters_;
  std::vector<std::unique_ptr<rlir::rlir::RlirReceiver>> receivers_;
  std::uint64_t unclassified_past_ = 0;
  std::uint64_t advances_ = 0;
  std::uint64_t arrivals_fed_ = 0;
  /// One tick's arrivals, materialized as packets.
  std::vector<rlir::net::Packet> batch_;
  std::vector<std::uint8_t> batch_vantage_;
  rlir::collect::EpochScheduler scheduler_;
};

}  // namespace perfbench
