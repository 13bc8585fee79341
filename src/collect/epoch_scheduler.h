// Self-driving epochs for the collection tier: a scheduler that fires epoch
// boundaries on a period, flushes whatever is upstream of the exporters
// (receiver interpolation buffers), drains every registered exporter, and
// hands the record batches to sinks — typically a collector ingest, with or
// without a wire round-trip.
//
// One call ends every epoch: advance_to(now). Boundaries land on the
// fixed grid period, 2·period, ..., so epoch indices (and therefore
// batches) are independent of how often advance_to is called — same
// workload, same period, bit-identical batches. `now` is simulated time in
// the simulator and elapsed steady-clock time in a deployment; a caller
// that stalls past several boundaries fires each of them, in order and
// under its own grid index, on its next call.
//
// Between boundaries, advance_to also ages idle flows out of the exporters
// (EstimateExporter::evict_idle), shipping their records immediately — the
// across-flows memory bound for receivers whose flows come and go.
//
// Threading: not thread-safe, and starts no thread. One owner feeds the
// exporters and calls advance_to; hooks and sinks run inline on its thread.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/exporter.h"
#include "obs/instrument.h"
#include "timebase/time.h"

namespace rlir::collect {

struct EpochSchedulerConfig {
  /// Epoch length on the driving clock; boundaries sit on the grid period,
  /// 2·period, ... Must be > 0.
  timebase::Duration period = timebase::Duration::milliseconds(10);
  /// Age out exporter flows idle longer than this (checked at every
  /// advance_to). Zero disables aging.
  timebase::Duration max_flow_idle = timebase::Duration::zero();
  /// Observability attachment (see obs/instrument.h). Every fired epoch
  /// leaves a kEpochFlush event carrying the records it delivered.
  obs::Instruments instruments;
};

class EpochScheduler {
 public:
  /// Sinks receive each non-empty drained batch (one per exporter per
  /// boundary, plus aging batches). Sinks must not call back into the
  /// scheduler.
  using BatchSink = std::function<void(std::uint32_t epoch, const std::vector<EstimateRecord>&)>;
  /// Hooks run at each boundary before the exporters drain — the place to
  /// flush receiver interpolation buffers so the epoch ships every estimate
  /// the vantage point can produce.
  using EpochHook = std::function<void(std::uint32_t epoch)>;

  /// Throws std::invalid_argument if config.period <= 0.
  explicit EpochScheduler(EpochSchedulerConfig config);

  EpochScheduler(const EpochScheduler&) = delete;
  EpochScheduler& operator=(const EpochScheduler&) = delete;

  /// Registration (borrowed pointers; callers keep ownership and must
  /// outlive the scheduler's last advance_to).
  void add_exporter(EstimateExporter* exporter);
  void add_sink(BatchSink sink);
  void add_epoch_hook(EpochHook hook);

  /// Fires every boundary with grid time <= now (epoch i covers
  /// (i·period, (i+1)·period]), then runs idle aging against `now`. Calling
  /// with a non-advancing `now` is a no-op.
  void advance_to(timebase::TimePoint now);

  [[nodiscard]] std::uint32_t next_epoch() const { return next_epoch_; }
  [[nodiscard]] std::uint64_t epochs_fired() const { return epochs_fired_->value(); }
  [[nodiscard]] std::uint64_t records_delivered() const {
    return records_delivered_->value();
  }
  [[nodiscard]] std::uint64_t flows_aged_out() const { return flows_aged_out_->value(); }
  [[nodiscard]] const EpochSchedulerConfig& config() const { return config_; }

 private:
  void fire();
  void deliver(std::uint32_t epoch, const std::vector<EstimateRecord>& batch);

  EpochSchedulerConfig config_;
  std::vector<EstimateExporter*> exporters_;
  std::vector<BatchSink> sinks_;
  std::vector<EpochHook> hooks_;
  std::uint32_t next_epoch_ = 0;
  timebase::TimePoint next_boundary_;
  timebase::TimePoint last_advance_;

  obs::Instrumented obs_;
  obs::Counter* epochs_fired_ = nullptr;
  obs::Counter* records_delivered_ = nullptr;
  obs::Counter* flows_aged_out_ = nullptr;
};

}  // namespace rlir::collect
