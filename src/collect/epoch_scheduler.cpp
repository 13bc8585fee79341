#include "collect/epoch_scheduler.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/span.h"

namespace rlir::collect {

EpochScheduler::EpochScheduler(EpochSchedulerConfig config)
    : config_(config),
      next_boundary_(timebase::TimePoint::zero() + config.period),
      last_advance_(timebase::TimePoint::zero()),
      obs_(config.instruments) {
  if (config_.period <= timebase::Duration::zero()) {
    throw std::invalid_argument("EpochScheduler: period must be > 0");
  }
  auto& r = obs_.registry();
  epochs_fired_ = r.counter("rlir_scheduler_epochs_fired_total", obs_.labels());
  records_delivered_ = r.counter("rlir_scheduler_records_delivered_total", obs_.labels());
  flows_aged_out_ = r.counter("rlir_scheduler_flows_aged_out_total", obs_.labels());
}

void EpochScheduler::add_exporter(EstimateExporter* exporter) {
  if (exporter != nullptr) exporters_.push_back(exporter);
}

void EpochScheduler::add_sink(BatchSink sink) {
  if (sink) sinks_.push_back(std::move(sink));
}

void EpochScheduler::add_epoch_hook(EpochHook hook) {
  if (hook) hooks_.push_back(std::move(hook));
}

void EpochScheduler::deliver(std::uint32_t epoch,
                             const std::vector<EstimateRecord>& batch) {
  if (batch.empty()) return;
  records_delivered_->add(batch.size());
  for (const auto& sink : sinks_) sink(epoch, batch);
}

void EpochScheduler::fire() {
  obs::SpanTimer seal(obs_.spans(), obs::SpanKind::kEpochSeal);
  const std::uint32_t epoch = next_epoch_++;
  for (const auto& hook : hooks_) hook(epoch);
  // Registration order, not exporter address order: batches are delivered in
  // a deterministic sequence run after run.
  const std::uint64_t before = records_delivered_->value();
  for (auto* exporter : exporters_) deliver(epoch, exporter->drain(epoch));
  epochs_fired_->increment();
  obs_.trace().record(obs::EventKind::kEpochFlush, records_delivered_->value() - before,
                      "epoch " + std::to_string(epoch));
  seal.set_label("epoch" + std::to_string(epoch));
}

void EpochScheduler::advance_to(timebase::TimePoint now) {
  if (now <= last_advance_) return;
  last_advance_ = now;
  while (next_boundary_ <= now) {
    fire();
    next_boundary_ += config_.period;
  }
  if (config_.max_flow_idle > timebase::Duration::zero()) {
    // Aged-out flows ship under the in-progress epoch's index so the
    // collector files them with the drain that would otherwise have carried
    // them.
    for (auto* exporter : exporters_) {
      const auto batch = exporter->evict_idle(now, config_.max_flow_idle, next_epoch_);
      flows_aged_out_->add(batch.size());
      deliver(next_epoch_, batch);
    }
  }
}

}  // namespace rlir::collect
