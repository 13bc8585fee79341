#include "collect/fleet.h"

#include <stdexcept>
#include <utility>

namespace rlir::collect {

FleetCollector::FleetCollector(FleetConfig config, const timebase::Clock* clock)
    : config_(config), clock_(clock), collector_(config.collector) {
  if (clock_ == nullptr) {
    throw std::invalid_argument("FleetCollector: clock must not be null");
  }
}

LinkId FleetCollector::deploy(topo::FatTreeSim& sim, topo::NodeId node,
                              const rlir::Demultiplexer* demux) {
  const auto link = static_cast<LinkId>(vantages_.size());
  Vantage v;
  v.node = node;
  v.receiver = std::make_unique<rlir::RlirReceiver>(config_.receiver, clock_, demux);
  v.exporter = std::make_unique<EstimateExporter>(
      ExporterConfig{config_.collector.sketch, link});
  v.exporter->attach(*v.receiver);
  sim.add_arrival_tap(node, v.receiver.get());
  // A vantage deployed after attach_scheduler() must still be drained on
  // the same epochs (the flush hook already sees it via vantages_).
  if (scheduler_ != nullptr) scheduler_->add_exporter(v.exporter.get());
  vantages_.push_back(std::move(v));
  return link;
}

rlir::RlirReceiver& FleetCollector::receiver(LinkId link) {
  return *vantages_.at(link).receiver;
}

const rlir::RlirReceiver& FleetCollector::receiver(LinkId link) const {
  return *vantages_.at(link).receiver;
}

topo::NodeId FleetCollector::node(LinkId link) const { return vantages_.at(link).node; }

void FleetCollector::deliver(std::uint32_t epoch, const std::vector<EstimateRecord>& batch) {
  collected_any_ = true;
  if (!remote_sinks_.empty()) {
    for (const auto& sink : remote_sinks_) sink(epoch, batch);
    return;
  }
  // ingest() encodes the batch and merges its wire views: what a networked
  // vantage would transmit is exactly what the collector ingests.
  collector_.ingest(batch);
}

void FleetCollector::add_batch_sink(EpochScheduler::BatchSink sink) {
  if (collected_any_) {
    throw std::logic_error(
        "FleetCollector::add_batch_sink: collection already started in-process");
  }
  if (!sink) {
    throw std::invalid_argument("FleetCollector::add_batch_sink: null sink");
  }
  remote_sinks_.push_back(std::move(sink));
}

void FleetCollector::attach_scheduler(EpochScheduler& scheduler) {
  if (scheduler_ != nullptr) {
    // A second attach would duplicate sinks/hooks and double-ingest every
    // batch from then on — fail loudly instead.
    throw std::logic_error("FleetCollector::attach_scheduler: already attached");
  }
  scheduler.add_epoch_hook([this](std::uint32_t) {
    for (auto& v : vantages_) v.receiver->flush();
  });
  for (auto& v : vantages_) scheduler.add_exporter(v.exporter.get());
  // deploy() keeps later vantages in sync (flush hook already iterates
  // vantages_ live; the exporter registration must match).
  scheduler_ = &scheduler;
  scheduler.add_sink([this](std::uint32_t epoch, const std::vector<EstimateRecord>& batch) {
    deliver(epoch, batch);
  });
}

rli::FlowStatsMap FleetCollector::unsharded_estimates() const {
  rli::FlowStatsMap merged;
  for (const auto& v : vantages_) {
    for (const auto& [key, stats] : v.receiver->merged_estimates()) {
      merged[key].merge(stats);
    }
  }
  return merged;
}

}  // namespace rlir::collect
