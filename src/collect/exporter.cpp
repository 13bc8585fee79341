#include "collect/exporter.h"

#include <algorithm>

namespace rlir::collect {

namespace {

/// Flow-key order keeps batches (and everything downstream of them)
/// bit-reproducible across runs despite arbitrary flat-map iteration. Keys
/// are unique, so the order is total.
void sort_by_key(std::vector<EstimateRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const EstimateRecord& a, const EstimateRecord& b) { return a.key < b.key; });
}

}  // namespace

void EstimateExporter::observe(net::SenderId sender,
                               const rli::RliReceiver::PacketEstimate& estimate) {
  auto it = flows_.find(estimate.key);
  if (it == flows_.end()) {
    it = flows_
             .try_emplace(estimate.key,
                          FlowEntry{common::LatencySketch(config_.sketch), sender, estimate.arrival})
             .first;
  }
  it->second.sketch.add(estimate.estimate_ns);
  it->second.sender = sender;
  it->second.last_arrival = estimate.arrival;
  ++observed_;
}

void EstimateExporter::attach(rli::RliReceiver& receiver, net::SenderId sender) {
  receiver.add_estimate_sink(
      [this, sender](const rli::RliReceiver::PacketEstimate& pe) { observe(sender, pe); });
}

void EstimateExporter::attach(rlir::RlirReceiver& receiver) {
  receiver.add_estimate_sink(
      [this](net::SenderId sender, const rli::RliReceiver::PacketEstimate& pe) {
        observe(sender, pe);
      });
}

std::vector<EstimateRecord> EstimateExporter::drain(std::uint32_t epoch) {
  std::vector<EstimateRecord> records;
  records.reserve(flows_.size());
  for (auto& [key, entry] : flows_) {
    records.push_back(
        EstimateRecord{key, config_.link, entry.sender, epoch, std::move(entry.sketch)});
  }
  flows_.clear();
  sort_by_key(records);
  return records;
}

std::vector<EstimateRecord> EstimateExporter::evict_idle(timebase::TimePoint now,
                                                         timebase::Duration max_idle,
                                                         std::uint32_t epoch) {
  std::vector<EstimateRecord> records;
  if (max_idle <= timebase::Duration::zero()) return records;
  for (auto it = flows_.begin(); it != flows_.end();) {
    if (now - it->second.last_arrival > max_idle) {
      records.push_back(EstimateRecord{it->first, config_.link, it->second.sender, epoch,
                                       std::move(it->second.sketch)});
      it = flows_.erase(it);
      ++aged_out_;
    } else {
      ++it;
    }
  }
  sort_by_key(records);
  return records;
}

}  // namespace rlir::collect
