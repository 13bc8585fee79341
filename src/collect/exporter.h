// Receiver-side record production: folds the per-packet estimate stream of
// one vantage point (an RLIR receiver) into bounded per-flow latency
// sketches, and drains them as EstimateRecord batches at epoch boundaries.
//
// This is the piece that replaces "keep every estimate" with "keep a sketch
// per flow": memory at the vantage point is O(flows x sketch bins), and the
// drained records are what crosses the network to the sharded collector.
//
// Memory is bounded across flows too, not just per flow, by one mechanism:
// idle aging. `evict_idle()` lets a scheduler age out flows that stopped
// sending mid-epoch, so the live table holds only flows active within the
// aging horizon. An aged flow ships its sketch rather than dropping it, so
// no estimate is ever lost to the bound.
#pragma once

#include <cstdint>
#include <vector>

#include "collect/estimate_record.h"
#include "common/flat_hash_map.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "rli/receiver.h"
#include "rlir/receiver.h"
#include "timebase/time.h"

namespace rlir::collect {

struct ExporterConfig {
  /// Holds nothing (every sketch has one shape); kept so the aggregate form
  /// `ExporterConfig{{}, link}` that perfbench/src/replay.cpp writes still
  /// compiles.
  common::LatencySketchConfig sketch;
  /// Vantage-point identity stamped into every drained record.
  LinkId link = kNoLink;
};

class EstimateExporter {
 public:
  explicit EstimateExporter(ExporterConfig config) : config_(config) {}

  /// Folds one estimate into its flow's sketch. The estimate's arrival time
  /// stamps the flow's activity for idle aging. The sender is unused (no
  /// record carries it); the parameter stays so that the sink signature
  /// perfbench/src/replay.cpp calls still compiles.
  void observe(net::SenderId /*sender*/, const rli::RliReceiver::PacketEstimate& estimate);

  /// Subscribes this exporter to a receiver's estimate stream (additional
  /// sink; existing sinks keep working). The exporter must outlive the
  /// receiver's last estimate.
  void attach(rlir::RlirReceiver& receiver);

  /// Ends the epoch: returns one record per live flow (observed since the
  /// last drain and not aged out since), stamped with `epoch`, in
  /// deterministic (flow-key) order, and resets the flow table for the next
  /// epoch.
  [[nodiscard]] std::vector<EstimateRecord> drain(std::uint32_t epoch);

  /// Ages out flows whose last activity is older than `max_idle` relative to
  /// `now`, returning their records stamped with `epoch` in flow-key order
  /// (so the caller can ship them immediately and the memory is freed).
  /// `max_idle` <= 0 evicts nothing.
  [[nodiscard]] std::vector<EstimateRecord> evict_idle(timebase::TimePoint now,
                                                       timebase::Duration max_idle,
                                                       std::uint32_t epoch);

  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }
  [[nodiscard]] std::uint64_t estimates_observed() const { return observed_; }
  /// Flows evicted by evict_idle (lifetime total).
  [[nodiscard]] std::uint64_t flows_aged_out() const { return aged_out_; }
  [[nodiscard]] const ExporterConfig& config() const { return config_; }

 private:
  struct FlowEntry {
    common::LatencySketch sketch;
    timebase::TimePoint last_arrival;
  };
  ExporterConfig config_;
  /// Flat map (common/flat_hash_map.h): observe() is one lookup per
  /// estimate, the hottest exporter path. Iteration order is arbitrary;
  /// every drain path sorts by flow key before returning, as before.
  common::FlatHashMap<net::FiveTuple, FlowEntry> flows_;
  std::uint64_t observed_ = 0;
  std::uint64_t aged_out_ = 0;
};

}  // namespace rlir::collect
