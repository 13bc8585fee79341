// Fleet wiring: deploys RLIR receivers as vantage points across a fat-tree
// simulation and pumps their epoch record batches into a ShardedCollector —
// the full paper-to-operator data path in one object:
//
//   taps (FatTreeSim arrivals) -> RlirReceiver streams -> per-packet
//   estimates -> EstimateExporter sketches -> EstimateRecord batches (wire
//   format) -> RecordViews -> ShardedCollector shards -> fleet queries.
//
// Epochs end only at the boundaries of an attached EpochScheduler, which
// flushes every receiver before it drains the exporters. Epoch batches
// really do round-trip through the binary wire format:
// ShardedCollector::ingest encodes each batch and merges the decoded views,
// the same view path a CollectorAgent runs on bytes off a socket.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/exporter.h"
#include "collect/sharded_collector.h"
#include "rli/receiver.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"

namespace rlir::collect {

struct FleetConfig {
  /// Configuration of every deployed receiver's interpolation streams.
  rli::ReceiverConfig receiver;
  CollectorConfig collector;
};

class FleetCollector {
 public:
  /// `clock` is borrowed by every deployed receiver and must outlive them.
  FleetCollector(FleetConfig config, const timebase::Clock* clock);

  /// Deploys a receiver at `node`'s arrival tap, using `demux` (borrowed) to
  /// attribute regular packets. Call before sim.run(); the FleetCollector
  /// must outlive the simulation. Returns the vantage's LinkId.
  LinkId deploy(topo::FatTreeSim& sim, topo::NodeId node, const rlir::Demultiplexer* demux);

  /// The receiver deployed as `link` (for assertions/extra instrumentation).
  [[nodiscard]] rlir::RlirReceiver& receiver(LinkId link);
  [[nodiscard]] const rlir::RlirReceiver& receiver(LinkId link) const;
  [[nodiscard]] topo::NodeId node(LinkId link) const;
  [[nodiscard]] std::size_t vantage_count() const { return vantages_.size(); }

  /// Redirects collection away from the in-process collector: when any sink
  /// is registered, the scheduler sink hands every (epoch, batch) to EVERY
  /// registered sink instead of ingesting locally — the hookup for shipping
  /// batches to a remote CollectorAgent or a PartitionedClient (transport
  /// tier), or any other consumer. Multiple sinks each see the full batch
  /// stream (mirroring: e.g. a partitioned fleet AND a single-collector
  /// oracle fed identically in one run). The local collector() then stays
  /// empty. Register before the first delivered batch; throws
  /// std::logic_error afterwards (split state would make neither side
  /// answer fleet queries correctly) and std::invalid_argument on a null
  /// sink.
  void add_batch_sink(EpochScheduler::BatchSink sink);

  /// Hands epoch driving to `scheduler`, the only way this fleet's epochs
  /// end: registers an epoch hook that flushes every vantage receiver's
  /// interpolation buffer, every vantage exporter for periodic drain/aging,
  /// and a sink that delivers each batch (local ingest or the batch sinks).
  /// Vantages deployed later are registered too. The scheduler is borrowed:
  /// both it and the FleetCollector must outlive the scheduler's last
  /// advance_to. Drive with scheduler.advance_to(sim.now()) as the
  /// simulation runs (see FatTreeSim::run_until).
  void attach_scheduler(EpochScheduler& scheduler);

  /// Per-flow estimates merged across every vantage the classic way
  /// (unbounded FlowStatsMap union) — the ground truth the collector's
  /// sketched answers are validated against.
  [[nodiscard]] rli::FlowStatsMap unsharded_estimates() const;

  [[nodiscard]] ShardedCollector& collector() { return collector_; }
  [[nodiscard]] const ShardedCollector& collector() const { return collector_; }

 private:
  struct Vantage {
    topo::NodeId node;
    std::unique_ptr<rlir::RlirReceiver> receiver;
    std::unique_ptr<EstimateExporter> exporter;
  };

  /// Where a drained batch goes: every remote sink when any is set,
  /// otherwise the local collector.
  void deliver(std::uint32_t epoch, const std::vector<EstimateRecord>& batch);

  FleetConfig config_;
  const timebase::Clock* clock_;
  std::vector<Vantage> vantages_;
  ShardedCollector collector_;
  /// Set by attach_scheduler; deploy() registers later exporters with it.
  EpochScheduler* scheduler_ = nullptr;
  std::vector<EpochScheduler::BatchSink> remote_sinks_;
  /// Guards add_batch_sink-after-collection (see header comment).
  bool collected_any_ = false;
};

}  // namespace rlir::collect
