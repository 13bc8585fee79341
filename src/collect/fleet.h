// Fleet wiring: deploys RLIR receivers as vantage points across a fat-tree
// simulation and drives their epochs through an EpochScheduler:
//
//   taps (FatTreeSim arrivals) -> RlirReceiver streams -> per-packet
//   estimates -> EstimateExporter sketches -> EstimateRecord batches
//   -> the scheduler's sinks.
//
// Epochs end only at the boundaries of the attached scheduler, which
// flushes every receiver before it drains the exporters. The fleet does not
// collect: its batches leave through the sinks the caller adds to the
// scheduler (a ShardedCollector's ingest, a CollectorClient's make_sink(),
// or both).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/exporter.h"
#include "rli/receiver.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"

namespace rlir::collect {

struct FleetConfig {
  /// Configuration of every deployed receiver's interpolation streams.
  rli::ReceiverConfig receiver;
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

  /// Hands epoch driving to `scheduler`, the only way this fleet's epochs
  /// end: registers an epoch hook that flushes every vantage receiver's
  /// interpolation buffer, and every vantage exporter for periodic
  /// drain/aging. Vantages deployed later are registered too. No sink is
  /// added: the caller adds the scheduler's sinks, and each sees every
  /// batch. The scheduler is borrowed: both it and the FleetCollector must
  /// outlive the scheduler's last advance_to. Drive with
  /// scheduler.advance_to(sim.now()) as the simulation runs (see
  /// FatTreeSim::run_until).
  void attach_scheduler(EpochScheduler& scheduler);

  /// Per-flow estimates merged across every vantage the classic way
  /// (unbounded FlowStatsMap union) — the ground truth the collector's
  /// sketched answers are validated against.
  [[nodiscard]] rli::FlowStatsMap unsharded_estimates() const;

 private:
  struct Vantage {
    topo::NodeId node;
    std::unique_ptr<rlir::RlirReceiver> receiver;
    std::unique_ptr<EstimateExporter> exporter;
  };

  FleetConfig config_;
  const timebase::Clock* clock_;
  std::vector<Vantage> vantages_;
  /// Set by attach_scheduler; deploy() registers later exporters with it.
  EpochScheduler* scheduler_ = nullptr;
};

}  // namespace rlir::collect
