// Set-up: the network the system under test measures. FatTreeSim runs the
// workload's seeded synthetic traffic with RLIR sender agents at the source
// ToRs and the cores, and every packet reaching a vantage point (the 4 cores
// and the 4 destination ToRs) is recorded for replay. SegmentTruth taps on
// the same segments give the ground truth the estimates are scored against.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/flow_key.h"
#include "net/packet.h"
#include "rli/flow_stats.h"
#include "rlir/demux.h"
#include "timebase/clock.h"
#include "topo/ecmp.h"
#include "topo/fattree.h"
#include "workload.h"

namespace perfbench {

/// One packet arrival at a vantage, as the simulator delivered it: the
/// fields an RLIR receiver reads, and nothing else.
struct Arrival {
  std::int64_t at_ns = 0;
  std::int64_t ref_stamp_ns = 0;
  rlir::net::FiveTuple key;
  rlir::net::SenderId sender = rlir::net::kNoSender;
  rlir::net::PacketKind kind = rlir::net::PacketKind::kRegular;
  std::uint8_t vantage = 0;
};

inline constexpr std::size_t kVantages = 8;

/// Everything set-up produces. Receivers built during replay borrow the
/// clock and the demuxes, so a Recording outlives every replay of it.
struct Recording {
  rlir::topo::FatTree topo{4};
  rlir::topo::Crc32EcmpHasher hasher;
  rlir::timebase::PerfectClock clock;
  rlir::rlir::PrefixDemux up_demux;
  std::vector<std::unique_ptr<rlir::rlir::ReverseEcmpDemux>> down_demuxes;
  /// Vantage v's demux: cores are vantages 0..3, destination ToRs 4..7.
  std::vector<const rlir::rlir::Demultiplexer*> demux;
  /// Every vantage arrival, in simulator (time) order.
  std::vector<Arrival> arrivals;
  std::uint64_t regular_arrivals = 0;
  /// True per-flow delay over the ToR->core and core->ToR segments.
  rlir::rli::FlowStatsMap truth;
  /// Distinct regular flows, sorted (seeded query targets).
  std::vector<rlir::net::FiveTuple> flows;
  std::uint64_t packets = 0;
  double sim_s = 0.0;
};

/// Runs the simulation. `span_scale` shrinks the traffic span (smoke runs).
[[nodiscard]] std::unique_ptr<Recording> record(const Workload& w, std::uint64_t seed,
                                                double span_scale);

}  // namespace perfbench
