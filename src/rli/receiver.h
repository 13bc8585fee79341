// RLI receiver: turns reference-packet delays into per-packet (and then
// per-flow) latency estimates by linear interpolation (paper Section 2).
//
// Operation: regular packets arriving after a reference packet are buffered
// (the "interpolation buffer" of Figure 2). When the next reference packet
// arrives, its true delay is computed from the carried timestamp and the
// receiver's clock; every buffered packet's delay is then estimated by
// linearly interpolating between the two reference delays at its own arrival
// instant. Estimates accumulate per flow key.
//
// Estimator variants beyond RLI's linear interpolation are provided for the
// ablation bench (left/right anchor only, nearest anchor).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "rli/flow_stats.h"
#include "sim/tap.h"
#include "timebase/clock.h"
#include "timebase/time.h"

namespace rlir::rli {

enum class EstimatorKind : std::uint8_t {
  kLinear,   ///< RLI: interpolate between surrounding reference delays
  kLeft,     ///< use the preceding reference delay only
  kRight,    ///< use the following reference delay only
  kNearest,  ///< use whichever reference arrival is closer in time
};

[[nodiscard]] constexpr const char* to_string(EstimatorKind k) {
  switch (k) {
    case EstimatorKind::kLinear: return "linear";
    case EstimatorKind::kLeft: return "left";
    case EstimatorKind::kRight: return "right";
    case EstimatorKind::kNearest: return "nearest";
  }
  return "?";
}

struct ReceiverConfig {
  EstimatorKind estimator = EstimatorKind::kLinear;
  /// Drop interpolation intervals longer than this (a lost reference packet
  /// stretches the interval; delays decorrelate over long spans). Zero
  /// disables the guard.
  timebase::Duration max_interval = timebase::Duration::zero();
};

class RliReceiver final : public sim::PacketTap {
 public:
  /// `clock` is the receiver's local clock (borrowed; must outlive the
  /// receiver). Reference delay = clock->now(arrival) - packet.ref_stamp, so
  /// clock sync error propagates into estimates exactly as in hardware.
  /// `sender` names the RLI sender whose references anchor this stream (an
  /// RlirReceiver passes each stream's); every sink is handed it.
  RliReceiver(ReceiverConfig config, const timebase::Clock* clock,
              net::SenderId sender = net::kNoSender);

  /// Reference packets anchor the interpolation; of the rest, only regular
  /// traffic is estimated (the paper's receiver "only produces per-flow
  /// latency estimates of regular traffic").
  void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override;

  /// Epoch-boundary flush: estimates every packet still waiting in the
  /// interpolation buffer using the left anchor alone (the closing reference
  /// hasn't arrived yet) and empties the buffer, so an epoch's export ships
  /// every estimate the receiver can produce. The anchor is kept — later
  /// packets interpolate normally. Returns the number of packets flushed.
  std::size_t flush();

  /// Per-flow accumulated latency estimates, one entry per flow ever
  /// estimated, in the order each flow was first estimated (FlowStatsMap is
  /// flat). Each flow's statistics fold its estimates in the order the sinks
  /// saw them. The next estimate may invalidate references into it.
  [[nodiscard]] const FlowStatsMap& per_flow() const { return per_flow_; }

  /// Per-packet estimate stream (optional hook for tests/ablation and for
  /// the collection tier's exporters).
  struct PacketEstimate {
    net::FiveTuple key;
    timebase::TimePoint arrival;
    double estimate_ns;
  };
  /// The one sink type of both receivers: called with the stream's sender
  /// and the estimate. An RlirReceiver copies each sink into every stream,
  /// so a sink that shares state across streams captures it by reference.
  using EstimateSink = std::function<void(net::SenderId, const PacketEstimate&)>;
  /// Registers a sink, the one way to subscribe; every estimate is delivered
  /// to each sink in registration order (an ablation probe and a collector
  /// exporter can observe the same stream). Sinks are never removed.
  void add_estimate_sink(EstimateSink sink) {
    if (sink) sinks_.push_back(std::move(sink));
  }

  [[nodiscard]] std::uint64_t references_seen() const { return refs_seen_; }
  [[nodiscard]] std::uint64_t packets_estimated() const { return estimated_; }
  /// Packets that arrived before the first reference (never estimated).
  [[nodiscard]] std::uint64_t packets_unanchored() const { return unanchored_; }
  /// Packets discarded because the interpolation interval exceeded the guard.
  [[nodiscard]] std::uint64_t packets_in_skipped_intervals() const { return skipped_; }
  /// Packets estimated by flush() (left-anchor only, no interpolation).
  [[nodiscard]] std::uint64_t packets_flushed() const { return flushed_; }

 private:
  struct Anchor {
    timebase::TimePoint arrival;
    double delay_ns;
  };
  struct Pending {
    timebase::TimePoint arrival;
    net::FiveTuple key;
  };

  void handle_reference(const net::Packet& packet, timebase::TimePoint arrival);
  void estimate_buffered(const Anchor& left, const Anchor& right);
  [[nodiscard]] double estimate_one(const Pending& p, const Anchor& left,
                                    const Anchor& right) const;

  ReceiverConfig config_;
  const timebase::Clock* clock_;
  net::SenderId sender_;
  std::optional<Anchor> left_;
  std::vector<Pending> buffer_;
  FlowStatsMap per_flow_;
  std::vector<EstimateSink> sinks_;

  std::uint64_t refs_seen_ = 0;
  std::uint64_t estimated_ = 0;
  std::uint64_t unanchored_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t flushed_ = 0;
};

}  // namespace rlir::rli
