// Ground-truth per-flow delay over an arbitrary path segment.
//
// The evaluation needs the *true* delay between two instrumented switches
// (e.g. T1 -> C1, then C1 -> T7) to score RLIR's estimates. A SegmentTruth
// installs an entry tap at the upstream node (recording each packet's
// arrival by sequence number) and an exit tap at the downstream node
// (computing arrival-difference delays and accumulating per-flow stats).
// Packets that never reach the exit (ECMP'd elsewhere, dropped, or destined
// to the entry node itself) simply stay unmatched — exactly mirroring what a
// physical probe pair would see.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/packet.h"
#include "rli/flow_stats.h"
#include "sim/tap.h"
#include "timebase/time.h"

namespace rlir::rlir {

/// Times regular packets only, the traffic the receiver estimates.
class SegmentTruth {
 public:
  /// Tap to install at the segment's upstream node.
  [[nodiscard]] sim::PacketTap& entry_tap() { return entry_; }
  /// Tap to install at the segment's downstream node.
  [[nodiscard]] sim::PacketTap& exit_tap() { return exit_; }

  /// True per-flow delay over the segment (exit arrival - entry arrival).
  [[nodiscard]] const rli::FlowStatsMap& per_flow() const { return per_flow_; }

  [[nodiscard]] std::uint64_t matched_packets() const { return matched_; }
  /// Packets seen at the exit without a recorded entry (e.g. tap installed
  /// mid-run); these are not counted.
  [[nodiscard]] std::uint64_t unmatched_exits() const { return unmatched_exits_; }
  /// Entries never matched (packet took another path or was dropped).
  [[nodiscard]] std::uint64_t pending_entries() const { return entries_.size(); }

 private:
  class EntryTap final : public sim::PacketTap {
   public:
    explicit EntryTap(SegmentTruth* owner) : owner_(owner) {}
    void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override;

   private:
    SegmentTruth* owner_;
  };
  class ExitTap final : public sim::PacketTap {
   public:
    explicit ExitTap(SegmentTruth* owner) : owner_(owner) {}
    void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override;

   private:
    SegmentTruth* owner_;
  };

  EntryTap entry_{this};
  ExitTap exit_{this};
  std::unordered_map<std::uint64_t, timebase::TimePoint> entries_;
  rli::FlowStatsMap per_flow_;
  std::uint64_t matched_ = 0;
  std::uint64_t unmatched_exits_ = 0;
};

}  // namespace rlir::rlir
