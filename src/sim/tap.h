// Observation points along a simulated path.
//
// Measurement instances (RLI/RLIR receivers, baselines, ground-truth
// collectors) implement PacketTap and are attached at a point in the
// pipeline; the simulator calls them for every packet passing that point, in
// arrival-time order.
#pragma once

#include <vector>

#include "common/latency_sketch.h"
#include "net/packet.h"
#include "timebase/time.h"

namespace rlir::sim {

class PacketTap {
 public:
  virtual ~PacketTap() = default;

  /// Called once per packet crossing the tap point. `packet.ts` equals
  /// `arrival`. Implementations must not assume they see dropped packets —
  /// taps observe only what actually arrives.
  virtual void on_packet(const net::Packet& packet, timebase::TimePoint arrival) = 0;
};

/// Fans one tap point out to several observers (e.g. the RLI receiver plus a
/// ground-truth collector at the same interface).
class TapFanout final : public PacketTap {
 public:
  void add(PacketTap* tap) { taps_.push_back(tap); }

  void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override {
    for (PacketTap* t : taps_) t->on_packet(packet, arrival);
  }

 private:
  std::vector<PacketTap*> taps_;  // non-owning; wiring owns the instances
};

/// Evaluation-side tap: folds the *true* delay (Packet::true_delay(), which
/// the measurement stack never reads) of regular packets crossing the tap
/// into a bounded latency sketch. The cheap ground-truth distribution the
/// collection tier's sketched answers are compared against.
class DelaySketchTap final : public PacketTap {
 public:
  DelaySketchTap() = default;

  void on_packet(const net::Packet& packet, timebase::TimePoint) override {
    if (packet.kind != net::PacketKind::kRegular) return;
    sketch_.add(static_cast<double>(packet.true_delay().ns()));
  }

  [[nodiscard]] const common::LatencySketch& sketch() const { return sketch_; }

 private:
  common::LatencySketch sketch_;
};

/// Records every observed packet; handy in tests.
class RecordingTap final : public PacketTap {
 public:
  void on_packet(const net::Packet& packet, timebase::TimePoint) override {
    packets_.push_back(packet);
  }

  [[nodiscard]] const std::vector<net::Packet>& packets() const { return packets_; }

 private:
  std::vector<net::Packet> packets_;
};

}  // namespace rlir::sim
