#include "rli/receiver.h"

#include <stdexcept>

namespace rlir::rli {

RliReceiver::RliReceiver(ReceiverConfig config, const timebase::Clock* clock,
                         net::SenderId sender)
    : config_(config), clock_(clock), sender_(sender) {
  if (clock_ == nullptr) throw std::invalid_argument("RliReceiver: clock must not be null");
}

void RliReceiver::on_packet(const net::Packet& packet, timebase::TimePoint arrival) {
  if (packet.is_reference()) {
    handle_reference(packet, arrival);
    return;
  }
  if (packet.kind != net::PacketKind::kRegular) return;
  if (!left_) {
    // No preceding reference: this packet can never be interpolated.
    ++unanchored_;
    return;
  }
  buffer_.push_back(Pending{arrival, packet.key});
}

void RliReceiver::handle_reference(const net::Packet& packet, timebase::TimePoint arrival) {
  ++refs_seen_;
  // True one-way delay of the probe, as the receiver can actually compute it:
  // local arrival reading minus the timestamp carried in the packet.
  const double delay_ns =
      static_cast<double>((clock_->now(arrival) - packet.ref_stamp).ns());
  const Anchor right{arrival, delay_ns};

  if (left_) {
    const timebase::Duration interval = right.arrival - left_->arrival;
    if (config_.max_interval > timebase::Duration::zero() && interval > config_.max_interval) {
      skipped_ += buffer_.size();
      buffer_.clear();
    } else {
      estimate_buffered(*left_, right);
    }
  }
  left_ = right;
  buffer_.clear();
}

double RliReceiver::estimate_one(const Pending& p, const Anchor& left,
                                 const Anchor& right) const {
  switch (config_.estimator) {
    case EstimatorKind::kLeft:
      return left.delay_ns;
    case EstimatorKind::kRight:
      return right.delay_ns;
    case EstimatorKind::kNearest:
      return (p.arrival - left.arrival <= right.arrival - p.arrival) ? left.delay_ns
                                                                     : right.delay_ns;
    case EstimatorKind::kLinear:
      break;
  }
  const double span = static_cast<double>((right.arrival - left.arrival).ns());
  if (span <= 0.0) return right.delay_ns;  // coincident references
  const double x = static_cast<double>((p.arrival - left.arrival).ns()) / span;
  return left.delay_ns + x * (right.delay_ns - left.delay_ns);
}

std::size_t RliReceiver::flush() {
  // Buffered packets exist only after a left anchor (on_packet invariant),
  // so every one of them has a usable — if uninterpolated — estimate.
  const std::size_t n = buffer_.size();
  for (const Pending& p : buffer_) {
    const double est = left_->delay_ns;
    per_flow_[p.key].add(est);
    ++estimated_;
    ++flushed_;
    if (!sinks_.empty()) {
      const PacketEstimate pe{p.key, p.arrival, est};
      for (const auto& sink : sinks_) sink(sender_, pe);
    }
  }
  buffer_.clear();
  return n;
}

void RliReceiver::estimate_buffered(const Anchor& left, const Anchor& right) {
  for (const Pending& p : buffer_) {
    const double est = estimate_one(p, left, right);
    per_flow_[p.key].add(est);
    ++estimated_;
    if (!sinks_.empty()) {
      const PacketEstimate pe{p.key, p.arrival, est};
      for (const auto& sink : sinks_) sink(sender_, pe);
    }
  }
}

}  // namespace rlir::rli
