#include "rlir/receiver.h"

#include <algorithm>
#include <stdexcept>

namespace rlir::rlir {

namespace {

/// First stream whose sender is not below `sender` (end() if none).
template <typename Streams>
auto lower_stream(Streams& streams, net::SenderId sender) {
  return std::find_if(streams.begin(), streams.end(),
                      [sender](const auto& stream) { return stream.first >= sender; });
}

}  // namespace

RlirReceiver::RlirReceiver(rli::ReceiverConfig per_sender_config, const timebase::Clock* clock,
                           const Demultiplexer* demux)
    : per_sender_config_(per_sender_config), clock_(clock), demux_(demux) {
  if (clock_ == nullptr || demux_ == nullptr) {
    throw std::invalid_argument("RlirReceiver: clock and demux must not be null");
  }
}

rli::RliReceiver& RlirReceiver::stream_for(net::SenderId sender) {
  const auto it = lower_stream(streams_, sender);
  if (it != streams_.end() && it->first == sender) return *it->second;
  auto receiver = std::make_unique<rli::RliReceiver>(per_sender_config_, clock_);
  for (const auto& sink : sinks_) {
    receiver->add_estimate_sink(
        [sender, &sink](const rli::RliReceiver::PacketEstimate& pe) { sink(sender, pe); });
  }
  return *streams_.emplace(it, sender, std::move(receiver))->second;
}

void RlirReceiver::add_estimate_sink(StreamEstimateSink sink) {
  if (!sink) return;
  sinks_.push_back(std::move(sink));
  const StreamEstimateSink& stored = sinks_.back();
  for (auto& [sender, receiver] : streams_) {
    const net::SenderId sid = sender;
    receiver->add_estimate_sink(
        [sid, &stored](const rli::RliReceiver::PacketEstimate& pe) { stored(sid, pe); });
  }
}

void RlirReceiver::on_packet(const net::Packet& packet, timebase::TimePoint arrival) {
  if (packet.is_reference()) {
    // "The RLI receiver can identify reference packets' origin easily via an
    // RLI sender ID."
    stream_for(packet.sender).on_packet(packet, arrival);
    return;
  }
  if (packet.kind != net::PacketKind::kRegular) return;

  const auto sender = demux_->classify(packet);
  if (!sender) {
    ++unclassified_;
    return;
  }
  ++classified_;
  stream_for(*sender).on_packet(packet, arrival);
}

std::size_t RlirReceiver::flush() {
  std::size_t flushed = 0;
  for (auto& [sender, receiver] : streams_) {
    (void)sender;
    flushed += receiver->flush();
  }
  return flushed;
}

const rli::RliReceiver* RlirReceiver::stream(net::SenderId sender) const {
  const auto it = lower_stream(streams_, sender);
  return it != streams_.end() && it->first == sender ? it->second.get() : nullptr;
}

rli::FlowStatsMap RlirReceiver::merged_estimates() const {
  rli::FlowStatsMap merged;
  std::size_t flows = 0;
  for (const auto& [sender, receiver] : streams_) flows += receiver->per_flow().size();
  merged.reserve(flows);
  for (const auto& [sender, receiver] : streams_) {
    for (const auto& [key, stats] : receiver->per_flow()) {
      merged[key].merge(stats);
    }
  }
  return merged;
}

}  // namespace rlir::rlir
