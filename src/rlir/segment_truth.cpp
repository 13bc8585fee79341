#include "rlir/segment_truth.h"

namespace rlir::rlir {

void SegmentTruth::EntryTap::on_packet(const net::Packet& packet,
                                       timebase::TimePoint arrival) {
  if (packet.kind != net::PacketKind::kRegular) return;
  owner_->entries_[packet.seq] = arrival;
}

void SegmentTruth::ExitTap::on_packet(const net::Packet& packet,
                                      timebase::TimePoint arrival) {
  if (packet.kind != net::PacketKind::kRegular) return;
  const auto it = owner_->entries_.find(packet.seq);
  if (it == owner_->entries_.end()) {
    ++owner_->unmatched_exits_;
    return;
  }
  const timebase::Duration delay = arrival - it->second;
  owner_->entries_.erase(it);
  owner_->per_flow_[packet.key].add(static_cast<double>(delay.ns()));
  ++owner_->matched_;
}

}  // namespace rlir::rlir
