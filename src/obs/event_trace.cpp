#include "obs/event_trace.h"

#include <chrono>

namespace rlir::obs {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kConnect: return "connect";
    case EventKind::kDisconnect: return "disconnect";
    case EventKind::kReconnect: return "reconnect";
    case EventKind::kShed: return "shed";
    case EventKind::kCrcPoison: return "crc_poison";
    case EventKind::kRebalance: return "rebalance";
    case EventKind::kFailBack: return "fail_back";
    case EventKind::kEpochFlush: return "epoch_flush";
    case EventKind::kSloViolation: return "slo_violation";
    case EventKind::kSlowSpan: return "slow_span";
  }
  return "?";
}

void EventTrace::record(EventKind kind, std::uint64_t value, std::string_view detail) {
  Event ev;
  ev.kind = kind;
  ev.ts_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 std::chrono::system_clock::now().time_since_epoch())
                 .count();
  ev.value = value;
  ev.detail.assign(detail.substr(0, kMaxDetail));

  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() == capacity_) {
    ring_.pop_front();
    dropped_ += 1;
  }
  ring_.push_back(std::move(ev));
}

EventTraceSnapshot EventTrace::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  EventTraceSnapshot snap;
  snap.events.assign(ring_.begin(), ring_.end());
  snap.dropped = dropped_;
  return snap;
}

}  // namespace rlir::obs
