// Bounded ring buffer of timestamped lifecycle/protocol events.
//
// Metrics answer "how much"; the trace answers "what happened, in what
// order" — the post-mortem companion. Components append one event per
// notable transition (connect, shed, CRC poison, rebalance, ...); the ring
// keeps the most recent `capacity` events and counts the ones it evicted,
// so a reader can tell "quiet" from "wrapped".
//
// The ring is not a counter. Each event an agent records is counted by its
// producer's registry counter, bumped at the same site (README,
// "Observability", maps every kind to its counter).
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rlir::obs {

/// Values are wire bytes (obs/wire.h); a decoded kind outside
/// [1, kEventKindCount] is rejected.
enum class EventKind : std::uint8_t {
  kConnect = 1,
  kDisconnect = 2,
  kReconnect = 3,
  kShed = 4,
  kCrcPoison = 5,
  kRebalance = 6,
  kFailBack = 7,
  kEpochFlush = 8,
  kSloViolation = 9,  ///< Windowed SLO breach detected by collect::SloWatcher.
  kSlowSpan = 10,     ///< Span over the slow-query threshold (obs::SpanRecorder).
};
inline constexpr std::size_t kEventKindCount = 10;

[[nodiscard]] const char* event_kind_name(EventKind kind);

struct Event {
  EventKind kind = EventKind::kConnect;
  /// Wall-clock nanoseconds since the Unix epoch at record time.
  std::int64_t ts_ns = 0;
  /// Kind-specific magnitude (records shed, slots moved, epoch id, ...).
  std::uint64_t value = 0;
  /// Free-form context ("ep2", "agent3 down"), truncated to kMaxDetail.
  std::string detail;
};

struct EventTraceSnapshot {
  /// Oldest first; at most the trace's capacity.
  std::vector<Event> events;
  /// Events evicted from the ring (total recorded - events.size()).
  std::uint64_t dropped = 0;
};

class EventTrace {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;
  static constexpr std::size_t kMaxDetail = 120;

  explicit EventTrace(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}
  EventTrace(const EventTrace&) = delete;
  EventTrace& operator=(const EventTrace&) = delete;

  /// Appends one event, stamping it with the wall clock. Thread-safe.
  void record(EventKind kind, std::uint64_t value = 0, std::string_view detail = {});

  [[nodiscard]] EventTraceSnapshot snapshot() const;

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::deque<Event> ring_;
  std::uint64_t dropped_ = 0;
};

}  // namespace rlir::obs
