// Post-incident dump: when something already went wrong, capture the
// evidence before it scrolls out of the rings.
//
// A FlightRecorder borrows a process's SpanRecorder and EventTrace and, on
// trigger (SloWatcher violation, conservation counter gone negative, an
// operator signal), renders one self-contained JSON document: the trigger
// reason, the event ring (obs::append_json_events, as in to_json), and the
// span ring as an embedded Chrome trace.
// Where it goes is the caller's business — a sink callback writes it to a
// file, stderr, or a test's capture buffer.
//
// Triggers are rate-limited (kMinIntervalNs): a watcher that fires every
// evaluation tick during a sustained breach produces one dump per window,
// not one per tick.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "obs/event_trace.h"
#include "obs/span.h"

namespace rlir::obs {

class FlightRecorder {
 public:
  /// Receives (reason, dump JSON) for each accepted trigger.
  using Sink = std::function<void(const std::string& reason, const std::string& json)>;

  /// 5 s between accepted triggers; repeats inside the window are counted
  /// but produce no dump.
  static constexpr std::int64_t kMinIntervalNs = 5'000'000'000;

  /// Either source may be null — the dump just omits that section.
  FlightRecorder(const SpanRecorder* spans, const EventTrace* events, Sink sink);
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Dumps now unless inside the rate-limit window. Returns true when a
  /// dump was produced. Thread-safe.
  bool trigger(const std::string& reason);

  /// Renders the dump JSON without the rate limit or the sink — what
  /// trigger() would emit. Thread-safe.
  [[nodiscard]] std::string dump(const std::string& reason) const;

  /// Triggers accepted (dumps produced).
  [[nodiscard]] std::uint64_t dumps() const;
  /// Triggers swallowed by the rate limit.
  [[nodiscard]] std::uint64_t suppressed() const;

 private:
  const SpanRecorder* spans_;
  const EventTrace* events_;
  Sink sink_;

  mutable std::mutex mu_;
  std::int64_t last_dump_ns_ = 0;
  std::uint64_t dumps_ = 0;
  std::uint64_t suppressed_ = 0;
};

}  // namespace rlir::obs
