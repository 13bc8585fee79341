#include "obs/flight_recorder.h"

#include <utility>

#include "obs/exposition.h"

namespace rlir::obs {

FlightRecorder::FlightRecorder(const SpanRecorder* spans, const EventTrace* events, Sink sink)
    : spans_(spans), events_(events), sink_(std::move(sink)) {}

std::string FlightRecorder::dump(const std::string& reason) const {
  std::string out = "{\"reason\":";
  append_json_string(out, reason);
  out += ",\"ts_ns\":";
  out += std::to_string(SpanRecorder::now_ns());

  if (events_ != nullptr) {
    out += ',';
    append_json_events(out, events_->snapshot());
  }

  if (spans_ != nullptr) {
    const SpanRecorderSnapshot snap = spans_->snapshot();
    out += ",\"spans\":{\"dropped\":";
    out += std::to_string(snap.dropped);
    out += ",\"total\":";
    out += std::to_string(snap.total);
    out += ",\"chrome_trace\":";
    out += to_chrome_trace(snap.spans, "flight");
    // to_chrome_trace ends with a newline; keep the document compact.
    out.pop_back();
    out += '}';
  }

  out += "}\n";
  return out;
}

bool FlightRecorder::trigger(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const std::int64_t now = SpanRecorder::now_ns();
    if (last_dump_ns_ != 0 && now - last_dump_ns_ < kMinIntervalNs) {
      suppressed_ += 1;
      return false;
    }
    last_dump_ns_ = now;
    dumps_ += 1;
  }
  // Render and deliver outside mu_: the sink may be slow (file write), and
  // dump() only touches the sources' own locks.
  if (sink_) sink_(reason, dump(reason));
  return true;
}

std::uint64_t FlightRecorder::dumps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dumps_;
}

std::uint64_t FlightRecorder::suppressed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return suppressed_;
}

}  // namespace rlir::obs
