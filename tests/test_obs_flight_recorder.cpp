// FlightRecorder: the post-incident dump and its rate limit.
//
//   * The dump carries the trigger reason (JSON-escaped), the event ring as
//     obs::append_json_events renders it, and the span ring as the Chrome
//     trace obs::to_chrome_trace renders; a null source leaves its section
//     out.
//   * A trigger inside kMinIntervalNs of the last dump is suppressed and
//     counted, and concurrent triggers produce exactly one dump (the class
//     is documented thread-safe; the TSan job runs this file).
#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "obs/exposition.h"

namespace rlir::obs {
namespace {

Span make_span(SpanKind kind, std::uint64_t trace_id, std::string label) {
  Span span;
  span.trace_id = trace_id;
  span.kind = kind;
  span.start_ns = 1'000;
  span.end_ns = 4'000;
  span.label = std::move(label);
  return span;
}

TEST(FlightRecorderTest, DumpCarriesReasonEventRingAndSpanRing) {
  SpanRecorder spans;
  spans.record(make_span(SpanKind::kAgentIngest, 7, "40 records"));
  spans.record(make_span(SpanKind::kAgentAnswer, 7, "fleet \"slow\""));
  EventTrace events;
  events.record(EventKind::kSloViolation, 900'000, "flow a\tb");
  events.record(EventKind::kDisconnect, 1, "agent1");

  std::vector<std::string> dumps;
  FlightRecorder recorder(&spans, &events,
                          [&dumps](const std::string&, const std::string& json) {
                            dumps.push_back(json);
                          });
  ASSERT_TRUE(recorder.trigger("slo:\"p99\"\nbreach"));
  ASSERT_EQ(dumps.size(), 1u);
  const std::string& dump = dumps[0];

  EXPECT_EQ(dump.rfind("{\"reason\":\"slo:\\\"p99\\\"\\nbreach\",\"ts_ns\":", 0), 0u) << dump;
  std::string ring;
  append_json_events(ring, events.snapshot());
  EXPECT_NE(dump.find("," + ring + ","), std::string::npos) << dump;
  std::string chrome = to_chrome_trace(spans.snapshot().spans, "flight");
  chrome.pop_back();  // the dump drops the document's trailing newline
  EXPECT_NE(dump.find("\"spans\":{\"dropped\":0,\"total\":2,\"chrome_trace\":" + chrome + "}"),
            std::string::npos)
      << dump;
  EXPECT_EQ(dump.substr(dump.size() - 3), "}}\n");
}

TEST(FlightRecorderTest, NullSourcesLeaveTheirSectionsOut) {
  SpanRecorder spans;
  EventTrace events;
  events.record(EventKind::kConnect, 1);

  const std::string no_spans = FlightRecorder(nullptr, &events, {}).dump("r");
  EXPECT_NE(no_spans.find("\"events\":{"), std::string::npos) << no_spans;
  EXPECT_EQ(no_spans.find("\"spans\""), std::string::npos) << no_spans;

  const std::string no_events = FlightRecorder(&spans, nullptr, {}).dump("r");
  EXPECT_EQ(no_events.find("\"events\""), std::string::npos) << no_events;
  EXPECT_NE(no_events.find("\"spans\":{"), std::string::npos) << no_events;

  const std::string bare = FlightRecorder(nullptr, nullptr, {}).dump("r");
  EXPECT_EQ(bare.rfind("{\"reason\":\"r\",\"ts_ns\":", 0), 0u) << bare;
  EXPECT_EQ(bare.find("\"events\""), std::string::npos) << bare;
  EXPECT_EQ(bare.find("\"spans\""), std::string::npos) << bare;
  EXPECT_EQ(bare.back(), '\n');
}

TEST(FlightRecorderTest, SecondTriggerInsideTheIntervalIsSuppressed) {
  int sink_calls = 0;
  FlightRecorder recorder(nullptr, nullptr,
                          [&sink_calls](const std::string&, const std::string&) {
                            ++sink_calls;
                          });
  EXPECT_TRUE(recorder.trigger("first"));
  EXPECT_FALSE(recorder.trigger("second"));  // well inside 5 s
  EXPECT_EQ(sink_calls, 1);
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.suppressed(), 1u);
}

TEST(FlightRecorderTest, ConcurrentTriggersProduceOneDump) {
  SpanRecorder spans;
  EventTrace events;
  std::atomic<int> sink_calls{0};
  FlightRecorder recorder(&spans, &events,
                          [&sink_calls](const std::string&, const std::string&) {
                            sink_calls.fetch_add(1);
                          });
  constexpr int kThreads = 4;
  constexpr int kTriggers = 10;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, &spans, &events, t] {
      for (int i = 0; i < kTriggers; ++i) {
        // Sources keep changing under the dump, as in a live daemon.
        spans.record(make_span(SpanKind::kAgentDecode, 1, "t" + std::to_string(t)));
        events.record(EventKind::kSlowSpan, static_cast<std::uint64_t>(i));
        (void)recorder.trigger("thread " + std::to_string(t));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(sink_calls.load(), 1);
  EXPECT_EQ(recorder.dumps(), 1u);
  EXPECT_EQ(recorder.suppressed(), static_cast<std::uint64_t>(kThreads * kTriggers - 1));
}

}  // namespace
}  // namespace rlir::obs
