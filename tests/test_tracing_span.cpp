// SpanRecorder: the per-process span ring under the conditions that matter —
// concurrent recorders hammering one ring (bounded memory, exact total/drop
// accounting, no lost ids; the TSan target), the SpanTimer RAII contract
// (null recorder = free no-op), the stage-histogram/slow-log bridges into
// the metrics registry and event trace, and the trace filter.
#include "obs/span.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {
namespace {

Span make_span(SpanKind kind, std::uint64_t trace_id, std::int64_t start_ns,
               std::int64_t end_ns, std::string label = {}) {
  Span span;
  span.trace_id = trace_id;
  span.kind = kind;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.label = std::move(label);
  return span;
}

TEST(SpanRecorderTest, RingBoundedUnderConcurrentHammer) {
  constexpr std::size_t kCapacity = 256;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 2000;
  SpanRecorder recorder(kCapacity);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        recorder.record(make_span(SpanKind::kAgentIngest, t + 1,
                                  static_cast<std::int64_t>(i),
                                  static_cast<std::int64_t>(i + 10)));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const auto snap = recorder.snapshot();
  EXPECT_EQ(snap.spans.size(), kCapacity);
  EXPECT_EQ(snap.total, kThreads * kPerThread);
  EXPECT_EQ(snap.dropped, kThreads * kPerThread - kCapacity);
  for (const auto& span : snap.spans) EXPECT_NE(span.span_id, 0u);
}

TEST(SpanRecorderTest, AssignedIdsAreUniqueAndNonzero) {
  SpanRecorder recorder(2048);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 1000; ++i) {
    ids.insert(recorder.record(make_span(SpanKind::kClientQuery, 1, 0, 1)));
  }
  EXPECT_EQ(ids.size(), 1000u);
  EXPECT_EQ(ids.count(0), 0u);
  EXPECT_NE(recorder.new_trace_id(), 0u);
  EXPECT_NE(recorder.next_span_id(), 0u);
}

TEST(SpanRecorderTest, CallerSuppliedIdIsKept) {
  SpanRecorder recorder;
  Span span = make_span(SpanKind::kCoordLeg, 7, 0, 5);
  span.span_id = 42;
  EXPECT_EQ(recorder.record(span), 42u);
  EXPECT_EQ(recorder.snapshot().spans.back().span_id, 42u);
}

TEST(SpanRecorderTest, LabelTruncatedToMax) {
  SpanRecorder recorder;
  recorder.record(make_span(SpanKind::kEpochSeal, 0, 0, 1,
                            std::string(SpanRecorder::kMaxLabel + 50, 'x')));
  EXPECT_EQ(recorder.snapshot().spans.back().label.size(), SpanRecorder::kMaxLabel);
}

TEST(SpanRecorderTest, ForTraceFiltersAndPreservesOrder) {
  SpanRecorder recorder;
  recorder.record(make_span(SpanKind::kClientFlush, 5, 10, 20));
  recorder.record(make_span(SpanKind::kAgentDecode, 9, 30, 40));
  recorder.record(make_span(SpanKind::kAgentIngest, 5, 50, 60));

  const auto snap = recorder.snapshot(5);
  ASSERT_EQ(snap.spans.size(), 2u);
  EXPECT_EQ(snap.spans[0].kind, SpanKind::kClientFlush);
  EXPECT_EQ(snap.spans[1].kind, SpanKind::kAgentIngest);
  // The ring counters cover the whole ring, filtered or not.
  EXPECT_EQ(snap.total, 3u);
  EXPECT_TRUE(recorder.snapshot(1234).spans.empty());
  EXPECT_EQ(recorder.snapshot().spans.size(), 3u);
}

TEST(SpanRecorderTest, BindMetricsFeedsStageHistograms) {
  SpanRecorder recorder;
  MetricsRegistry registry;
  recorder.bind_metrics(&registry, {});
  // Later binds are no-ops: one owner's identity, no duplicate registration.
  MetricsRegistry other;
  recorder.bind_metrics(&other, {{"id", "x"}});

  recorder.record(make_span(SpanKind::kAgentDecode, 0, 0, 500));
  recorder.record(make_span(SpanKind::kAgentDecode, 0, 0, 700));
  recorder.record(make_span(SpanKind::kCoordMerge, 1, 0, 900));

  const auto snap = registry.snapshot();
  std::uint64_t decode_count = 0;
  std::uint64_t merge_count = 0;
  for (const auto& sample : snap.samples) {
    if (sample.name != "rlir_stage_ns") continue;
    ASSERT_EQ(sample.labels.size(), 1u);
    if (sample.labels[0].second == "decode") decode_count = sample.histogram.count();
    if (sample.labels[0].second == "merge") merge_count = sample.histogram.count();
  }
  EXPECT_EQ(decode_count, 2u);
  EXPECT_EQ(merge_count, 1u);
  EXPECT_EQ(other.snapshot().samples.size(), 0u);
}

TEST(SpanRecorderTest, SlowLogPromotesOverThresholdSpans) {
  SpanRecorder recorder;
  MetricsRegistry registry;
  EventTrace trace;
  recorder.bind_metrics(&registry, {});
  recorder.set_slow_log(1000, &trace);

  recorder.record(make_span(SpanKind::kAgentAnswer, 3, 0, 999, "fleet"));   // fast
  recorder.record(make_span(SpanKind::kAgentAnswer, 3, 0, 2500, "fleet"));  // slow

  const auto events = trace.snapshot();
  ASSERT_EQ(events.events.size(), 1u);
  EXPECT_EQ(events.events.back().kind, EventKind::kSlowSpan);
  EXPECT_EQ(events.events.back().value, 2500u);
  EXPECT_EQ(events.events.back().detail, "answer fleet");
  EXPECT_EQ(registry.counter("rlir_slow_queries_total", {})->value(), 1u);
}

TEST(SpanTimerTest, NullRecorderIsANoOp) {
  SpanTimer timer(nullptr, SpanKind::kClientQuery);
  EXPECT_FALSE(timer.active());
  EXPECT_FALSE(timer.context().valid());
  timer.set_label("ignored");
  timer.finish();  // must not crash
}

TEST(SpanTimerTest, RecordsOnceWithParentContext) {
  SpanRecorder recorder;
  const TraceContext parent{77, 88};
  {
    SpanTimer timer(&recorder, SpanKind::kHistoryWindow, parent, "fleet");
    EXPECT_TRUE(timer.active());
    EXPECT_EQ(timer.context().trace_id, 77u);
    EXPECT_NE(timer.context().span_id, 0u);
    timer.finish();
    timer.finish();  // idempotent; the destructor is a third no-op
  }
  const auto snap = recorder.snapshot();
  ASSERT_EQ(snap.spans.size(), 1u);
  const auto& span = snap.spans[0];
  EXPECT_EQ(span.trace_id, 77u);
  EXPECT_EQ(span.parent_id, 88u);
  EXPECT_EQ(span.kind, SpanKind::kHistoryWindow);
  EXPECT_EQ(span.label, "fleet");
  EXPECT_GE(span.end_ns, span.start_ns);
}

TEST(SpanKindTest, NamesAndStagesCoverEveryKind) {
  for (std::size_t i = 1; i <= kSpanKindCount; ++i) {
    const auto kind = static_cast<SpanKind>(i);
    EXPECT_STRNE(span_kind_name(kind), "?");
    EXPECT_STRNE(span_kind_stage(kind), "?");
  }
}

}  // namespace
}  // namespace rlir::obs
