// EventTrace: bounded ring semantics (most-recent kept, dropped counted)
// and per-kind names.
#include "obs/event_trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

namespace rlir::obs {
namespace {

TEST(EventTrace, RecordsInOrderWithCounts) {
  EventTrace trace(8);
  trace.record(EventKind::kConnect, 1, "ep0");
  trace.record(EventKind::kShed, 42, "lane3");
  trace.record(EventKind::kConnect, 2);
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.events.size(), 3u);
  EXPECT_EQ(snap.events[0].kind, EventKind::kConnect);
  EXPECT_EQ(snap.events[1].kind, EventKind::kShed);
  EXPECT_EQ(snap.events[1].value, 42u);
  EXPECT_EQ(snap.events[1].detail, "lane3");
  const auto in_ring = [&snap](EventKind kind) {
    return std::count_if(snap.events.begin(), snap.events.end(),
                         [kind](const Event& ev) { return ev.kind == kind; });
  };
  EXPECT_EQ(in_ring(EventKind::kConnect), 2);
  EXPECT_EQ(in_ring(EventKind::kShed), 1);
  EXPECT_EQ(in_ring(EventKind::kRebalance), 0);
  EXPECT_EQ(snap.dropped, 0u);
  EXPECT_GT(snap.events[0].ts_ns, 0);
}

TEST(EventTrace, RingEvictsOldestAndCountsDrops) {
  EventTrace trace(4);
  for (std::uint64_t i = 0; i < 10; ++i) trace.record(EventKind::kEpochFlush, i);
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.events.size(), 4u);
  // Most recent survive: values 6..9.
  EXPECT_EQ(snap.events.front().value, 6u);
  EXPECT_EQ(snap.events.back().value, 9u);
  EXPECT_EQ(snap.dropped, 6u);
  // Ring plus drops account for every event ever recorded.
  EXPECT_EQ(snap.events.size() + snap.dropped, 10u);
}

TEST(EventTrace, DetailTruncatedToCap) {
  EventTrace trace;
  trace.record(EventKind::kSlowSpan, 0, std::string(500, 'x'));
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].detail.size(), EventTrace::kMaxDetail);
}

TEST(EventTrace, ZeroCapacityClampsToOne) {
  EventTrace trace(0);
  EXPECT_EQ(trace.capacity(), 1u);
  trace.record(EventKind::kConnect);
  trace.record(EventKind::kDisconnect);
  const auto snap = trace.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].kind, EventKind::kDisconnect);
}

TEST(EventKindNames, AllKindsNamed) {
  for (std::size_t i = 1; i <= kEventKindCount; ++i) {
    const char* name = event_kind_name(static_cast<EventKind>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_GT(std::string(name).size(), 0u);
  }
}

}  // namespace
}  // namespace rlir::obs
