// SloWatcher: windowed p99 thresholds over the history store, with RLIR
// localization of the violating link and obs surfacing. The scenarios plant
// one slow link among fast ones — the watcher must (a) flag exactly the
// flows whose windowed quantile breaches, (b) name the slow link anomalous,
// (c) report through counters and kSloViolation trace events, and (d) stay
// quiet when nothing breaches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/history.h"
#include "collect/slo_watcher.h"
#include "common/rng.h"
#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace rlir::collect {
namespace {

net::FiveTuple flow_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 2, 0, static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 2);
  key.src_port = static_cast<std::uint16_t>(5000 + i);
  key.dst_port = 80;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

/// Feeds `epochs` epochs where flow f rides link f % links; flows on
/// `slow_link` see latency around slow_ns, everyone else around fast_ns.
void feed(SketchHistoryStore& store, std::uint32_t epochs, std::uint32_t flows,
          LinkId links, LinkId slow_link, double fast_ns, double slow_ns) {
  common::Xoshiro256 rng(41);
  for (std::uint32_t epoch = 0; epoch < epochs; ++epoch) {
    for (std::uint32_t f = 0; f < flows; ++f) {
      EstimateRecord r;
      r.key = flow_key(f);
      r.link = static_cast<LinkId>(f % links);
      r.epoch = epoch;
      const double base = r.link == slow_link ? slow_ns : fast_ns;
      for (int s = 0; s < 12; ++s) r.sketch.add(base * rng.uniform(0.9, 1.1));
      store.ingest({r});
    }
  }
}

TEST(SloWatcherTest, BadConfigsThrow) {
  SketchHistoryStore store;
  SloWatcherConfig cfg;
  cfg.threshold_ns = 1e6;
  EXPECT_THROW(SloWatcher(cfg, nullptr), std::invalid_argument);
  cfg.threshold_ns = 0.0;
  EXPECT_THROW(SloWatcher(cfg, &store), std::invalid_argument);
  cfg.threshold_ns = 1e6;
  cfg.window_epochs = 0;
  EXPECT_THROW(SloWatcher(cfg, &store), std::invalid_argument);
  cfg = {};
  cfg.threshold_ns = 1e6;
  cfg.quantile = 1.5;
  EXPECT_THROW(SloWatcher(cfg, &store), std::invalid_argument);
}

TEST(SloWatcherTest, QuietWhenUnderThreshold) {
  SketchHistoryStore store;
  feed(store, 8, 8, 4, /*slow_link=*/99, 40e3, 40e3);  // nothing slow
  SloWatcherConfig cfg;
  cfg.threshold_ns = 1e6;  // far above the ~40us workload
  SloWatcher watcher(cfg, &store);
  EXPECT_TRUE(watcher.check(7).empty());
  EXPECT_EQ(watcher.violations(), 0u);
  EXPECT_EQ(watcher.checks(), 1u);
}

TEST(SloWatcherTest, FlagsBreachingFlowsAndLocalizesSlowLink) {
  obs::MetricsRegistry registry;
  obs::EventTrace trace;
  SketchHistoryStore store;
  constexpr std::uint32_t kFlows = 8;
  constexpr LinkId kLinks = 4;
  constexpr LinkId kSlow = 2;
  feed(store, 8, kFlows, kLinks, kSlow, 40e3, 900e3);

  SloWatcherConfig cfg;
  cfg.threshold_ns = 200e3;  // between the fast (~40us) and slow (~900us) tiers
  cfg.window_epochs = 8;
  cfg.instruments.registry = &registry;
  cfg.instruments.trace = &trace;
  SloWatcher watcher(cfg, &store);

  const auto violations = watcher.check(7);
  // Exactly the flows riding the slow link breach: f % kLinks == kSlow.
  std::vector<net::FiveTuple> want;
  for (std::uint32_t f = kSlow; f < kFlows; f += kLinks) want.push_back(flow_key(f));
  ASSERT_EQ(violations.size(), want.size());
  for (const auto& v : violations) {
    EXPECT_NE(std::find(want.begin(), want.end(), v.key), want.end())
        << v.key.to_string() << " breached unexpectedly";
    EXPECT_GT(v.value_ns, cfg.threshold_ns);
    EXPECT_DOUBLE_EQ(v.threshold_ns, cfg.threshold_ns);
    EXPECT_EQ(v.window_first, 0u);
    EXPECT_EQ(v.window_last, 7u);

    // The localizer names the slow link, and only it.
    ASSERT_EQ(v.findings.size(), static_cast<std::size_t>(kLinks));
    for (const auto& finding : v.findings) {
      const bool is_slow = finding.segment == "link" + std::to_string(kSlow);
      EXPECT_EQ(finding.anomalous, is_slow) << finding.segment;
    }
  }

  EXPECT_EQ(watcher.violations(), violations.size());
  // One kSloViolation event per violation, and nothing else in the ring.
  const auto events = trace.snapshot();
  ASSERT_EQ(events.events.size(), violations.size());
  for (const auto& ev : events.events) EXPECT_EQ(ev.kind, obs::EventKind::kSloViolation);
}

TEST(SloWatcherTest, PollChecksEachSealedEpochOnce) {
  SketchHistoryStore store;
  feed(store, 4, 4, 2, /*slow_link=*/1, 40e3, 900e3);
  SloWatcherConfig cfg;
  cfg.threshold_ns = 200e3;
  cfg.window_epochs = 2;
  SloWatcher watcher(cfg, &store);

  const auto first = watcher.poll();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(watcher.checks(), 1u);
  EXPECT_TRUE(watcher.poll().empty()) << "same epoch must not re-check";
  EXPECT_EQ(watcher.checks(), 1u);

  // A new sealed epoch re-arms it.
  common::Xoshiro256 rng(43);
  EstimateRecord r;
  r.key = flow_key(1);
  r.link = 1;
  r.epoch = 4;
  for (int s = 0; s < 12; ++s) r.sketch.add(900e3 * rng.uniform(0.9, 1.1));
  store.ingest({r});
  EXPECT_FALSE(watcher.poll().empty());
  EXPECT_EQ(watcher.checks(), 2u);
}

TEST(SloWatcherTest, PollJudgesAnEpochOnlyOnceItIsSealed) {
  // The newest epoch seen still admits records (an aged flow ships
  // mid-epoch), so a poll must not judge it: a breach recorded after the
  // poll would never be reported. A record of the next epoch seals it.
  SketchHistoryStore store;
  SloWatcherConfig cfg;
  cfg.threshold_ns = 200e3;
  cfg.window_epochs = 1;
  SloWatcher watcher(cfg, &store);
  const auto record = [](std::uint32_t flow, std::uint32_t epoch, double ns) {
    EstimateRecord r;
    r.key = flow_key(flow);
    r.link = 0;
    r.epoch = epoch;
    for (int s = 0; s < 12; ++s) r.sketch.add(ns);
    return r;
  };

  store.ingest({record(0, 5, 40e3)});
  EXPECT_TRUE(watcher.poll().empty());
  store.ingest({record(1, 5, 900e3)});
  store.ingest({record(0, 6, 40e3)});
  const auto violations = watcher.poll();
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].key, flow_key(1));
  EXPECT_EQ(violations[0].window_first, 5u);
  EXPECT_EQ(violations[0].window_last, 5u);
}

TEST(SloWatcherTest, CheckReadsTheWindowOnceNotOncePerFlow) {
  // A check lists the window's flows with their merged sketches in one pass
  // over the store. A per-flow window_flow() read would re-decode every raw
  // record of the window once per flow, and leave one "flow" span each.
  obs::SpanRecorder spans;
  HistoryConfig history_cfg;
  history_cfg.instruments.spans = &spans;
  SketchHistoryStore store(history_cfg);
  constexpr std::uint32_t kFlows = 16;
  feed(store, 4, kFlows, 4, /*slow_link=*/1, 40e3, 900e3);

  SloWatcherConfig cfg;
  cfg.threshold_ns = 200e3;
  cfg.window_epochs = 4;
  obs::MetricsRegistry registry;
  cfg.instruments.registry = &registry;
  SloWatcher watcher(cfg, &store);
  EXPECT_EQ(watcher.check(3).size(), kFlows / 4);  // the flows riding link 1

  std::uint64_t flows_checked = 0;
  for (const auto& sample : registry.snapshot().samples) {
    if (sample.name == "rlir_slo_flows_checked_total") flows_checked = sample.counter;
  }
  EXPECT_EQ(flows_checked, kFlows);
  std::size_t flow_reads = 0;
  for (const auto& span : spans.snapshot().spans) {
    if (span.kind == obs::SpanKind::kHistoryWindow && span.label == "flow") ++flow_reads;
  }
  EXPECT_EQ(flow_reads, 0u);
}

}  // namespace
}  // namespace rlir::collect
