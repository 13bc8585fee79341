// SketchHistoryStore: the time-travel store's exactness and boundedness
// contracts.
//
//   * Property (seeded): for ANY window, the store's answer equals a direct
//     merge of the covered epochs' records — bin for bin — no matter which
//     tier (raw log, mid, coarse) the epochs landed in. The reference model
//     keeps every record in a plain per-epoch vector and merges on demand.
//   * Boundedness: >= 1000 epochs of ingest stay under max_bytes, with the
//     rlir_history_* cells, read straight after every batch, agreeing with
//     the accessors.
//   * Edge cases: empty store, idle epochs, single-epoch windows, reversed
//     windows, evicted/future windows, late records, backward growth, and
//     windows ending at the last u32 epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/history.h"
#include "common/rng.h"
#include "obs/metrics.h"

namespace rlir::collect {
namespace {

net::FiveTuple flow_key(std::uint32_t i) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(10, 1, static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i));
  key.dst = net::Ipv4Address(192, 168, 0, 1);
  key.src_port = static_cast<std::uint16_t>(4000 + i);
  key.dst_port = 443;
  key.proto = static_cast<std::uint8_t>(net::IpProto::kUdp);
  return key;
}

EstimateRecord make_record(std::uint32_t epoch, std::uint32_t flow, LinkId link,
                           common::Xoshiro256& rng) {
  EstimateRecord r;
  r.key = flow_key(flow);
  r.link = link;
  r.epoch = epoch;
  const int samples = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
  for (int s = 0; s < samples; ++s) r.sketch.add(30e3 * rng.uniform(0.5, 4.0));
  return r;
}

/// The reference model: every record, kept verbatim per epoch.
using EpochRecords = std::map<std::uint32_t, std::vector<EstimateRecord>>;

/// Direct merge over [first, last] of records matching `pred` — the ground
/// truth any window query is compared against.
template <typename Pred>
common::LatencySketch direct_merge(const EpochRecords& model, std::uint32_t first,
                                   std::uint32_t last, Pred&& pred) {
  common::LatencySketch out;
  for (auto it = model.lower_bound(first); it != model.end() && it->first <= last; ++it) {
    for (const auto& r : it->second) {
      if (pred(r)) out.merge(r.sketch);
    }
  }
  return out;
}

std::uint64_t direct_records(const EpochRecords& model, std::uint32_t first,
                             std::uint32_t last) {
  std::uint64_t n = 0;
  for (auto it = model.lower_bound(first); it != model.end() && it->first <= last; ++it) {
    n += it->second.size();
  }
  return n;
}

TEST(HistoryStoreTest, EmptyStoreAnswersNothing) {
  SketchHistoryStore store;
  WindowCoverage cov;
  EXPECT_FALSE(store.window_flow(0, 10, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);
  EXPECT_FALSE(cov.complete);
  EXPECT_TRUE(store.window_fleet(0, 10).empty());
  EXPECT_TRUE(store.window_flow_sketches(0, 10).empty());
  EXPECT_TRUE(store.window_links(0, 10).empty());
  EXPECT_EQ(store.epochs_retained(), 0u);
  EXPECT_FALSE(store.first_retained_epoch().has_value());
  EXPECT_FALSE(store.last_epoch().has_value());
}

TEST(HistoryStoreTest, BadConfigsThrow) {
  const auto expect_throws = [](HistoryConfig cfg) {
    EXPECT_THROW(SketchHistoryStore{cfg}, std::invalid_argument);
  };
  HistoryConfig cfg;
  cfg.raw_epochs = 0;
  expect_throws(cfg);
  cfg = {};
  cfg.mid_window = 0;
  expect_throws(cfg);
  cfg = {};
  cfg.coarse_window = 12;  // not a multiple of mid_window = 8
  expect_throws(cfg);
  cfg = {};
  cfg.mid_segments = 0;
  expect_throws(cfg);
}

TEST(HistoryStoreTest, ImplausibleForwardEpochJumpIsDroppedAndCounted) {
  // A corrupt epoch from a peer must not fast-forward the store past
  // everything it retains: a jump over kMaxEpochJump is dropped and counted.
  SketchHistoryStore store;
  common::Xoshiro256 rng(11);
  store.ingest({make_record(0, 0, 0, rng)});
  constexpr std::uint32_t kJump = SketchHistoryStore::kMaxEpochJump;
  ASSERT_EQ(kJump, 1u << 16);

  store.ingest({make_record(kJump + 1, 1, 0, rng)});
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(store.records_ingested(), 1u);
  EXPECT_EQ(store.last_epoch(), 0u);
  EXPECT_EQ(store.first_retained_epoch(), 0u);

  // The largest plausible jump is admitted.
  store.ingest({make_record(kJump, 2, 0, rng)});
  EXPECT_EQ(store.dropped_records(), 1u);
  EXPECT_EQ(store.records_ingested(), 2u);
  EXPECT_EQ(store.last_epoch(), kJump);
  EXPECT_TRUE(store.window_flow(kJump, kJump, flow_key(2)).has_value());
}

// The tentpole property: window query == direct merge of the covered
// epochs' records, across all three tiers. Every sketch has one shape, so
// even compacted answers must be bin-for-bin exact.
TEST(HistoryStoreTest, WindowEqualsDirectMergeAcrossTiers) {
  HistoryConfig cfg;
  cfg.raw_epochs = 4;
  cfg.mid_window = 2;
  cfg.mid_segments = 3;
  cfg.coarse_window = 4;
  cfg.coarse_segments = 4;
  SketchHistoryStore store(cfg);

  constexpr std::uint32_t kEpochs = 40;
  constexpr std::uint32_t kFlows = 12;
  constexpr LinkId kLinks = 3;
  common::Xoshiro256 rng(20110328);  // seeded: identical records every run

  EpochRecords model;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    if (epoch % 7 == 3) {
      model[epoch];  // idle epoch: no records; the next record seals it
      continue;
    }
    const int count = 2 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int i = 0; i < count; ++i) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform(0.0, kFlows));
      const auto link = static_cast<LinkId>(rng.uniform(0.0, kLinks));
      auto r = make_record(epoch, flow, link, rng);
      model[epoch].push_back(r);
      store.ingest({r});
    }
  }
  ASSERT_EQ(store.records_ingested(), direct_records(model, 0, kEpochs));
  ASSERT_GT(store.compactions(), 0u) << "workload never exercised compaction";

  // Windows crossing every tier boundary, plus a seeded random sweep.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> windows = {
      {kEpochs - 1, kEpochs - 1},  // newest raw epoch alone
      {kEpochs - 4, kEpochs - 1},  // fully raw
      {kEpochs - 8, kEpochs - 2},  // raw + mid straddle
      {0, kEpochs - 1},            // everything
      {0, 0},                      // oldest (coarse) alone
      {2, 17},                     // coarse + mid straddle
      {3, 3},                      // idle epoch inside a compacted segment
  };
  for (int i = 0; i < 40; ++i) {
    auto a = static_cast<std::uint32_t>(rng.uniform(0.0, kEpochs));
    auto b = static_cast<std::uint32_t>(rng.uniform(0.0, kEpochs));
    windows.emplace_back(a, b);  // reversed windows included on purpose
  }

  const std::uint32_t oldest = *store.first_retained_epoch();
  const std::uint32_t newest = *store.last_epoch();
  ASSERT_GT(oldest, 0u) << "workload never evicted — tiers too large for the sweep";
  for (const auto& [w_first, w_last] : windows) {
    const std::uint32_t lo = std::min(w_first, w_last);
    const std::uint32_t hi = std::max(w_first, w_last);

    WindowCoverage cov;
    const auto fleet = store.window_fleet(w_first, w_last, &cov);
    ASSERT_EQ(cov.covered, hi >= oldest && lo <= newest) << "[" << lo << ", " << hi << "]";
    if (!cov.covered) {
      EXPECT_TRUE(fleet.empty());
      continue;
    }
    // Coverage snaps OUTWARD at compacted edges: it must contain the whole
    // retained part of the request, never lose any of it.
    EXPECT_LE(cov.first, std::max(lo, oldest));
    EXPECT_GE(cov.last, std::min(hi, newest));
    EXPECT_EQ(cov.records, direct_records(model, cov.first, cov.last));
    EXPECT_EQ(cov.complete, lo >= oldest && hi <= newest);

    // Fleet union == direct merge of every record in the covered range.
    const auto want_fleet = direct_merge(model, cov.first, cov.last,
                                         [](const EstimateRecord&) { return true; });
    EXPECT_EQ(fleet.bins(), want_fleet.bins()) << "[" << lo << ", " << hi << "]";
    EXPECT_EQ(fleet.count(), want_fleet.count());

    // Per-flow and per-link answers, same contract.
    for (std::uint32_t flow = 0; flow < kFlows; ++flow) {
      const auto key = flow_key(flow);
      const auto got = store.window_flow(w_first, w_last, key);
      const auto want = direct_merge(model, cov.first, cov.last,
                                     [&](const EstimateRecord& r) { return r.key == key; });
      ASSERT_EQ(got.has_value(), !want.empty()) << "flow " << flow;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << "flow " << flow;
        EXPECT_EQ(got->count(), want.count()) << "flow " << flow;
        EXPECT_DOUBLE_EQ(got->quantile(0.99), want.quantile(0.99));
      }
    }
    for (LinkId link = 0; link < kLinks; ++link) {
      const auto got = store.window_link(w_first, w_last, link);
      const auto want = direct_merge(model, cov.first, cov.last,
                                     [&](const EstimateRecord& r) { return r.link == link; });
      ASSERT_EQ(got.has_value(), !want.empty()) << "link " << link;
      if (got.has_value()) {
        EXPECT_EQ(got->bins(), want.bins()) << "link " << link;
      }
    }
  }

  // Enumerations match the model over a tier-straddling window.
  WindowCoverage cov;
  (void)store.window_fleet(2, kEpochs - 2, &cov);
  std::vector<net::FiveTuple> want_flows;
  std::vector<LinkId> want_links;
  for (auto it = model.lower_bound(cov.first);
       it != model.end() && it->first <= cov.last; ++it) {
    for (const auto& r : it->second) {
      want_flows.push_back(r.key);
      want_links.push_back(r.link);
    }
  }
  std::sort(want_flows.begin(), want_flows.end());
  want_flows.erase(std::unique(want_flows.begin(), want_flows.end()), want_flows.end());
  std::sort(want_links.begin(), want_links.end());
  want_links.erase(std::unique(want_links.begin(), want_links.end()), want_links.end());
  const auto got_flows = store.window_flow_sketches(2, kEpochs - 2);
  ASSERT_EQ(got_flows.size(), want_flows.size());
  for (std::size_t i = 0; i < want_flows.size(); ++i) {
    EXPECT_EQ(got_flows[i].first, want_flows[i]);
    const auto want = direct_merge(model, cov.first, cov.last,
                                   [&](const EstimateRecord& r) { return r.key == want_flows[i]; });
    EXPECT_EQ(got_flows[i].second.bins(), want.bins()) << "flow " << i;
  }
  const auto got_links = store.window_links(2, kEpochs - 2);
  ASSERT_EQ(got_links.size(), want_links.size());
  for (std::size_t i = 0; i < want_links.size(); ++i) {
    EXPECT_EQ(got_links[i].first, want_links[i]);
  }
}

TEST(HistoryStoreTest, EvictedAndFutureWindowsAreUncovered) {
  HistoryConfig cfg;
  cfg.raw_epochs = 2;
  cfg.mid_window = 2;
  cfg.mid_segments = 1;
  cfg.coarse_window = 2;
  cfg.coarse_segments = 1;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(7);
  for (std::uint32_t epoch = 0; epoch < 30; ++epoch) {
    store.ingest({make_record(epoch, 0, 0, rng)});
  }
  ASSERT_GT(store.evictions(), 0u);
  const auto oldest = *store.first_retained_epoch();
  ASSERT_GT(oldest, 0u);

  WindowCoverage cov;
  EXPECT_FALSE(store.window_flow(0, oldest - 1, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);
  EXPECT_FALSE(store.window_flow(100, 200, flow_key(0), &cov).has_value());
  EXPECT_FALSE(cov.covered);

  // A request overlapping the retained range answers it, honestly partial.
  const auto got = store.window_flow(0, 29, flow_key(0), &cov);
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(cov.covered);
  EXPECT_FALSE(cov.complete);
  EXPECT_GE(cov.first, oldest);
}

TEST(HistoryStoreTest, LateRecordsMergeIntoCompactedSegments) {
  HistoryConfig cfg;
  cfg.raw_epochs = 2;
  cfg.mid_window = 4;
  cfg.mid_segments = 4;
  cfg.coarse_window = 8;
  cfg.coarse_segments = 4;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(11);
  for (std::uint32_t epoch = 0; epoch < 12; ++epoch) {
    store.ingest({make_record(epoch, 0, 0, rng)});
  }
  ASSERT_GT(store.compactions(), 0u);

  // Epoch 1 has been folded; a straggler for it merges into its segment.
  auto straggler = make_record(1, 5, 2, rng);
  const auto before = store.window_flow(1, 1, flow_key(5));
  EXPECT_FALSE(before.has_value());
  store.ingest({straggler});
  EXPECT_EQ(store.late_records(), 1u);
  const auto after = store.window_flow(1, 1, flow_key(5));
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->bins(), straggler.sketch.bins());

  // Older than everything retained after an eviction -> dropped.
  SketchHistoryStore tiny{[] {
    HistoryConfig c;
    c.raw_epochs = 1;
    c.mid_segments = 1;
    c.mid_window = 1;
    c.coarse_window = 1;
    c.coarse_segments = 1;
    return c;
  }()};
  for (std::uint32_t epoch = 0; epoch < 8; ++epoch) {
    tiny.ingest({make_record(epoch, 0, 0, rng)});
  }
  ASSERT_GT(tiny.evictions(), 0u);
  tiny.ingest({make_record(0, 0, 0, rng)});
  EXPECT_EQ(tiny.dropped_records(), 1u);
}

TEST(HistoryStoreTest, RawWindowGrowsBackwardBeforeAnyDiscard) {
  HistoryConfig cfg;
  cfg.raw_epochs = 16;
  SketchHistoryStore store(cfg);
  common::Xoshiro256 rng(13);

  // First record arrives mid-stream (epoch 5) — a flow-hash-sprayed agent's
  // normal fate — then older epochs trickle in. All must stay raw.
  for (const std::uint32_t epoch : {5u, 3u, 4u, 0u, 1u, 2u}) {
    store.ingest({make_record(epoch, epoch, 0, rng)});
  }
  EXPECT_EQ(store.dropped_records(), 0u);
  EXPECT_EQ(store.late_records(), 0u);
  EXPECT_EQ(*store.first_retained_epoch(), 0u);

  WindowCoverage cov;
  (void)store.window_fleet(0, 5, &cov);
  EXPECT_TRUE(cov.complete);
  EXPECT_EQ(cov.records, 6u);
  for (std::uint32_t epoch = 0; epoch <= 5; ++epoch) {
    EXPECT_TRUE(store.window_flow(epoch, epoch, flow_key(epoch)).has_value())
        << "epoch " << epoch;
  }
}

TEST(HistoryStoreTest, MemoryStaysBoundedAcrossThousandEpochs) {
  obs::MetricsRegistry registry;
  HistoryConfig cfg;
  cfg.raw_epochs = 8;
  cfg.mid_window = 4;
  cfg.mid_segments = 8;
  cfg.coarse_window = 16;
  cfg.coarse_segments = 8;
  cfg.max_bytes = 1u << 20;
  cfg.instruments.registry = &registry;
  SketchHistoryStore store(cfg);

  common::Xoshiro256 rng(17);
  constexpr std::uint32_t kEpochs = 1200;
  std::uint64_t ingested = 0;
  for (std::uint32_t epoch = 0; epoch < kEpochs; ++epoch) {
    const int count = 8 + static_cast<int>(rng.uniform(0.0, 8.0));
    for (int i = 0; i < count; ++i) {
      const auto flow = static_cast<std::uint32_t>(rng.uniform(0.0, 64.0));
      store.ingest({make_record(epoch, flow, static_cast<LinkId>(flow % 4), rng)});
      ++ingested;
      // The watchdog cells, read straight after the batch and before any
      // accessor runs, already hold the store's state.
      const auto snap = registry.snapshot();
      std::int64_t bytes_gauge = -1;
      std::int64_t epochs_gauge = -1;
      std::uint64_t records_counter = 0;
      for (const auto& sample : snap.samples) {
        if (sample.name == "rlir_history_bytes") bytes_gauge = sample.gauge;
        if (sample.name == "rlir_history_epochs") epochs_gauge = sample.gauge;
        if (sample.name == "rlir_history_records_total") records_counter = sample.counter;
      }
      ASSERT_EQ(records_counter, ingested) << "epoch " << epoch;
      ASSERT_EQ(bytes_gauge, static_cast<std::int64_t>(store.approx_bytes())) << epoch;
      ASSERT_EQ(epochs_gauge, static_cast<std::int64_t>(store.epochs_retained())) << epoch;
    }
    if (epoch % 100 == 0) {
      EXPECT_LE(store.approx_bytes(), cfg.max_bytes) << "epoch " << epoch;
    }
  }
  EXPECT_LE(store.approx_bytes(), cfg.max_bytes);
  EXPECT_EQ(store.records_ingested(), ingested);
  EXPECT_GT(store.compactions(), 0u);
  EXPECT_GT(store.epochs_retained(), 0u);
  EXPECT_EQ(*store.last_epoch(), kEpochs - 1);
  // Retention is a contiguous recent range, and old epochs really left.
  EXPECT_GT(*store.first_retained_epoch(), 0u);
}

TEST(HistoryStoreTest, WindowsEndingAtTheLastEpochAreCovered) {
  // The first record may carry any epoch, 2^32 - 1 included; a window ending
  // there must visit that raw epoch once and stop.
  constexpr std::uint32_t kTop = 0xffffffffu;
  SketchHistoryStore store;
  common::Xoshiro256 rng(5);
  const EstimateRecord record = make_record(kTop, 3, 2, rng);
  store.ingest({record});

  for (const std::uint32_t first : {kTop - 15, kTop}) {
    WindowCoverage cov;
    const auto fleet = store.window_fleet(first, kTop, &cov);
    EXPECT_TRUE(cov.covered) << first;
    EXPECT_EQ(cov.complete, first == kTop) << first;
    EXPECT_EQ(cov.first, kTop);
    EXPECT_EQ(cov.last, kTop);
    EXPECT_EQ(cov.records, 1u);
    EXPECT_EQ(fleet.bins(), record.sketch.bins());

    const auto link = store.window_link(first, kTop, record.link, &cov);
    EXPECT_TRUE(cov.covered);
    ASSERT_TRUE(link.has_value());
    EXPECT_EQ(link->bins(), record.sketch.bins());

    const auto flow = store.window_flow(first, kTop, record.key, &cov);
    EXPECT_TRUE(cov.covered);
    ASSERT_TRUE(flow.has_value());
    EXPECT_EQ(flow->bins(), record.sketch.bins());
  }
  EXPECT_EQ(store.window_flow_sketches(0, kTop).size(), 1u);
  EXPECT_EQ(store.window_links(kTop - 1, kTop).size(), 1u);
}

// Concurrency smoke for the TSan pass: writers tee while readers window.
// Correctness of the answers is the property test's job; this one's job is
// to put the lock under real contention.
TEST(HistoryStoreTest, ConcurrentIngestAndQuery) {
  HistoryConfig cfg;
  cfg.raw_epochs = 4;
  cfg.mid_window = 2;
  cfg.mid_segments = 2;
  cfg.coarse_window = 4;
  cfg.coarse_segments = 2;
  SketchHistoryStore store(cfg);

  constexpr int kWriters = 3;
  constexpr std::uint32_t kPerWriter = 2000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&store, w] {
      common::Xoshiro256 rng(100 + w);
      for (std::uint32_t i = 0; i < kPerWriter; ++i) {
        store.ingest({make_record(i / 50, i % 8, static_cast<LinkId>(w), rng)});
      }
    });
  }
  threads.emplace_back([&store] {
    for (int i = 0; i < 500; ++i) {
      (void)store.window_fleet(0, 60);
      (void)store.window_flow(0, 60, flow_key(1));
      (void)store.approx_bytes();
      (void)store.epochs_retained();
    }
  });
  for (auto& t : threads) t.join();
  EXPECT_EQ(store.records_ingested() + store.dropped_records(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

}  // namespace
}  // namespace rlir::collect
