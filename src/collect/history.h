// Epoch-indexed sketch history: the time-travel store behind the collector.
//
// The live collector answers "what is flow X's latency NOW"; operators ask
// "what was p99 over the last 5 minutes" and "which link's distribution
// shifted at 14:02". This store keeps per-epoch DELTAS — the records each
// epoch contributed, not cumulative state — so any window [e1, e2] can be
// answered by merging exactly the epochs it covers (sketch merge is exact,
// associative, and commutative; see common/latency_sketch.h).
//
// Memory is bounded by the tiers plus a byte cap:
//
//   * tiered epoch compaction: the newest `raw_epochs` epochs are kept as
//     raw record logs (append-only byte vectors of self-delimiting record
//     bodies — the cheapest possible ingest tee); older epochs fold into
//     mid-tier segments of `mid_window` epochs (per-flow/per-link merged
//     sketch maps), which in turn fold into coarse segments of
//     `coarse_window` epochs; the oldest coarse segments evict. Retained
//     coverage is always one contiguous range [oldest, newest]. A fold is
//     bin-for-bin exact (every sketch has the one shape of
//     common::LatencySketchConfig): compaction only loses the per-epoch
//     split inside a segment.
//   * a hard byte bound (`max_bytes`): whenever the accounted footprint
//     exceeds it, the oldest segments evict (coarse first, then mid, then
//     raw — never the newest raw epoch, which is still filling).
//
// Query semantics: a window query visits every retained segment that
// intersects [e1, e2] — O(log E) to locate the first (binary search over
// the sorted segment deques; raw epochs index arithmetically) — and merges
// their deltas bin-for-bin. Compacted segments snap coverage OUTWARD: a
// window edge falling inside an 8-epoch segment includes the whole segment
// (the per-epoch split no longer exists). The WindowCoverage out-param
// reports what was actually merged, so `query(window) == merge of the
// covered epochs' deltas, bin for bin` — the exactness contract the
// property tests assert.
//
// Thread-safety: all methods are safe to call concurrently (one internal
// mutex). Ingest is designed as a tee riding the collector hot path: one
// lock per batch, one body append (~bytes memcpy) per record, no sketch
// merge.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "common/flat_hash_map.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/instrument.h"

namespace rlir::collect {

struct HistoryConfig {
  /// Newest epochs kept as raw per-epoch record logs (full per-epoch
  /// resolution). Must be >= 1.
  std::size_t raw_epochs = 64;
  /// Epochs per mid-tier segment (raw epochs fold into these). Must be >= 1.
  std::size_t mid_window = 8;
  /// Mid-tier segments retained before the oldest folds to coarse. >= 1.
  std::size_t mid_segments = 16;
  /// Epochs per coarse-tier segment; must be a positive multiple of
  /// mid_window (mid segments nest into coarse windows cleanly).
  std::size_t coarse_window = 64;
  /// Coarse segments retained before the oldest evicts. Must be >= 1.
  std::size_t coarse_segments = 16;
  /// Hard footprint bound; exceeding it evicts oldest segments. 0 = none.
  std::size_t max_bytes = 64u << 20;
  /// Observability attachment (see obs/instrument.h): rlir_history_* gauges
  /// and counters — the store's memory watchdog.
  obs::Instruments instruments;
};

/// What a window query actually answered: the retained segments intersecting
/// the request, snapped outward to compacted-segment boundaries.
struct WindowCoverage {
  std::uint32_t requested_first = 0;
  std::uint32_t requested_last = 0;
  /// Bounds of the segments merged (only meaningful when `covered`). May
  /// extend beyond the request when a window edge fell inside a compacted
  /// segment, and may fall short when epochs were evicted or never seen.
  std::uint32_t covered_first = 0;
  std::uint32_t covered_last = 0;
  /// At least one retained segment intersected the request.
  bool covered = false;
  /// Every requested epoch is retained (nothing evicted, nothing in the
  /// future): covered && oldest_retained <= requested_first &&
  /// requested_last <= newest_seen.
  bool complete = false;
  /// Records contributing to the covered segments.
  std::uint64_t records = 0;
};

class SketchHistoryStore {
 public:
  /// Forward epoch jumps larger than this (past the newest epoch seen) are
  /// rejected as corrupt and counted as dropped: one bad wire epoch must not
  /// fast-forward away the whole history.
  static constexpr std::uint32_t kMaxEpochJump = 1u << 16;

  /// Throws std::invalid_argument on an invalid config (see field rules).
  explicit SketchHistoryStore(HistoryConfig config = {});

  SketchHistoryStore(const SketchHistoryStore&) = delete;
  SketchHistoryStore& operator=(const SketchHistoryStore&) = delete;

  // --- Ingest (the collector tee) -----------------------------------------

  /// Appends each record of the batch, in order, to its epoch's raw log
  /// under one hold of the lock. While nothing has ever been folded or
  /// evicted, the raw window also grows BACKWARDS to admit epochs below the
  /// first-seen one (flow-hash spray delivers each agent a different first
  /// record) — so partitioned stores converge on the same retained range.
  /// Records older than the retained range are dropped (counted); records
  /// landing in an already compacted segment merge into its maps (counted
  /// as late). A record's epoch seals every epoch before it, idle ones
  /// included, so compaction advances with the records alone.
  void ingest_views(const std::vector<RecordView>& batch);
  /// Owned records: encodes the batch and ingests its views (encode_views).
  void ingest(const std::vector<EstimateRecord>& batch);

  // --- Window queries ------------------------------------------------------
  // All take an inclusive epoch range (swapped if reversed) and optionally
  // report coverage. Result sketches merge exactly with live collector
  // sketches.

  /// One flow's merged delta over the window; nullopt if the flow appears in
  /// no covered segment.
  [[nodiscard]] std::optional<common::LatencySketch> window_flow(
      std::uint32_t epoch_first, std::uint32_t epoch_last, const net::FiveTuple& key,
      WindowCoverage* coverage = nullptr) const;
  /// One vantage's merged delta over the window; nullopt if unseen.
  [[nodiscard]] std::optional<common::LatencySketch> window_link(
      std::uint32_t epoch_first, std::uint32_t epoch_last, LinkId link,
      WindowCoverage* coverage = nullptr) const;
  /// Union of every record in the window (empty sketch when none).
  [[nodiscard]] common::LatencySketch window_fleet(std::uint32_t epoch_first,
                                                   std::uint32_t epoch_last,
                                                   WindowCoverage* coverage = nullptr) const;
  /// Every flow appearing in the window with its merged delta, ascending by
  /// key — one pass instead of a window_flow() per flow.
  [[nodiscard]] std::vector<std::pair<net::FiveTuple, common::LatencySketch>>
  window_flow_sketches(std::uint32_t epoch_first, std::uint32_t epoch_last) const;
  /// Every link appearing in the window with its merged delta, ascending.
  [[nodiscard]] std::vector<std::pair<LinkId, common::LatencySketch>> window_links(
      std::uint32_t epoch_first, std::uint32_t epoch_last) const;

  // --- Accounting ----------------------------------------------------------

  /// Accounted footprint (raw log bytes + compacted sketch bytes + fixed
  /// per-segment overhead) — the quantity max_bytes bounds, also exported
  /// as the rlir_history_bytes gauge.
  [[nodiscard]] std::size_t approx_bytes() const;
  /// Retained epoch span (contiguous); 0 before the first epoch.
  [[nodiscard]] std::size_t epochs_retained() const;
  [[nodiscard]] std::optional<std::uint32_t> first_retained_epoch() const;
  [[nodiscard]] std::optional<std::uint32_t> last_epoch() const;
  [[nodiscard]] std::uint64_t records_ingested() const;
  /// Segment folds (raw->mid and mid->coarse).
  [[nodiscard]] std::uint64_t compactions() const;
  /// Segments dropped (tier overflow or byte bound).
  [[nodiscard]] std::uint64_t evictions() const;
  /// Records merged into an already-compacted segment.
  [[nodiscard]] std::uint64_t late_records() const;
  /// Records rejected: older than everything retained, or a forward epoch
  /// jump over kMaxEpochJump.
  [[nodiscard]] std::uint64_t dropped_records() const;

  [[nodiscard]] const HistoryConfig& config() const { return config_; }

  /// Publishes the deferred hot-path counters into the registry cells.
  /// Ingest defers cell updates to epoch seals (see flush_cells_locked), so
  /// a scrape taken mid-epoch lags by the unsealed tail — call this first
  /// when rendering a snapshot that must reflect every ingested record.
  void refresh_cells() const;

 private:
  /// Append-only record-body log in fixed chunks. A flat byte vector would
  /// double-and-memcpy megabytes per busy epoch and touch ~2x the pages the
  /// data needs — measurable on the collector tee, which rides the ingest
  /// hot path. Chunks never relocate once written; records never straddle
  /// chunks (each body is appended whole into the current chunk).
  class RecordLog {
   public:
    // Below glibc's 128 KiB mmap threshold so chunk churn recycles through
    // the malloc free lists instead of mmap/munmap syscalls.
    static constexpr std::size_t kChunkBytes = 64u << 10;

    /// One fixed-capacity slab of appended record bodies. Raw buffers
    /// (default-initialized, not vectors) so appends never pay a zero-fill
    /// and chunk growth never copies old bodies.
    struct Chunk {
      std::unique_ptr<std::uint8_t[]> data;
      std::size_t used = 0;
      std::size_t cap = 0;
    };

    [[nodiscard]] bool empty() const { return size_ == 0; }
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] const std::vector<Chunk>& chunks() const { return chunks_; }
    /// Reserves `n` contiguous bytes (opening a fresh chunk when the current
    /// one would overflow) and returns where to write them.
    [[nodiscard]] std::uint8_t* append_raw(std::size_t n) {
      if (chunks_.empty() || chunks_.back().used + n > chunks_.back().cap) {
        Chunk chunk;
        chunk.cap = std::max(kChunkBytes, n);
        chunk.data.reset(new std::uint8_t[chunk.cap]);
        chunks_.push_back(std::move(chunk));
      }
      Chunk& tail = chunks_.back();
      std::uint8_t* at = tail.data.get() + tail.used;
      tail.used += n;
      size_ += n;
      return at;
    }

   private:
    std::vector<Chunk> chunks_;
    std::size_t size_ = 0;
  };

  /// One retained slice of history. Raw tier: first == last and the records
  /// live in `log` (appended bodies). Compacted tiers: [first, last] spans
  /// a window and the records live pre-merged in the flow/link maps.
  struct Segment {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
    std::uint64_t records = 0;
    RecordLog log;
    common::FlatHashMap<net::FiveTuple, common::LatencySketch> flows;
    common::FlatHashMap<LinkId, common::LatencySketch> links;
    /// Accounted footprint contribution (kept in sync with total_bytes_).
    std::size_t bytes = 0;
  };

  /// A fresh empty segment covering `epoch`, its fixed overhead charged.
  [[nodiscard]] Segment new_segment_locked(std::uint32_t epoch);
  /// True if the record's epoch was admitted (time advanced as needed);
  /// false = rejected jump (counted by the caller).
  bool admit_epoch_locked(std::uint32_t epoch);
  /// The per-record body of ingest_views (the collector tee's hot path — no
  /// allocations).
  void ingest_view_locked(const RecordView& record);
  /// Merges one record into a compacted segment's flow and link maps.
  void merge_view_locked(Segment& seg, const RecordView& record) const;
  /// Folds `from`'s oldest segment into `into`'s newest one when both lie in
  /// the same `window`-epoch window, else into a new segment — raw -> mid and
  /// mid -> coarse alike (a raw segment contributes its log, a compacted one
  /// its maps).
  void fold_front_locked(std::deque<Segment>& from, std::deque<Segment>& into,
                         std::size_t window);
  void evict_front_locked(std::deque<Segment>& tier);
  void enforce_bytes_locked();
  /// Publishes the locked state into the registry cells (gauges + the
  /// deferred record count). Runs at epoch boundaries, queries, and
  /// accessors — NOT per record: the tee rides the collector's hot path,
  /// and three extra atomic cache lines per record are measurable.
  void flush_cells_locked() const;
  [[nodiscard]] std::size_t map_segment_bytes_locked(const Segment& seg) const;
  [[nodiscard]] std::uint32_t oldest_retained_locked() const;
  /// Visits every retained segment intersecting [first, last], oldest tier
  /// first, accumulating coverage. `fn(segment)`.
  template <typename Fn>
  WindowCoverage for_each_covering_locked(std::uint32_t first, std::uint32_t last,
                                          Fn&& fn) const;
  /// Calls `fn(view)` for every record in a segment's raw log, in append
  /// order (a compacted segment's log is empty). Decodes one chunk at a time
  /// into scratch_.
  template <typename Fn>
  void for_each_raw_view_locked(const Segment& seg, Fn&& fn) const;
  /// The one body behind window_flow and window_link: merges every record
  /// whose `view_key` member equals `key` (raw tier) and the `seg_map` entry
  /// for `key` (compacted tiers).
  template <typename Key>
  [[nodiscard]] std::optional<common::LatencySketch> window_one(
      std::uint32_t first, std::uint32_t last, const Key& key, Key RecordView::*view_key,
      common::FlatHashMap<Key, common::LatencySketch> Segment::*seg_map, const char* label,
      WindowCoverage* coverage) const;
  /// The one body behind window_flow_sketches and window_links: every key
  /// in the window with its merged delta, ascending.
  template <typename Key>
  [[nodiscard]] std::vector<std::pair<Key, common::LatencySketch>> window_groups(
      std::uint32_t first, std::uint32_t last, Key RecordView::*view_key,
      common::FlatHashMap<Key, common::LatencySketch> Segment::*seg_map) const;

  HistoryConfig config_;
  obs::Instrumented obs_;

  mutable std::mutex mu_;
  /// Raw tier: contiguous epochs [raw_first_, raw_first_ + raw_.size()).
  std::deque<Segment> raw_;
  std::uint32_t raw_first_ = 0;
  /// Compacted tiers, ascending and disjoint; coarse_ covers the oldest
  /// epochs, mid_ the range between coarse_ and raw_.
  std::deque<Segment> mid_;
  std::deque<Segment> coarse_;
  bool any_ = false;
  std::uint32_t last_seen_ = 0;
  /// True once any epoch has been folded or evicted; gates backward raw
  /// growth (the pre-raw_first_ range is only re-admittable while nothing
  /// that ever covered it has been discarded).
  bool discarded_ = false;
  std::size_t total_bytes_ = 0;
  /// Decode scratch of for_each_raw_view_locked, reused across segments.
  mutable std::vector<RecordView> scratch_;
  /// Records ingested since the last flush_cells_locked() (hot-path counter
  /// kept off the shared registry cache lines; mutable so const accessors
  /// can publish before reading the cell).
  mutable std::uint64_t records_pending_ = 0;

  /// Counter cells are the storage (accessors read them); gauges track the
  /// bounded quantities — the memory watchdog surface.
  struct Cells {
    obs::Gauge* bytes = nullptr;
    obs::Gauge* epochs = nullptr;
    obs::Counter* records = nullptr;
    obs::Counter* compactions = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* late = nullptr;
    obs::Counter* dropped = nullptr;
  };
  Cells c_{};
};

}  // namespace rlir::collect
