// The fleet-side collection tier: ingests estimate-record batches from many
// vantage points and answers latency queries across all of them.
//
// Records are routed by flow-key hash to one of N shards; each shard keeps a
// flow table of merged sketches plus per-link (vantage) aggregates. Because
// sketch merge is exact (bin-wise addition), any grouping of the same
// records — by shard, by epoch, by collector replica — converges to the same
// state, which is what makes the tier horizontally scalable: shards can live
// on different machines and replicas can be merged pairwise.
//
// Query API: per-flow quantiles, per-link latency distributions, fleet-wide
// distribution, and top-k worst-latency flows. Top-k is served from a
// per-shard rank index (each shard keeps its flows ordered worst-first at
// the configured quantile), merged at query time with a bounded heap over
// shard cursors — O(k·shards) per query instead of a full scan that
// re-sketches every flow. The index is rebuilt lazily: ingest only marks the
// shard stale, and the first indexed top-k query after a write re-ranks that
// shard's flows. Collection is millions of records between queries, so
// paying O(flows·log flows) once per query instead of O(log flows) plus a
// quantile walk on EVERY record is the right side of the trade by orders of
// magnitude. Consequence: queries mutate the index — the external
// synchronization this class already requires must treat them as writes.
//
// This class is single-threaded. ConcurrentShardedCollector runs one
// single-shard instance per lane behind that lane's lock: it groups each
// submitted batch by lane and merges every lane's share inline under one
// hold of the lock, and takes the same lock for queries.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "common/flat_hash_map.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"

namespace rlir::collect {

class SketchHistoryStore;

struct CollectorConfig {
  /// Shard fan-out. More shards = smaller per-shard flow tables (and, in a
  /// distributed deployment, more machines). Must be >= 1.
  std::size_t shard_count = 8;
  /// Accuracy/budget of the shard-side merged sketches. The relative
  /// accuracy must match the exporters' so merges stay exact.
  common::LatencySketchConfig sketch;
  /// Quantile the ingest-maintained top-k rank index is keyed on. Queries at
  /// this quantile are O(k·shards); any other quantile falls back to the
  /// full scan. Must be in [0, 1].
  double top_k_quantile = 0.99;
};

/// One flow's answer to a summary query.
struct FlowSummary {
  net::FiveTuple key;
  std::uint64_t packets = 0;
  double mean_ns = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

/// A summary with its top-k ranking value (the flow's quantile-q latency).
using RankedFlowSummary = std::pair<double, FlowSummary>;

/// The worst-first ordering contract every top-k path shares — rank index,
/// full scan, and cross-collector merges: higher value first, flow key as
/// the deterministic tie-break.
[[nodiscard]] inline bool ranked_worse_first(const RankedFlowSummary& a,
                                             const RankedFlowSummary& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second.key < b.second.key;
}

/// The summary derived from a flow's merged sketch — the one derivation
/// every top-k path uses (collector, rank index, coordinator), so a summary
/// rebuilt from a sketch shipped over the wire is identical to the local one.
[[nodiscard]] FlowSummary summarize(const net::FiveTuple& key,
                                    const common::LatencySketch& sketch);

/// Drops the ranking values, keeping order.
[[nodiscard]] std::vector<FlowSummary> strip_ranks(std::vector<RankedFlowSummary>&& ranked);

class ShardedCollector {
 public:
  ShardedCollector() : ShardedCollector(CollectorConfig{}) {}
  /// Throws std::invalid_argument if shard_count is 0 or top_k_quantile is
  /// outside [0, 1].
  explicit ShardedCollector(CollectorConfig config);

  /// Routes one record to its shard and merges it into the flow table and
  /// the record's link aggregate. Throws std::invalid_argument on a
  /// relative-accuracy mismatch with the collector's sketch config.
  void ingest(const EstimateRecord& record);
  void ingest(const std::vector<EstimateRecord>& batch);

  /// Zero-copy ingest: merges a decoded RecordView directly from the wire
  /// bytes it points into — identical end state to ingesting the
  /// materialized EstimateRecord, without building it. Same
  /// std::invalid_argument on an accuracy mismatch.
  void ingest(const RecordView& record);

  /// Merges another collector's entire state (replica/epoch union). Shard
  /// counts need not match; flows are re-routed by this collector's hash.
  void merge(const ShardedCollector& other);

  /// Attaches a history store tee (see collect/history.h): every record
  /// ingested after this call is also appended to `history`'s epoch log.
  /// Borrowed — the store must outlive the last ingest; null detaches.
  /// merge() does NOT tee: a replica union re-plays records some collector
  /// already ingested (and teed), not new ones.
  void set_history(SketchHistoryStore* history) { history_ = history; }
  [[nodiscard]] SketchHistoryStore* history() const { return history_; }

  // --- Queries -------------------------------------------------------------

  /// Merged sketch of one flow across all links/epochs; nullptr if unseen.
  [[nodiscard]] const common::LatencySketch* flow(const net::FiveTuple& key) const;
  /// Quantile of one flow's latency distribution; nullopt if unseen.
  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q) const;
  [[nodiscard]] std::optional<FlowSummary> flow_summary(const net::FiveTuple& key) const;

  /// Latency distribution observed at one vantage point (merged across
  /// shards); nullopt if the link never produced a record.
  [[nodiscard]] std::optional<common::LatencySketch> link_distribution(LinkId link) const;
  /// All links with data, ascending.
  [[nodiscard]] std::vector<LinkId> links() const;

  /// Fleet-wide latency distribution (union of every link's sketch).
  [[nodiscard]] common::LatencySketch fleet() const;

  /// The k flows with the highest latency at quantile `q`, worst first.
  /// Ties break on flow key so results are deterministic. When q equals the
  /// configured `top_k_quantile` the answer comes from the per-shard rank
  /// index in O(k·shards); other quantiles use the full scan.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows(std::size_t k, double q = 0.99) const;
  /// top_k_flows with each summary's ranking value attached — what a higher
  /// tier needs to merge top-k answers from several collectors without
  /// re-deriving the sort key.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q) const;
  /// Reference implementation: scans and re-sketches every flow. Exposed so
  /// tests (and operators who suspect the index) can cross-check the fast
  /// path; results are identical for q == top_k_quantile.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows_scan(std::size_t k, double q) const;

  // --- Accounting ----------------------------------------------------------

  [[nodiscard]] std::size_t flow_count() const;
  [[nodiscard]] std::uint64_t records_ingested() const { return records_; }
  [[nodiscard]] std::uint64_t estimates_ingested() const { return estimates_; }
  /// Distinct epochs seen in ingested records.
  [[nodiscard]] std::size_t epoch_count() const { return epochs_.size(); }
  /// Epochs seen, ascending (replica union visibility).
  [[nodiscard]] std::vector<std::uint32_t> epochs_seen() const;
  /// Flows per shard (load-balance visibility).
  [[nodiscard]] std::vector<std::size_t> shard_flow_counts() const;
  /// Approximate resident bytes of all flow sketches — O(flows x bins),
  /// independent of how many estimates were ingested.
  [[nodiscard]] std::size_t approx_flow_bytes() const;

  [[nodiscard]] const CollectorConfig& config() const { return config_; }

 private:
  /// Worst-first rank ordering: higher quantile value first, flow key as the
  /// deterministic tie-break — the same order the scan path sorts by.
  struct WorstFirst {
    bool operator()(const std::pair<double, net::FiveTuple>& a,
                    const std::pair<double, net::FiveTuple>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };
  using RankIndex = std::set<std::pair<double, net::FiveTuple>, WorstFirst>;

  struct Shard {
    /// Flat maps (common/flat_hash_map.h): ingest does one lookup+insert per
    /// record, and the dense layout removes the per-entry heap node and the
    /// bucket-pointer chase unordered_map paid there. Iteration order is
    /// insertion-order-until-erase (not hash order); every query that needs
    /// determinism sorts, as before.
    common::FlatHashMap<net::FiveTuple, common::LatencySketch> flows;
    common::FlatHashMap<LinkId, common::LatencySketch> links;
    /// Lazily rebuilt by top_k_ranked when `rank_stale` — mutable because
    /// the rebuild happens inside const query methods (logical const; see
    /// the class comment for the synchronization contract).
    mutable RankIndex rank;
    mutable bool rank_stale = false;
  };

  [[nodiscard]] std::size_t shard_for(const net::FiveTuple& key) const {
    return key.hash() % config_.shard_count;
  }
  /// Merges `sketch` into `key`'s flow state and marks the shard's rank
  /// index stale (the single mutation path ingest and merge share).
  void merge_into_flow(Shard& shard, const net::FiveTuple& key,
                       const common::LatencySketch& sketch);
  /// View counterpart (merge_sketch_view instead of merge; same staleness).
  void merge_into_flow(Shard& shard, const net::FiveTuple& key, const SketchView& sketch);
  /// Re-ranks a stale shard's flows at the configured top-k quantile.
  void refresh_rank(const Shard& shard) const;
  /// The scan implementation behind top_k_flows_scan and the un-indexed
  /// fallback of top_k_ranked — one copy of the ordering/tie-break rules.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked_scan(std::size_t k, double q) const;

  CollectorConfig config_;
  std::vector<Shard> shards_;
  std::unordered_set<std::uint32_t> epochs_;
  std::uint64_t records_ = 0;
  std::uint64_t estimates_ = 0;
  SketchHistoryStore* history_ = nullptr;
};

}  // namespace rlir::collect
