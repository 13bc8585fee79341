// The fleet-side collection tier: ingests estimate-record batches from many
// vantage points and answers latency queries across all of them.
//
// Records are routed by flow-key hash to one of N shards; each shard keeps a
// flow table of merged sketches plus per-link (vantage) aggregates. Because
// sketch merge is exact (bin-wise addition), any grouping of the same
// records — by shard, by epoch, by agent — converges to the same state,
// which is what makes the tier horizontally scalable: a coordinator merges
// partitioned agents' answers bin for bin (transport/coordinator.h).
//
// Threading: every method but set_history may be called from any thread
// (flow()'s pointer carries its own caveat). Each shard owns a mutex over
// its maps, rank index, epoch set and counts. An ingest groups the batch
// by shard and merges each shard's share under
// one hold of that shard's lock, so producers on different shards merge in
// parallel. No code path holds two shard locks at once. An ingest is
// complete when it returns: a query issued after it sees it. Because merge
// is exact and commutative, any interleaving of producers converges to the
// state one thread would reach on the same records, bin for bin.
//
// Query API: per-flow quantiles, per-link latency distributions, fleet-wide
// distribution, and top-k worst-latency flows. Top-k is served from a
// per-shard rank index (each shard keeps its flows ordered worst-first at
// the quantile last asked): each shard contributes its first k entries and
// the union is re-sorted — O(k·shards) per query instead of a full scan that
// re-sketches every flow. The index is keyed on the quantile asked and
// rebuilt lazily: ingest only marks the shard stale, and the first top-k
// query after a write, or at a different quantile, re-ranks that shard's
// flows under its lock. Collection is millions of records between queries,
// and a deployment asks at one quantile, so paying O(flows·log flows) once
// per query instead of O(log flows) plus a quantile walk on EVERY record is
// the right side of the trade by orders of magnitude.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "common/flat_hash_map.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/instrument.h"

namespace rlir::collect {

class SketchHistoryStore;

struct CollectorConfig {
  /// Shard fan-out. More shards = smaller per-shard flow tables (and, in a
  /// distributed deployment, more machines). Must be >= 1.
  std::size_t shard_count = 8;
  /// Observability attachment (see obs/instrument.h): the
  /// rlir_collect_records_submitted_total counter. Null members = the
  /// collector owns a private registry/trace.
  obs::Instruments instruments{};
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
/// full scan, and the coordinator's cross-agent merge: higher value first,
/// flow key as the deterministic tie-break.
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
  /// Throws std::invalid_argument if shard_count is 0.
  explicit ShardedCollector(CollectorConfig config);

  /// Move-only: a copy is an explicit snapshot().
  ShardedCollector(ShardedCollector&&) noexcept = default;
  ShardedCollector& operator=(ShardedCollector&&) noexcept = default;

  /// Merges a batch of decoded RecordViews (they borrow the wire bytes, so
  /// no sketch is materialized) into the flow tables and link aggregates,
  /// then tees the batch to the attached history store.
  void ingest(const std::vector<RecordView>& batch);
  /// Owned records: encodes the batch and ingests its views (encode_views),
  /// so both overloads share one merge body and reach the same state.
  void ingest(const std::vector<EstimateRecord>& batch);

  /// Attaches a history store tee (see collect/history.h): every batch
  /// ingested after this call is also appended to `history`'s epoch log.
  /// Borrowed — the store must outlive the last ingest; null detaches.
  /// Attach before the first ingest; the pointer itself is not locked.
  void set_history(SketchHistoryStore* history) { history_ = history; }
  [[nodiscard]] SketchHistoryStore* history() const { return history_; }

  // --- Queries (each reads under the shard locks) ---------------------------

  /// Merged sketch of one flow across all links/epochs; nullptr if unseen.
  /// The pointer is only stable while nothing ingests into the collector
  /// (a snapshot, or a single-threaded caller); use flow_sketch otherwise.
  [[nodiscard]] const common::LatencySketch* flow(const net::FiveTuple& key) const;
  /// One flow's merged sketch by value (the transport tier ships it to a
  /// coordinator, which merges split flows bin-wise); nullopt if unseen.
  [[nodiscard]] std::optional<common::LatencySketch> flow_sketch(const net::FiveTuple& key) const;
  /// Quantile of one flow's latency distribution; nullopt if unseen.
  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q) const;
  [[nodiscard]] std::optional<FlowSummary> flow_summary(const net::FiveTuple& key) const;

  /// Latency distribution observed at one vantage point (merged across
  /// shards); nullopt if the link never produced a record.
  [[nodiscard]] std::optional<common::LatencySketch> link_distribution(LinkId link) const;
  /// All links with data, ascending.
  [[nodiscard]] std::vector<LinkId> links() const;
  /// Every link with data and its merged distribution, ascending by link —
  /// one pass instead of links() + a query per link.
  [[nodiscard]] std::vector<std::pair<LinkId, common::LatencySketch>> link_distributions() const;

  /// Fleet-wide latency distribution (union of every link's sketch).
  [[nodiscard]] common::LatencySketch fleet() const;

  /// The k flows with the highest latency at quantile `q`, worst first.
  /// Ties break on flow key so results are deterministic. The answer comes
  /// from the per-shard rank indexes in O(k·shards); a shard re-ranks first
  /// if it changed since, or was last ranked at another quantile.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows(std::size_t k, double q = 0.99) const;
  /// top_k_flows with each summary's ranking value attached — what a higher
  /// tier needs to merge top-k answers from several collectors without
  /// re-deriving the sort key.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q) const;
  /// Reference implementation: scans and re-sketches every flow. Exposed so
  /// tests (and operators who suspect the index) can cross-check the fast
  /// path; results are identical at every quantile.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows_scan(std::size_t k, double q) const;

  /// A copy of the current state, taken one shard lock at a time, with the
  /// same shard layout and a private registry — the bridge to code that
  /// holds flow() pointers, and the equivalence oracle in tests. Every
  /// shard is copied whole, so a batch a concurrent ingest is still merging
  /// may be partly in the copy.
  [[nodiscard]] ShardedCollector snapshot() const;

  // --- Accounting (read under the shard locks, like the queries) ------------

  [[nodiscard]] std::size_t flow_count() const;
  [[nodiscard]] std::uint64_t records_ingested() const;
  [[nodiscard]] std::uint64_t estimates_ingested() const;
  /// Distinct epochs seen in ingested records.
  [[nodiscard]] std::size_t epoch_count() const { return epochs_seen().size(); }
  /// Epochs seen, ascending.
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

  /// One shard's state and the lock every merge and query into it holds.
  struct Shard {
    mutable std::mutex mu;
    /// Flat maps (common/flat_hash_map.h): ingest does one lookup+insert per
    /// record, and the dense layout removes the per-entry heap node and the
    /// bucket-pointer chase unordered_map paid there. Iteration order is
    /// insertion-order-until-erase (not hash order); every query that needs
    /// determinism sorts, as before.
    common::FlatHashMap<net::FiveTuple, common::LatencySketch> flows;
    common::FlatHashMap<LinkId, common::LatencySketch> links;
    /// Flows ranked at quantile `rank_q`, rebuilt by top_k_ranked when
    /// `rank_stale` or asked at another quantile — mutable because the
    /// rebuild happens inside const queries, under `mu`.
    mutable RankIndex rank;
    mutable double rank_q = 0.0;
    mutable bool rank_stale = false;
    std::unordered_set<std::uint32_t> epochs;
    std::uint64_t records = 0;
    std::uint64_t estimates = 0;
  };

  [[nodiscard]] std::size_t shard_for(const net::FiveTuple& key) const {
    return key.hash() % config_.shard_count;
  }
  /// Merges one record into its shard, whose lock the caller holds.
  void merge_record(Shard& shard, const RecordView& record);
  /// Re-ranks a shard's flows at quantile `q` unless its index is fresh and
  /// already keyed on `q`.
  void refresh_rank(const Shard& shard, double q) const;

  CollectorConfig config_;
  obs::Instrumented obs_;
  /// unique_ptr: a Shard holds a mutex, so it cannot move; the collector
  /// moves by handing over the slots.
  std::vector<std::unique_ptr<Shard>> shards_;
  SketchHistoryStore* history_ = nullptr;
  /// Records accepted by ingest (rlir_collect_records_submitted_total).
  obs::Counter* submitted_ = nullptr;
};

}  // namespace rlir::collect
