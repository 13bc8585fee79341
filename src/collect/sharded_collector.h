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
// Threading: every method may be called from any thread (flow()'s pointer
// carries its own caveat). Each shard owns a mutex over its maps, cached
// top-k answer, epoch runs and estimate count. An ingest groups the batch by
// shard and merges each shard's share under one hold of that shard's lock,
// so producers on different shards merge in parallel. No code path holds two
// shard locks at once. An ingest is complete when it returns: a query
// issued after it sees it, and the record count includes it. Because merge
// is exact and commutative, any interleaving of producers converges to the
// state one thread would reach on the same records, bin for bin.
//
// Query API: per-flow quantiles, per-link latency distributions, fleet-wide
// distribution, and top-k worst-latency flows. Each shard caches its last
// top-k answer: its worst flows at the quantile last asked, at most as many
// as were asked for. A top-k query re-scans a shard only if the shard was
// merged into since its last scan, was last ranked at another quantile, or
// was last asked for fewer flows; the scan takes one quantile per flow,
// selects the worst with std::partial_sort and summarizes only those.
// Otherwise the query copies the cached entries and touches no flow. The
// shards' answers then go through the same selection. Ingest pays one store
// per record to drop the cache, and the cache holds at most the largest k
// asked since the shard last changed (or its flows, if fewer).
#pragma once

#include <cstdint>
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

/// The worst-first ordering contract every top-k path shares — shard scan,
/// full scan, and the coordinator's cross-agent merge: higher value first,
/// flow key as the deterministic tie-break.
[[nodiscard]] inline bool ranked_worse_first(const RankedFlowSummary& a,
                                             const RankedFlowSummary& b) {
  if (a.first != b.first) return a.first > b.first;
  return a.second.key < b.second.key;
}

/// Keeps the `k` worst entries, worst first (ranked_worse_first): the one
/// selection every top-k merge shares — a shard's scan, the union of the
/// shards' answers, and the coordinator's union of agents' answers. It
/// allocates nothing, so a peer's `k` sizes nothing.
void select_worst_first(std::vector<RankedFlowSummary>& ranked, std::size_t k);

/// The summary derived from a flow's merged sketch — the one derivation
/// every top-k path uses (collector, full scan, coordinator), so a summary
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
  /// no sketch is materialized) into the flow tables and link aggregates.
  void ingest(const std::vector<RecordView>& batch);
  /// Owned records: encodes the batch and ingests its views (encode_views),
  /// so both overloads share one merge body and reach the same state.
  void ingest(const std::vector<EstimateRecord>& batch);

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
  /// from the shards' cached answers; a shard scans its flows first if it
  /// changed since, was last ranked at another quantile, or was last asked
  /// for fewer flows.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows(std::size_t k, double q = 0.99) const;
  /// top_k_flows with each summary's ranking value attached — what a higher
  /// tier needs to merge top-k answers from several collectors without
  /// re-deriving the sort key.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q) const;
  /// Reference implementation: summarizes every flow and sorts them all.
  /// Exposed so tests (and operators who suspect the cache) can cross-check
  /// the fast path; results are identical at every quantile.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows_scan(std::size_t k, double q) const;

  /// A copy of the current state, taken one shard lock at a time, with the
  /// same shard layout and a private registry — the bridge to code that
  /// holds flow() pointers, and the equivalence oracle in tests. Every
  /// shard is copied whole, so a batch a concurrent ingest is still merging
  /// may be partly in the copy; the copy's record count is read first, so
  /// it counts no record the copy lacks.
  [[nodiscard]] ShardedCollector snapshot() const;

  // --- Accounting (read under the shard locks, like the queries) ------------

  [[nodiscard]] std::size_t flow_count() const;
  /// Records merged so far: the rlir_collect_records_submitted_total
  /// counter, added to once all of a batch's shares are merged.
  [[nodiscard]] std::uint64_t records_ingested() const;
  [[nodiscard]] std::uint64_t estimates_ingested() const;
  /// Distinct epochs seen in ingested records: the merged runs' lengths
  /// summed, O(runs) and never a per-epoch copy.
  [[nodiscard]] std::size_t epoch_count() const;
  /// Epochs seen, ascending (the merged runs expanded).
  [[nodiscard]] std::vector<std::uint32_t> epochs_seen() const;
  /// Flows per shard (load-balance visibility).
  [[nodiscard]] std::vector<std::size_t> shard_flow_counts() const;
  /// Approximate resident bytes of all flow sketches — O(flows x bins),
  /// independent of how many estimates were ingested.
  [[nodiscard]] std::size_t approx_flow_bytes() const;

  [[nodiscard]] const CollectorConfig& config() const { return config_; }

 private:
  /// Inclusive run of consecutive epochs. A shard keeps its epochs as
  /// sorted, disjoint, non-adjacent runs, so a long-lived collector holds
  /// one run per gap, not one entry per epoch.
  struct EpochRun {
    std::uint32_t first = 0;
    std::uint32_t last = 0;
  };

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
    /// The shard's last top-k answer: its `top_k` worst flows at quantile
    /// `top_q` (every flow, if it has fewer), worst first. It answers any
    /// query at `top_q` for at most `top_k` flows; a merge sets `top_k` to 0
    /// so the next query scans again. Mutable because the scan runs inside
    /// const queries, under `mu`.
    mutable std::vector<RankedFlowSummary> top;
    mutable double top_q = 0.0;
    mutable std::size_t top_k = 0;
    std::vector<EpochRun> epochs;
    std::uint64_t estimates = 0;
  };

  [[nodiscard]] std::size_t shard_for(const net::FiveTuple& key) const {
    return key.hash() % config_.shard_count;
  }
  /// Merges one record into its shard, whose lock the caller holds.
  void merge_record(Shard& shard, const RecordView& record);
  /// Adds `epoch` to a shard's runs, merging it with its neighbours.
  static void note_epoch(std::vector<EpochRun>& runs, std::uint32_t epoch);
  /// Every shard's runs merged into one sorted, disjoint, non-adjacent list.
  [[nodiscard]] std::vector<EpochRun> epoch_runs() const;
  /// Re-scans a shard's flows for its `k` worst at quantile `q` unless its
  /// cached answer already covers them.
  static void rank_shard(const Shard& shard, std::size_t k, double q);

  CollectorConfig config_;
  obs::Instrumented obs_;
  /// unique_ptr: a Shard holds a mutex, so it cannot move; the collector
  /// moves by handing over the slots.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Records merged by ingest (rlir_collect_records_submitted_total): the
  /// one count behind records_ingested().
  obs::Counter* submitted_ = nullptr;
};

}  // namespace rlir::collect
