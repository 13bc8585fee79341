// Concurrent front-end for the sharded collection tier: estimate batches
// from many vantage points can be submitted from any thread, and batches on
// different lanes merge in parallel.
//
// Architecture: one "lane" per shard. A lane is a single-shard
// ShardedCollector behind its own mutex. A submit validates the whole batch,
// groups it by lane (flow-key hash, as ShardedCollector routes shards), and
// merges each lane's share under one hold of that lane's lock. Every submit
// runs on the caller's thread and returns only after its records are
// merged, so a query issued after a submit always sees it.
//
// Because sketch merge is exact and commutative, any interleaving of
// producers converges to the same state a serial ShardedCollector would
// reach on the same records — tests assert exact (bin-for-bin) equality.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/instrument.h"

namespace rlir::collect {

struct ConcurrentCollectorConfig {
  /// Lane fan-out: one shard and one lock per lane. Must be >= 1.
  std::size_t shard_count = 8;
  /// Accuracy/budget of the shard-side merged sketches (must match the
  /// exporters', as in ShardedCollector).
  common::LatencySketchConfig sketch;
  /// Quantile the per-lane top-k rank indexes are keyed on.
  double top_k_quantile = 0.99;
  /// Observability attachment (see obs/instrument.h). Null members = the
  /// collector owns a private registry/trace.
  obs::Instruments instruments;
};

/// Thread-safe sharded collector: submit from any thread, lane-grouped
/// inline merges, and the same query surface as ShardedCollector.
class ConcurrentShardedCollector {
 public:
  ConcurrentShardedCollector() : ConcurrentShardedCollector(ConcurrentCollectorConfig{}) {}
  /// Throws std::invalid_argument if shard_count is 0 or top_k_quantile is
  /// outside [0, 1].
  explicit ConcurrentShardedCollector(ConcurrentCollectorConfig config);

  ConcurrentShardedCollector(const ConcurrentShardedCollector&) = delete;
  ConcurrentShardedCollector& operator=(const ConcurrentShardedCollector&) = delete;

  /// Merges a batch of owned records. Callable from any thread. Validates
  /// every record's sketch accuracy before touching any lane
  /// (std::invalid_argument, whole batch rejected). Complete when it
  /// returns.
  void submit(const std::vector<EstimateRecord>& batch);

  /// Zero-copy batch ingest of decoded RecordViews (they borrow the frame
  /// payload). Same validation, grouping and completion as submit(), and
  /// the same end state as submitting the materialized records.
  void submit_views(const std::vector<RecordView>& batch);

  /// Attaches a history store tee to every lane (see
  /// ShardedCollector::set_history); the store is internally synchronized,
  /// so lanes share one safely. A submit running concurrently with this
  /// call may tee some lanes' records to the old attachment. Null detaches.
  void set_history(SketchHistoryStore* history);
  [[nodiscard]] SketchHistoryStore* history();

  // --- Queries (each reads under the lane locks) ----------------------------

  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q);
  [[nodiscard]] std::optional<FlowSummary> flow_summary(const net::FiveTuple& key);
  /// One flow's merged sketch by value (the transport tier ships it to a
  /// coordinator, which merges split flows bin-wise); nullopt if unseen.
  [[nodiscard]] std::optional<common::LatencySketch> flow_sketch(const net::FiveTuple& key);
  [[nodiscard]] std::optional<common::LatencySketch> link_distribution(LinkId link);
  [[nodiscard]] std::vector<LinkId> links();
  /// Every link with data and its merged distribution, ascending by link —
  /// one pass instead of links() + a query per link.
  [[nodiscard]] std::vector<std::pair<LinkId, common::LatencySketch>> link_distributions();
  [[nodiscard]] common::LatencySketch fleet();
  /// Exact fleet-wide top-k: per-lane O(k) answers (ingest-maintained rank
  /// indexes) merged and re-truncated — the global top-k is always contained
  /// in the union of per-lane top-k's.
  [[nodiscard]] std::vector<FlowSummary> top_k_flows(std::size_t k, double q = 0.99);
  /// top_k_flows with ranking values attached (what a higher tier or the
  /// transport query plane merges/ships), same O(k·lanes) path.
  [[nodiscard]] std::vector<RankedFlowSummary> top_k_ranked(std::size_t k, double q);

  /// A plain (single-threaded) ShardedCollector holding a merged copy of the
  /// current state — the bridge to the serial query/merge/replica APIs and
  /// the equivalence oracle in tests.
  [[nodiscard]] ShardedCollector snapshot();

  // --- Accounting (read under the lane locks, like the queries) -------------

  [[nodiscard]] std::size_t flow_count();
  [[nodiscard]] std::uint64_t records_ingested();
  [[nodiscard]] std::uint64_t estimates_ingested();
  [[nodiscard]] std::size_t epoch_count();
  [[nodiscard]] std::vector<std::size_t> shard_flow_counts();
  [[nodiscard]] const ConcurrentCollectorConfig& config() const { return config_; }

 private:
  // One shard's state and the lock every merge and query into it holds.
  struct Lane {
    std::mutex state_mu;
    ShardedCollector state;  // shard_count = 1

    explicit Lane(const CollectorConfig& cfg) : state(cfg) {}
  };

  [[nodiscard]] Lane& lane_for(const net::FiveTuple& key) {
    return *lanes_[key.hash() % lanes_.size()];
  }
  /// The one ingest routine behind submit() and submit_views().
  template <typename Record>
  void merge_by_lane(const std::vector<Record>& batch);

  ConcurrentCollectorConfig config_;
  obs::Instrumented obs_;
  /// unique_ptr: Lane holds a mutex and is neither movable nor copyable, so
  /// the vector stores stable heap slots.
  std::vector<std::unique_ptr<Lane>> lanes_;
  /// Records accepted by submit()/submit_views()
  /// (rlir_collect_records_submitted_total).
  obs::Counter* submitted_ = nullptr;
};

}  // namespace rlir::collect
