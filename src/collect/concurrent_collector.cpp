#include "collect/concurrent_collector.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

namespace rlir::collect {

namespace {

CollectorConfig lane_config(const ConcurrentCollectorConfig& config) {
  CollectorConfig cfg;
  cfg.shard_count = 1;  // the lane IS the shard; fan-out lives up here
  cfg.sketch = config.sketch;
  cfg.top_k_quantile = config.top_k_quantile;
  return cfg;
}

double relative_accuracy(const EstimateRecord& record) {
  return record.sketch.config().relative_accuracy;
}
double relative_accuracy(const RecordView& record) { return record.sketch.relative_accuracy; }

/// Where a record's bins live: the owned sketch's heap array, or the wire
/// bytes a view borrows.
const void* bins_of(const EstimateRecord& record) {
  const auto& bins = record.sketch.bins();
  return bins.empty() ? nullptr : &*bins.begin();
}
const void* bins_of(const RecordView& record) { return record.sketch.bins; }

/// Grouping scratch, one per submitting thread and reused across batches, so
/// steady-state ingest allocates nothing per batch.
struct LaneGrouping {
  std::vector<std::size_t> lane_of;  // lane of each batch index
  std::vector<std::size_t> bounds;   // lane l's share is order[bounds[l], bounds[l + 1])
  std::vector<std::size_t> order;    // batch indexes grouped by lane
};
thread_local LaneGrouping grouping;

}  // namespace

ConcurrentShardedCollector::ConcurrentShardedCollector(ConcurrentCollectorConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ConcurrentShardedCollector: shard_count must be >= 1");
  }
  submitted_ = obs_.registry().counter("rlir_collect_records_submitted_total", obs_.labels());
  // top_k_quantile is validated by the lane ShardedCollector constructors.
  lanes_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    lanes_.push_back(std::make_unique<Lane>(lane_config(config_)));
  }
}

template <typename Record>
void ConcurrentShardedCollector::merge_by_lane(const std::vector<Record>& batch) {
  const std::size_t n_lanes = lanes_.size();
  LaneGrouping& g = grouping;
  g.lane_of.resize(batch.size());
  g.bounds.assign(n_lanes + 1, 0);
  // Validate and route in one pass. No lane is touched until the whole batch
  // has passed, so a bad record rejects the batch whole.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (relative_accuracy(batch[i]) != config_.sketch.relative_accuracy) {
      throw std::invalid_argument(
          "ConcurrentShardedCollector::submit: record sketch accuracy differs from config");
    }
    g.lane_of[i] = batch[i].key.hash() % n_lanes;
    ++g.bounds[g.lane_of[i]];
  }
  submitted_->add(batch.size());
  // Counting sort: the prefix sums make bounds[l] the end of lane l's share,
  // and filling from the back walks it down to the start while keeping each
  // lane's records in submission order.
  std::partial_sum(g.bounds.begin(), g.bounds.end(), g.bounds.begin());
  g.order.resize(batch.size());
  for (std::size_t i = batch.size(); i-- > 0;) g.order[--g.bounds[g.lane_of[i]]] = i;
  // One lock hold per lane share, never two lanes at once. Producers racing
  // on a lane interleave whole shares, which converges to the serial state
  // because merge is exact and commutative.
  for (std::size_t l = 0; l < n_lanes; ++l) {
    if (g.bounds[l] == g.bounds[l + 1]) continue;
    Lane& lane = *lanes_[l];
    const std::lock_guard<std::mutex> lock(lane.state_mu);
    const std::size_t last = g.bounds[l + 1];
    for (std::size_t k = g.bounds[l]; k < last; ++k) {
      // A lane's records are scattered through the batch, so the hardware
      // prefetcher cannot run ahead of this loop. Request the record 16
      // ahead, and the bins of the record 8 ahead, whose own bytes have
      // arrived by now.
      if (k + 16 < last) {
        const auto* ahead = reinterpret_cast<const char*>(&batch[g.order[k + 16]]);
        for (std::size_t b = 0; b < sizeof(Record); b += 64) __builtin_prefetch(ahead + b);
      }
      if (k + 8 < last) __builtin_prefetch(bins_of(batch[g.order[k + 8]]));
      lane.state.ingest(batch[g.order[k]]);
    }
  }
}

void ConcurrentShardedCollector::submit(const std::vector<EstimateRecord>& batch) {
  merge_by_lane(batch);
}

void ConcurrentShardedCollector::submit_views(const std::vector<RecordView>& batch) {
  merge_by_lane(batch);
}

void ConcurrentShardedCollector::set_history(SketchHistoryStore* history) {
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    lane->state.set_history(history);
  }
}

SketchHistoryStore* ConcurrentShardedCollector::history() {
  const std::lock_guard<std::mutex> lock(lanes_.front()->state_mu);
  return lanes_.front()->state.history();
}

std::optional<double> ConcurrentShardedCollector::flow_quantile(const net::FiveTuple& key,
                                                                double q) {
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  return lane.state.flow_quantile(key, q);
}

std::optional<FlowSummary> ConcurrentShardedCollector::flow_summary(const net::FiveTuple& key) {
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  return lane.state.flow_summary(key);
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::flow_sketch(
    const net::FiveTuple& key) {
  Lane& lane = lane_for(key);
  const std::lock_guard<std::mutex> lock(lane.state_mu);
  const auto* sketch = lane.state.flow(key);
  if (sketch == nullptr) return std::nullopt;
  return *sketch;
}

std::optional<common::LatencySketch> ConcurrentShardedCollector::link_distribution(LinkId link) {
  common::LatencySketch merged(config_.sketch);
  bool seen = false;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    if (auto dist = lane->state.link_distribution(link)) {
      merged.merge(*dist);
      seen = true;
    }
  }
  if (!seen) return std::nullopt;
  return merged;
}

std::vector<LinkId> ConcurrentShardedCollector::links() {
  std::vector<LinkId> ids;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    const auto lane_ids = lane->state.links();
    ids.insert(ids.end(), lane_ids.begin(), lane_ids.end());
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::pair<LinkId, common::LatencySketch>>
ConcurrentShardedCollector::link_distributions() {
  std::map<LinkId, common::LatencySketch> merged;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    for (const auto link : lane->state.links()) {
      const auto dist = lane->state.link_distribution(link);
      auto [it, inserted] = merged.try_emplace(link, config_.sketch);
      it->second.merge(*dist);
    }
  }
  return {merged.begin(), merged.end()};
}

common::LatencySketch ConcurrentShardedCollector::fleet() {
  common::LatencySketch all(config_.sketch);
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    all.merge(lane->state.fleet());
  }
  return all;
}

std::vector<RankedFlowSummary> ConcurrentShardedCollector::top_k_ranked(std::size_t k,
                                                                        double q) {
  std::vector<RankedFlowSummary> ranked;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    auto lane_top = lane->state.top_k_ranked(k, q);
    ranked.insert(ranked.end(), std::make_move_iterator(lane_top.begin()),
                  std::make_move_iterator(lane_top.end()));
  }
  // Global top-k is contained in the union of per-lane top-k's; re-rank with
  // the shared ordering contract and truncate.
  std::sort(ranked.begin(), ranked.end(), ranked_worse_first);
  if (ranked.size() > k) ranked.resize(k);
  return ranked;
}

std::vector<FlowSummary> ConcurrentShardedCollector::top_k_flows(std::size_t k, double q) {
  return strip_ranks(top_k_ranked(k, q));
}

ShardedCollector ConcurrentShardedCollector::snapshot() {
  CollectorConfig cfg;
  cfg.shard_count = config_.shard_count;
  cfg.sketch = config_.sketch;
  cfg.top_k_quantile = config_.top_k_quantile;
  ShardedCollector merged(cfg);
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    merged.merge(lane->state);
  }
  return merged;
}

std::size_t ConcurrentShardedCollector::flow_count() {
  std::size_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.flow_count();
  }
  return n;
}

std::uint64_t ConcurrentShardedCollector::records_ingested() {
  std::uint64_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.records_ingested();
  }
  return n;
}

std::uint64_t ConcurrentShardedCollector::estimates_ingested() {
  std::uint64_t n = 0;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    n += lane->state.estimates_ingested();
  }
  return n;
}

std::size_t ConcurrentShardedCollector::epoch_count() {
  std::vector<std::uint32_t> epochs;
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    const auto seen = lane->state.epochs_seen();
    epochs.insert(epochs.end(), seen.begin(), seen.end());
  }
  std::sort(epochs.begin(), epochs.end());
  epochs.erase(std::unique(epochs.begin(), epochs.end()), epochs.end());
  return epochs.size();
}

std::vector<std::size_t> ConcurrentShardedCollector::shard_flow_counts() {
  std::vector<std::size_t> counts;
  counts.reserve(lanes_.size());
  for (auto& lane : lanes_) {
    const std::lock_guard<std::mutex> lock(lane->state_mu);
    counts.push_back(lane->state.flow_count());
  }
  return counts;
}

}  // namespace rlir::collect
