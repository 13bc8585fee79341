#include "collect/sharded_collector.h"

#include <algorithm>
#include <queue>
#include <stdexcept>

#include "collect/history.h"

namespace rlir::collect {

ShardedCollector::ShardedCollector(CollectorConfig config) : config_(config) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ShardedCollector: shard_count must be >= 1");
  }
  if (config_.top_k_quantile < 0.0 || config_.top_k_quantile > 1.0) {
    throw std::invalid_argument("ShardedCollector: top_k_quantile must be in [0, 1]");
  }
  shards_.resize(config_.shard_count);
}

void ShardedCollector::merge_into_flow(Shard& shard, const net::FiveTuple& key,
                                       const common::LatencySketch& sketch) {
  auto [it, inserted] = shard.flows.try_emplace(key, common::LatencySketch(config_.sketch));
  it->second.merge(sketch);
  shard.rank_stale = true;
}

void ShardedCollector::ingest(const EstimateRecord& record) {
  // Reject before touching any state, so a mismatched record can't leave
  // phantom empty flow/link entries behind.
  if (record.sketch.config().relative_accuracy != config_.sketch.relative_accuracy) {
    throw std::invalid_argument(
        "ShardedCollector::ingest: record sketch accuracy differs from collector config");
  }
  Shard& shard = shards_[shard_for(record.key)];

  merge_into_flow(shard, record.key, record.sketch);

  // A link's records scatter across flow shards, so link aggregates are kept
  // per shard and unioned at query time (exact merge makes that lossless).
  auto [link_it, link_inserted] =
      shard.links.try_emplace(record.link, common::LatencySketch(config_.sketch));
  link_it->second.merge(record.sketch);

  epochs_.insert(record.epoch);
  ++records_;
  estimates_ += record.sketch.count();

  if (history_ != nullptr) history_->ingest(record);
}

void ShardedCollector::ingest(const std::vector<EstimateRecord>& batch) {
  for (const auto& record : batch) ingest(record);
}

void ShardedCollector::merge_into_flow(Shard& shard, const net::FiveTuple& key,
                                       const SketchView& sketch) {
  auto [it, inserted] = shard.flows.try_emplace(key, common::LatencySketch(config_.sketch));
  merge_sketch_view(it->second, sketch);
  shard.rank_stale = true;
}

void ShardedCollector::refresh_rank(const Shard& shard) const {
  if (!shard.rank_stale) return;
  shard.rank.clear();
  for (const auto& [key, sketch] : shard.flows) {
    shard.rank.insert({sketch.quantile(config_.top_k_quantile), key});
  }
  shard.rank_stale = false;
}

void ShardedCollector::ingest(const RecordView& record) {
  // Same state transitions as the owning overload, sourced from the wire
  // bytes the view borrows.
  if (record.sketch.relative_accuracy != config_.sketch.relative_accuracy) {
    throw std::invalid_argument(
        "ShardedCollector::ingest: record sketch accuracy differs from collector config");
  }
  Shard& shard = shards_[shard_for(record.key)];

  merge_into_flow(shard, record.key, record.sketch);

  auto [link_it, link_inserted] =
      shard.links.try_emplace(record.link, common::LatencySketch(config_.sketch));
  merge_sketch_view(link_it->second, record.sketch);

  epochs_.insert(record.epoch);
  ++records_;
  estimates_ += record.sketch.count();

  if (history_ != nullptr) history_->ingest(record);
}

void ShardedCollector::merge(const ShardedCollector& other) {
  if (&other == this) {
    // Self-merge would re-home link aggregates into shards still pending
    // iteration and count them repeatedly; merging a snapshot gives the
    // clean "every record twice" semantics instead.
    const ShardedCollector snapshot(other);
    merge(snapshot);
    return;
  }
  // Same up-front rejection as ingest(): a mismatched replica must not
  // leave phantom entries behind by throwing mid-merge. (Every sketch in
  // `other` carries its config's accuracy — ingest enforced that.)
  if (other.config_.sketch.relative_accuracy != config_.sketch.relative_accuracy) {
    throw std::invalid_argument(
        "ShardedCollector::merge: replica sketch accuracy differs from collector config");
  }
  for (const auto& shard : other.shards_) {
    for (const auto& [key, sketch] : shard.flows) {
      merge_into_flow(shards_[shard_for(key)], key, sketch);
    }
    for (const auto& [link_id, sketch] : shard.links) {
      // Keep each link aggregate in a single home shard when re-merging so
      // repeated replica unions don't scatter state: home = link % shards.
      Shard& mine = shards_[link_id % config_.shard_count];
      auto [it, inserted] = mine.links.try_emplace(link_id, common::LatencySketch(config_.sketch));
      it->second.merge(sketch);
    }
  }
  epochs_.insert(other.epochs_.begin(), other.epochs_.end());
  records_ += other.records_;
  estimates_ += other.estimates_;
}

const common::LatencySketch* ShardedCollector::flow(const net::FiveTuple& key) const {
  const Shard& shard = shards_[shard_for(key)];
  const auto it = shard.flows.find(key);
  return it == shard.flows.end() ? nullptr : &it->second;
}

std::optional<double> ShardedCollector::flow_quantile(const net::FiveTuple& key, double q) const {
  const auto* sketch = flow(key);
  if (sketch == nullptr) return std::nullopt;
  return sketch->quantile(q);
}

FlowSummary summarize(const net::FiveTuple& key, const common::LatencySketch& sketch) {
  FlowSummary s;
  s.key = key;
  s.packets = sketch.count();
  s.mean_ns = sketch.mean();
  s.p50_ns = sketch.quantile(0.5);
  s.p99_ns = sketch.quantile(0.99);
  s.max_ns = sketch.max();
  return s;
}

std::optional<FlowSummary> ShardedCollector::flow_summary(const net::FiveTuple& key) const {
  const auto* sketch = flow(key);
  if (sketch == nullptr) return std::nullopt;
  return summarize(key, *sketch);
}

std::optional<common::LatencySketch> ShardedCollector::link_distribution(LinkId link_id) const {
  common::LatencySketch merged(config_.sketch);
  bool seen = false;
  for (const auto& shard : shards_) {
    const auto it = shard.links.find(link_id);
    if (it != shard.links.end()) {
      merged.merge(it->second);
      seen = true;
    }
  }
  if (!seen) return std::nullopt;
  return merged;
}

std::vector<LinkId> ShardedCollector::links() const {
  std::vector<LinkId> ids;
  for (const auto& shard : shards_) {
    for (const auto& [link_id, sketch] : shard.links) ids.push_back(link_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

common::LatencySketch ShardedCollector::fleet() const {
  common::LatencySketch all(config_.sketch);
  for (const auto& shard : shards_) {
    for (const auto& [link_id, sketch] : shard.links) {
      (void)link_id;
      all.merge(sketch);
    }
  }
  return all;
}

std::vector<FlowSummary> strip_ranks(std::vector<RankedFlowSummary>&& ranked) {
  std::vector<FlowSummary> top;
  top.reserve(ranked.size());
  for (auto& [value, summary] : ranked) {
    (void)value;
    top.push_back(std::move(summary));
  }
  return top;
}

std::vector<FlowSummary> ShardedCollector::top_k_flows(std::size_t k, double q) const {
  return strip_ranks(top_k_ranked(k, q));
}

std::vector<RankedFlowSummary> ShardedCollector::top_k_ranked_scan(std::size_t k,
                                                                   double q) const {
  std::vector<RankedFlowSummary> top;
  top.reserve(flow_count());
  for (const auto& shard : shards_) {
    for (const auto& [key, sketch] : shard.flows) {
      top.emplace_back(sketch.quantile(q), summarize(key, sketch));
    }
  }
  std::sort(top.begin(), top.end(), ranked_worse_first);
  if (top.size() > k) top.resize(k);
  return top;
}

std::vector<RankedFlowSummary> ShardedCollector::top_k_ranked(std::size_t k, double q) const {
  // Un-indexed quantile: full scan, but still return the ranking values.
  if (q != config_.top_k_quantile) return top_k_ranked_scan(k, q);

  std::vector<RankedFlowSummary> top;
  // k-way merge of the per-shard rank indexes: a heap of shard cursors,
  // bounded by shard count, pops the globally worst remaining flow k times.
  // Each index is already in WorstFirst order, so the pop sequence is the
  // exact prefix the scan path would produce after its full sort.
  struct Cursor {
    RankIndex::const_iterator it;
    RankIndex::const_iterator end;
    std::size_t shard;
  };
  const auto cursor_after = [](const Cursor& a, const Cursor& b) {
    // priority_queue pops the "largest"; make that the worst-first entry.
    return WorstFirst{}(*b.it, *a.it);
  };
  std::priority_queue<Cursor, std::vector<Cursor>, decltype(cursor_after)> heads(cursor_after);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    refresh_rank(shards_[s]);
    const RankIndex& rank = shards_[s].rank;
    if (!rank.empty()) heads.push(Cursor{rank.begin(), rank.end(), s});
  }

  top.reserve(std::min(k, flow_count()));
  while (top.size() < k && !heads.empty()) {
    Cursor cur = heads.top();
    heads.pop();
    const auto& [value, key] = *cur.it;
    top.emplace_back(value, summarize(key, shards_[cur.shard].flows.at(key)));
    if (++cur.it != cur.end) heads.push(cur);
  }
  return top;
}

std::vector<FlowSummary> ShardedCollector::top_k_flows_scan(std::size_t k, double q) const {
  return strip_ranks(top_k_ranked_scan(k, q));
}

std::size_t ShardedCollector::flow_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) n += shard.flows.size();
  return n;
}

std::vector<std::uint32_t> ShardedCollector::epochs_seen() const {
  std::vector<std::uint32_t> out(epochs_.begin(), epochs_.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::size_t> ShardedCollector::shard_flow_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) counts.push_back(shard.flows.size());
  return counts;
}

std::size_t ShardedCollector::approx_flow_bytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    for (const auto& [key, sketch] : shard.flows) {
      (void)key;
      bytes += sketch.approx_bytes();
    }
  }
  return bytes;
}

}  // namespace rlir::collect
