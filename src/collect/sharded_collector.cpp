#include "collect/sharded_collector.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>

#include "collect/history.h"

namespace rlir::collect {

namespace {

/// Grouping scratch, one per ingesting thread and reused across batches, so
/// steady-state ingest allocates nothing per batch.
struct ShardGrouping {
  std::vector<std::size_t> shard_of;  // shard of each batch index
  std::vector<std::size_t> bounds;    // shard s's share is order[bounds[s], bounds[s + 1])
  std::vector<std::size_t> order;     // batch indexes grouped by shard
};
thread_local ShardGrouping grouping;

}  // namespace

ShardedCollector::ShardedCollector(CollectorConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.shard_count == 0) {
    throw std::invalid_argument("ShardedCollector: shard_count must be >= 1");
  }
  submitted_ = obs_.registry().counter("rlir_collect_records_submitted_total", obs_.labels());
  shards_.reserve(config_.shard_count);
  for (std::size_t i = 0; i < config_.shard_count; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

void ShardedCollector::merge_into_flow(Shard& shard, const net::FiveTuple& key,
                                       const common::LatencySketch& sketch) {
  auto [it, inserted] = shard.flows.try_emplace(key, common::LatencySketch(config_.sketch));
  it->second.merge(sketch);
  shard.rank_stale = true;
}

void ShardedCollector::merge_record(Shard& shard, const RecordView& record) {
  auto [flow_it, flow_inserted] =
      shard.flows.try_emplace(record.key, common::LatencySketch(config_.sketch));
  merge_sketch_view(flow_it->second, record.sketch);
  shard.rank_stale = true;
  // A link's records scatter across flow shards, so link aggregates are kept
  // per shard and unioned at query time (exact merge makes that lossless).
  auto [link_it, link_inserted] =
      shard.links.try_emplace(record.link, common::LatencySketch(config_.sketch));
  merge_sketch_view(link_it->second, record.sketch);
  shard.epochs.insert(record.epoch);
  ++shard.records;
  shard.estimates += record.sketch.count();
}

void ShardedCollector::ingest(const std::vector<RecordView>& batch) {
  const std::size_t n_shards = shards_.size();
  ShardGrouping& g = grouping;
  g.shard_of.resize(batch.size());
  g.bounds.assign(n_shards + 1, 0);
  // Validate and route in one pass. No shard is touched until the whole
  // batch has passed, so a bad record rejects the batch whole and leaves no
  // phantom flow or link entries behind.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].sketch.relative_accuracy != config_.sketch.relative_accuracy) {
      throw std::invalid_argument(
          "ShardedCollector::ingest: record sketch accuracy differs from collector config");
    }
    g.shard_of[i] = shard_for(batch[i].key);
    ++g.bounds[g.shard_of[i]];
  }
  submitted_->add(batch.size());
  // Counting sort: the prefix sums make bounds[s] the end of shard s's
  // share, and filling from the back walks it down to the start while
  // keeping each shard's records in batch order.
  std::partial_sum(g.bounds.begin(), g.bounds.end(), g.bounds.begin());
  g.order.resize(batch.size());
  for (std::size_t i = batch.size(); i-- > 0;) g.order[--g.bounds[g.shard_of[i]]] = i;
  // One lock hold per shard share, never two shards at once. Producers
  // racing on a shard interleave whole shares, which converges to the serial
  // state because merge is exact and commutative.
  for (std::size_t s = 0; s < n_shards; ++s) {
    if (g.bounds[s] == g.bounds[s + 1]) continue;
    Shard& shard = *shards_[s];
    const std::lock_guard<std::mutex> lock(shard.mu);
    const std::size_t last = g.bounds[s + 1];
    for (std::size_t k = g.bounds[s]; k < last; ++k) {
      // A shard's records are scattered through the batch, so the hardware
      // prefetcher cannot run ahead of this loop. Request the record 16
      // ahead, and the bins of the record 8 ahead, whose own bytes have
      // arrived by now.
      if (k + 16 < last) {
        const auto* ahead = reinterpret_cast<const char*>(&batch[g.order[k + 16]]);
        for (std::size_t b = 0; b < sizeof(RecordView); b += 64) __builtin_prefetch(ahead + b);
      }
      if (k + 8 < last) __builtin_prefetch(batch[g.order[k + 8]].sketch.bins);
      merge_record(shard, batch[g.order[k]]);
    }
  }
  if (history_ != nullptr) history_->ingest_views(batch);
}

void ShardedCollector::ingest(const std::vector<EstimateRecord>& batch) {
  ingest(encode_views(batch).views);
}

void ShardedCollector::refresh_rank(const Shard& shard, double q) const {
  if (!shard.rank_stale && shard.rank_q == q) return;
  shard.rank.clear();
  for (const auto& [key, sketch] : shard.flows) shard.rank.insert({sketch.quantile(q), key});
  shard.rank_q = q;
  shard.rank_stale = false;
}

ShardedCollector ShardedCollector::snapshot() const {
  CollectorConfig cfg = config_;
  cfg.instruments = {};
  ShardedCollector copy(cfg);
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& from = *shards_[s];
    Shard& to = *copy.shards_[s];
    const std::lock_guard<std::mutex> lock(from.mu);
    // Each sketch is merged into a fresh one, as merge() builds them, so a
    // copy's approx_flow_bytes() does not depend on how it was taken.
    for (const auto& [key, sketch] : from.flows) copy.merge_into_flow(to, key, sketch);
    for (const auto& [link_id, sketch] : from.links) {
      to.links.try_emplace(link_id, common::LatencySketch(config_.sketch))
          .first->second.merge(sketch);
    }
    to.epochs = from.epochs;
    to.records = from.records;
    to.estimates = from.estimates;
  }
  return copy;
}

void ShardedCollector::merge(const ShardedCollector& other) {
  // Same up-front rejection as ingest(): a mismatched replica must not
  // leave phantom entries behind by throwing mid-merge. (Every sketch in
  // `other` carries its config's accuracy — ingest enforced that.)
  if (other.config_.sketch.relative_accuracy != config_.sketch.relative_accuracy) {
    throw std::invalid_argument(
        "ShardedCollector::merge: replica sketch accuracy differs from collector config");
  }
  // Reading `other` and writing this collector never overlap: the snapshot
  // takes other's shard locks one at a time and releases each before any
  // of ours is taken, so a.merge(b) racing b.merge(a) cannot deadlock, and
  // a self-merge reads a stable copy ("every record twice").
  const ShardedCollector src = other.snapshot();
  for (std::size_t d = 0; d < shards_.size(); ++d) {
    Shard& dst = *shards_[d];
    const std::lock_guard<std::mutex> lock(dst.mu);
    for (const auto& from : src.shards_) {
      for (const auto& [key, sketch] : from->flows) {
        if (shard_for(key) == d) merge_into_flow(dst, key, sketch);
      }
      // Keep each link aggregate in a single home shard when re-merging so
      // repeated replica unions don't scatter state: home = link % shards.
      for (const auto& [link_id, sketch] : from->links) {
        if (link_id % shards_.size() != d) continue;
        dst.links.try_emplace(link_id, common::LatencySketch(config_.sketch))
            .first->second.merge(sketch);
      }
      if (d != 0) continue;
      // Totals are per shard only so ingest can count under the lock it
      // already holds; the replica's land in shard 0.
      dst.epochs.insert(from->epochs.begin(), from->epochs.end());
      dst.records += from->records;
      dst.estimates += from->estimates;
    }
  }
}

const common::LatencySketch* ShardedCollector::flow(const net::FiveTuple& key) const {
  const Shard& shard = *shards_[shard_for(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.flows.find(key);
  return it == shard.flows.end() ? nullptr : &it->second;
}

std::optional<common::LatencySketch> ShardedCollector::flow_sketch(
    const net::FiveTuple& key) const {
  const Shard& shard = *shards_[shard_for(key)];
  const std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.flows.find(key);
  if (it == shard.flows.end()) return std::nullopt;
  return it->second;
}

std::optional<double> ShardedCollector::flow_quantile(const net::FiveTuple& key, double q) const {
  const auto sketch = flow_sketch(key);
  if (!sketch.has_value()) return std::nullopt;
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
  const auto sketch = flow_sketch(key);
  if (!sketch.has_value()) return std::nullopt;
  return summarize(key, *sketch);
}

std::optional<common::LatencySketch> ShardedCollector::link_distribution(LinkId link_id) const {
  common::LatencySketch merged(config_.sketch);
  bool seen = false;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    const auto it = shard->links.find(link_id);
    if (it != shard->links.end()) {
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
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [link_id, sketch] : shard->links) ids.push_back(link_id);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<std::pair<LinkId, common::LatencySketch>> ShardedCollector::link_distributions()
    const {
  std::map<LinkId, common::LatencySketch> merged;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [link_id, sketch] : shard->links) {
      auto [it, inserted] = merged.try_emplace(link_id, config_.sketch);
      it->second.merge(sketch);
    }
  }
  return {merged.begin(), merged.end()};
}

common::LatencySketch ShardedCollector::fleet() const {
  common::LatencySketch all(config_.sketch);
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [link_id, sketch] : shard->links) {
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

std::vector<RankedFlowSummary> ShardedCollector::top_k_ranked(std::size_t k, double q) const {
  // The global top-k is contained in the union of the per-shard top-k's:
  // take each shard's first k in rank order, then re-sort with the shared
  // ordering contract and truncate.
  std::vector<RankedFlowSummary> top;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    refresh_rank(*shard, q);
    std::size_t taken = 0;
    for (auto it = shard->rank.begin(); it != shard->rank.end() && taken < k; ++it, ++taken) {
      const auto& [value, key] = *it;
      top.emplace_back(value, summarize(key, shard->flows.at(key)));
    }
  }
  std::sort(top.begin(), top.end(), ranked_worse_first);
  if (top.size() > k) top.resize(k);
  return top;
}

std::vector<FlowSummary> ShardedCollector::top_k_flows_scan(std::size_t k, double q) const {
  std::vector<RankedFlowSummary> top;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, sketch] : shard->flows) {
      top.emplace_back(sketch.quantile(q), summarize(key, sketch));
    }
  }
  std::sort(top.begin(), top.end(), ranked_worse_first);
  if (top.size() > k) top.resize(k);
  return strip_ranks(std::move(top));
}

std::size_t ShardedCollector::flow_count() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->flows.size();
  }
  return n;
}

std::uint64_t ShardedCollector::records_ingested() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->records;
  }
  return n;
}

std::uint64_t ShardedCollector::estimates_ingested() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->estimates;
  }
  return n;
}

std::vector<std::uint32_t> ShardedCollector::epochs_seen() const {
  std::vector<std::uint32_t> out;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    out.insert(out.end(), shard->epochs.begin(), shard->epochs.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<std::size_t> ShardedCollector::shard_flow_counts() const {
  std::vector<std::size_t> counts;
  counts.reserve(shards_.size());
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    counts.push_back(shard->flows.size());
  }
  return counts;
}

std::size_t ShardedCollector::approx_flow_bytes() const {
  std::size_t bytes = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [key, sketch] : shard->flows) {
      (void)key;
      bytes += sketch.approx_bytes();
    }
  }
  return bytes;
}

}  // namespace rlir::collect
