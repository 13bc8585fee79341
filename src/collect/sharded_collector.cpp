#include "collect/sharded_collector.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>
#include <stdexcept>

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

void ShardedCollector::merge_record(Shard& shard, const RecordView& record) {
  merge_sketch_view(shard.flows.try_emplace(record.key).first->second, record.sketch);
  shard.top_k = 0;
  // A link's records scatter across flow shards, so link aggregates are kept
  // per shard and unioned at query time (exact merge makes that lossless).
  merge_sketch_view(shard.links.try_emplace(record.link).first->second, record.sketch);
  note_epoch(shard.epochs, record.epoch);
  shard.estimates += record.sketch.count();
}

void ShardedCollector::note_epoch(std::vector<EpochRun>& runs, std::uint32_t epoch) {
  // At or just past the last run: the steady state of an advancing epoch
  // clock. Sums are 64-bit, so a run ending at 2^32 - 1 never reaches 0.
  if (!runs.empty() && epoch >= runs.back().first &&
      epoch <= std::uint64_t{runs.back().last} + 1) {
    runs.back().last = std::max(runs.back().last, epoch);
    return;
  }
  // Anywhere else: a one-epoch run placed in order, then merged with each
  // neighbour it touches.
  auto it = std::lower_bound(
      runs.begin(), runs.end(), epoch,
      [](const EpochRun& run, std::uint32_t e) { return run.last < e; });
  if (it != runs.end() && it->first <= epoch) return;
  it = runs.insert(it, EpochRun{epoch, epoch});
  if (std::next(it) != runs.end() && std::uint64_t{epoch} + 1 == std::next(it)->first) {
    it->last = std::next(it)->last;
    runs.erase(std::next(it));
  }
  if (it != runs.begin() && std::uint64_t{std::prev(it)->last} + 1 == epoch) {
    std::prev(it)->last = it->last;
    runs.erase(it);
  }
}

void ShardedCollector::ingest(const std::vector<RecordView>& batch) {
  const std::size_t n_shards = shards_.size();
  ShardGrouping& g = grouping;
  g.shard_of.resize(batch.size());
  g.bounds.assign(n_shards + 1, 0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    g.shard_of[i] = shard_for(batch[i].key);
    ++g.bounds[g.shard_of[i]];
  }
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
  submitted_->add(batch.size());
}

void ShardedCollector::ingest(const std::vector<EstimateRecord>& batch) {
  ingest(encode_views(batch).views);
}

ShardedCollector ShardedCollector::snapshot() const {
  CollectorConfig cfg = config_;
  cfg.instruments = {};
  ShardedCollector copy(cfg);
  copy.submitted_->add(submitted_->value());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const Shard& from = *shards_[s];
    Shard& to = *copy.shards_[s];
    const std::lock_guard<std::mutex> lock(from.mu);
    // Each sketch is merged into a fresh one, so a copy's
    // approx_flow_bytes() does not depend on how the original grew.
    for (const auto& [key, sketch] : from.flows) {
      to.flows.try_emplace(key).first->second.merge(sketch);
    }
    for (const auto& [link_id, sketch] : from.links) {
      to.links.try_emplace(link_id).first->second.merge(sketch);
    }
    to.epochs = from.epochs;
    to.estimates = from.estimates;
  }
  return copy;
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
  common::LatencySketch merged;
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
      merged[link_id].merge(sketch);
    }
  }
  return {merged.begin(), merged.end()};
}

common::LatencySketch ShardedCollector::fleet() const {
  common::LatencySketch all;
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

void select_worst_first(std::vector<RankedFlowSummary>& ranked, std::size_t k) {
  const auto last = ranked.begin() + static_cast<std::ptrdiff_t>(std::min(k, ranked.size()));
  std::partial_sort(ranked.begin(), last, ranked.end(), ranked_worse_first);
  ranked.erase(last, ranked.end());
}

void ShardedCollector::rank_shard(const Shard& shard, std::size_t k, double q) {
  if (k <= shard.top_k && q == shard.top_q) return;
  // One quantile per flow; only the winners are summarized. The scratch is
  // sized by the flows present, the cache by the winners.
  std::vector<RankedFlowSummary> ranked;
  ranked.reserve(shard.flows.size());
  for (const auto& [key, sketch] : shard.flows) {
    ranked.emplace_back(sketch.quantile(q), FlowSummary{.key = key});
  }
  select_worst_first(ranked, k);
  for (auto& [value, summary] : ranked) {
    summary = summarize(summary.key, shard.flows.at(summary.key));
  }
  ranked.shrink_to_fit();  // the cache keeps the winners' room, not the scan's
  shard.top = std::move(ranked);
  shard.top_q = q;
  shard.top_k = k;
}

std::vector<RankedFlowSummary> ShardedCollector::top_k_ranked(std::size_t k, double q) const {
  // The global top-k is contained in the union of the per-shard top-k's.
  std::vector<RankedFlowSummary> top;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    rank_shard(*shard, k, q);
    const auto n = static_cast<std::ptrdiff_t>(std::min(k, shard->top.size()));
    top.insert(top.end(), shard->top.begin(), shard->top.begin() + n);
  }
  select_worst_first(top, k);
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

std::uint64_t ShardedCollector::records_ingested() const { return submitted_->value(); }

std::uint64_t ShardedCollector::estimates_ingested() const {
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->estimates;
  }
  return n;
}

std::vector<ShardedCollector::EpochRun> ShardedCollector::epoch_runs() const {
  std::vector<EpochRun> all;
  for (const auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard->mu);
    all.insert(all.end(), shard->epochs.begin(), shard->epochs.end());
  }
  std::sort(all.begin(), all.end(),
            [](const EpochRun& a, const EpochRun& b) { return a.first < b.first; });
  std::vector<EpochRun> merged;
  for (const EpochRun& run : all) {
    if (!merged.empty() && run.first <= std::uint64_t{merged.back().last} + 1) {
      merged.back().last = std::max(merged.back().last, run.last);
    } else {
      merged.push_back(run);
    }
  }
  return merged;
}

std::size_t ShardedCollector::epoch_count() const {
  std::size_t n = 0;
  for (const EpochRun& run : epoch_runs()) n += std::size_t{run.last} - run.first + 1;
  return n;
}

std::vector<std::uint32_t> ShardedCollector::epochs_seen() const {
  std::vector<std::uint32_t> out;
  for (const EpochRun& run : epoch_runs()) {
    for (std::uint64_t e = run.first; e <= run.last; ++e) {
      out.push_back(static_cast<std::uint32_t>(e));
    }
  }
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
