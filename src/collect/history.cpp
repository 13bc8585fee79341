#include "collect/history.h"

#include <algorithm>
#include <cstring>
#include <map>
#include <stdexcept>

#include "obs/span.h"

namespace rlir::collect {

namespace {

/// Fixed accounting charge per retained segment (struct + container nodes);
/// the variable part is the raw log's bytes or the compacted sketches'.
constexpr std::size_t kSegmentOverhead = sizeof(std::uint64_t) * 8 + 128;

[[nodiscard]] std::uint32_t window_id(std::uint32_t epoch, std::size_t window) {
  return epoch / static_cast<std::uint32_t>(window);
}

}  // namespace

SketchHistoryStore::SketchHistoryStore(HistoryConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.raw_epochs == 0) {
    throw std::invalid_argument("SketchHistoryStore: raw_epochs must be >= 1");
  }
  if (config_.mid_window == 0) {
    throw std::invalid_argument("SketchHistoryStore: mid_window must be >= 1");
  }
  if (config_.mid_segments == 0 || config_.coarse_segments == 0) {
    throw std::invalid_argument("SketchHistoryStore: tier segment counts must be >= 1");
  }
  if (config_.coarse_window == 0 || config_.coarse_window % config_.mid_window != 0) {
    throw std::invalid_argument(
        "SketchHistoryStore: coarse_window must be a positive multiple of mid_window");
  }

  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.bytes = r.gauge("rlir_history_bytes", base);
  c_.epochs = r.gauge("rlir_history_epochs", base);
  c_.records = r.counter("rlir_history_records_total", base);
  c_.compactions = r.counter("rlir_history_compactions_total", base);
  c_.evictions = r.counter("rlir_history_evictions_total", base);
  c_.late = r.counter("rlir_history_late_records_total", base);
  c_.dropped = r.counter("rlir_history_dropped_records_total", base);
}

SketchHistoryStore::Segment SketchHistoryStore::new_segment_locked(std::uint32_t epoch) {
  Segment seg;
  seg.first = seg.last = epoch;
  seg.bytes = kSegmentOverhead;
  total_bytes_ += kSegmentOverhead;
  return seg;
}

bool SketchHistoryStore::admit_epoch_locked(std::uint32_t epoch) {
  if (!any_) {
    any_ = true;
    last_seen_ = epoch;
    raw_first_ = epoch;
    raw_.push_back(new_segment_locked(epoch));
    return true;
  }
  if (epoch <= last_seen_) {
    // Early records: a store fed by flow-hash spray may see its first record
    // mid-stream, so epochs BELOW the first-seen one can still arrive. Grow
    // the raw window backwards while nothing has ever been folded or evicted
    // — the fleet exactness contract (partitioned agents merge bin-for-bin
    // to one collector's answer) depends on every agent retaining the same
    // epoch range regardless of per-agent arrival order.
    if (epoch < raw_first_ && !discarded_ &&
        static_cast<std::uint64_t>(last_seen_) - epoch < config_.raw_epochs) {
      while (raw_first_ > epoch) raw_.push_front(new_segment_locked(--raw_first_));
      enforce_bytes_locked();  // backfill respects max_bytes like any growth
    }
    return true;
  }
  if (epoch - last_seen_ > kMaxEpochJump) return false;
  while (last_seen_ < epoch) {
    raw_.push_back(new_segment_locked(++last_seen_));
    while (raw_.size() > config_.raw_epochs) {
      raw_first_ += 1;
      fold_front_locked(raw_, mid_, config_.mid_window);
      while (mid_.size() > config_.mid_segments) {
        fold_front_locked(mid_, coarse_, config_.coarse_window);
      }
      while (coarse_.size() > config_.coarse_segments) evict_front_locked(coarse_);
    }
  }
  enforce_bytes_locked();
  return true;
}

void SketchHistoryStore::merge_view_locked(Segment& seg, const RecordView& record) const {
  merge_sketch_view(seg.flows.try_emplace(record.key).first->second, record.sketch);
  merge_sketch_view(seg.links.try_emplace(record.link).first->second, record.sketch);
}

void SketchHistoryStore::fold_front_locked(std::deque<Segment>& from, std::deque<Segment>& into,
                                           std::size_t window) {
  Segment src = std::move(from.front());
  from.pop_front();
  discarded_ = true;  // the folded segment's per-epoch split is gone for good
  total_bytes_ -= src.bytes;

  if (into.empty() || window_id(into.back().first, window) != window_id(src.first, window)) {
    into.push_back(new_segment_locked(src.first));
  }
  Segment& dst = into.back();
  for_each_raw_view_locked(src, [&](const RecordView& v) { merge_view_locked(dst, v); });
  for (const auto& [key, sketch] : src.flows) {
    dst.flows.try_emplace(key).first->second.merge(sketch);
  }
  for (const auto& [link, sketch] : src.links) {
    dst.links.try_emplace(link).first->second.merge(sketch);
  }
  dst.last = src.last;
  dst.records += src.records;
  total_bytes_ -= dst.bytes;
  dst.bytes = map_segment_bytes_locked(dst);
  total_bytes_ += dst.bytes;
  c_.compactions->increment();
}

void SketchHistoryStore::evict_front_locked(std::deque<Segment>& tier) {
  total_bytes_ -= tier.front().bytes;
  tier.pop_front();
  discarded_ = true;
  c_.evictions->increment();
}

void SketchHistoryStore::enforce_bytes_locked() {
  if (config_.max_bytes == 0) return;
  while (total_bytes_ > config_.max_bytes) {
    if (!coarse_.empty()) {
      evict_front_locked(coarse_);
    } else if (!mid_.empty()) {
      evict_front_locked(mid_);
    } else if (raw_.size() > 1) {
      // Never evict the newest raw epoch (still filling); dropping the
      // oldest keeps retained coverage contiguous.
      total_bytes_ -= raw_.front().bytes;
      raw_.pop_front();
      raw_first_ += 1;
      discarded_ = true;
      c_.evictions->increment();
    } else {
      break;  // a single in-flight epoch may exceed a tiny bound
    }
  }
}

std::size_t SketchHistoryStore::map_segment_bytes_locked(const Segment& seg) const {
  std::size_t bytes = kSegmentOverhead + seg.log.size();
  for (const auto& [key, sketch] : seg.flows) {
    bytes += sizeof(key) + sketch.approx_bytes();
  }
  for (const auto& [link, sketch] : seg.links) {
    bytes += sizeof(link) + sketch.approx_bytes();
  }
  return bytes;
}

std::uint32_t SketchHistoryStore::oldest_retained_locked() const {
  if (!coarse_.empty()) return coarse_.front().first;
  if (!mid_.empty()) return mid_.front().first;
  return raw_first_;
}

void SketchHistoryStore::set_gauges_locked() const {
  c_.bytes->set(static_cast<std::int64_t>(total_bytes_));
  const std::size_t epochs =
      any_ ? static_cast<std::size_t>(last_seen_ - oldest_retained_locked()) + 1 : 0;
  c_.epochs->set(static_cast<std::int64_t>(epochs));
}

// --- Ingest ----------------------------------------------------------------

bool SketchHistoryStore::ingest_view_locked(const RecordView& record) {
  if (!admit_epoch_locked(record.epoch)) {
    c_.dropped->increment();
    return false;
  }
  if (record.epoch >= raw_first_) {
    Segment& seg = raw_[record.epoch - raw_first_];
    // The record's bytes as they came: the same layout the body decoder
    // reads, floats and bins bit for bit.
    const std::size_t added = wire_size(record);
    std::memcpy(seg.log.append_raw(added), record.wire, added);
    seg.bytes += added;
    total_bytes_ += added;
    seg.records += 1;
    enforce_bytes_locked();
    return true;
  }
  Segment* late = nullptr;
  for (auto* tier : {&mid_, &coarse_}) {
    auto it = std::lower_bound(tier->begin(), tier->end(), record.epoch,
                               [](const Segment& s, std::uint32_t e) { return s.last < e; });
    if (it != tier->end() && it->first <= record.epoch) {
      late = &*it;
      break;
    }
  }
  if (late == nullptr) {
    c_.dropped->increment();
    return false;
  }
  merge_view_locked(*late, record);
  late->records += 1;
  total_bytes_ -= late->bytes;
  late->bytes = map_segment_bytes_locked(*late);
  total_bytes_ += late->bytes;
  c_.late->increment();
  enforce_bytes_locked();
  return true;
}

void SketchHistoryStore::ingest_views(const std::vector<RecordView>& batch) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t admitted = 0;
  for (const auto& record : batch) admitted += ingest_view_locked(record) ? 1 : 0;
  c_.records->add(admitted);
  set_gauges_locked();
}

void SketchHistoryStore::ingest(const std::vector<EstimateRecord>& batch) {
  ingest_views(encode_views(batch).views);
}

// --- Window queries --------------------------------------------------------

template <typename Fn>
WindowCoverage SketchHistoryStore::for_each_covering_locked(std::uint32_t first,
                                                            std::uint32_t last,
                                                            Fn&& fn) const {
  WindowCoverage cov;
  if (!any_) return cov;

  const auto visit = [&](const Segment& seg) {
    if (seg.last < first || seg.first > last) return;
    if (!cov.covered) {
      cov.covered = true;
      cov.first = seg.first;
      cov.last = seg.last;
    } else {
      cov.first = std::min(cov.first, seg.first);
      cov.last = std::max(cov.last, seg.last);
    }
    cov.records += seg.records;
    fn(seg);
  };

  for (const auto* tier : {&coarse_, &mid_}) {
    // O(log segments) to find the first candidate; visiting is linear in the
    // segments actually covered.
    auto it = std::lower_bound(tier->begin(), tier->end(), first,
                               [](const Segment& s, std::uint32_t e) { return s.last < e; });
    for (; it != tier->end() && it->first <= last; ++it) visit(*it);
  }
  if (!raw_.empty() && last >= raw_first_) {
    // Raw-tier indexes, not epochs: an epoch counter would wrap past
    // 2^32 - 1 and never exceed a window ending there.
    const std::size_t lo = std::max(first, raw_first_) - raw_first_;
    const std::size_t hi = std::min<std::size_t>(last - raw_first_, raw_.size() - 1);
    for (std::size_t i = lo; i <= hi; ++i) visit(raw_[i]);
  }

  cov.complete = cov.covered && first >= oldest_retained_locked() && last <= last_seen_;
  return cov;
}

template <typename Fn>
void SketchHistoryStore::for_each_raw_view_locked(const Segment& seg, Fn&& fn) const {
  for (const auto& chunk : seg.log.chunks()) {
    scratch_.clear();
    decode_record_body_views(chunk.data.get(), chunk.used, scratch_);
    for (const auto& v : scratch_) fn(v);
  }
}

template <typename Key>
std::optional<common::LatencySketch> SketchHistoryStore::window_one(
    std::uint32_t first, std::uint32_t last, const Key& key, Key RecordView::*view_key,
    common::FlatHashMap<Key, common::LatencySketch> Segment::*seg_map, const char* label,
    WindowCoverage* coverage) const {
  if (first > last) std::swap(first, last);
  obs::SpanTimer span(obs_.spans(), obs::SpanKind::kHistoryWindow, {}, label);
  std::lock_guard<std::mutex> lock(mu_);
  common::LatencySketch out;
  bool found = false;
  const auto cov = for_each_covering_locked(first, last, [&](const Segment& seg) {
    for_each_raw_view_locked(seg, [&](const RecordView& v) {
      if (v.*view_key != key) return;
      merge_sketch_view(out, v.sketch);
      found = true;
    });
    const auto it = (seg.*seg_map).find(key);
    if (it == (seg.*seg_map).end()) return;
    out.merge(it->second);
    found = true;
  });
  if (coverage != nullptr) *coverage = cov;
  if (!found) return std::nullopt;
  return out;
}

template <typename Key>
std::vector<std::pair<Key, common::LatencySketch>> SketchHistoryStore::window_groups(
    std::uint32_t first, std::uint32_t last, Key RecordView::*view_key,
    common::FlatHashMap<Key, common::LatencySketch> Segment::*seg_map) const {
  if (first > last) std::swap(first, last);
  std::lock_guard<std::mutex> lock(mu_);
  std::map<Key, common::LatencySketch> merged;
  const auto slot = [&](const Key& key) -> common::LatencySketch& {
    return merged[key];
  };
  for_each_covering_locked(first, last, [&](const Segment& seg) {
    for_each_raw_view_locked(
        seg, [&](const RecordView& v) { merge_sketch_view(slot(v.*view_key), v.sketch); });
    for (const auto& [key, sketch] : seg.*seg_map) slot(key).merge(sketch);
  });
  return {merged.begin(), merged.end()};
}

std::optional<common::LatencySketch> SketchHistoryStore::window_flow(
    std::uint32_t epoch_first, std::uint32_t epoch_last, const net::FiveTuple& key,
    WindowCoverage* coverage) const {
  return window_one(epoch_first, epoch_last, key, &RecordView::key, &Segment::flows, "flow",
                    coverage);
}

std::optional<common::LatencySketch> SketchHistoryStore::window_link(
    std::uint32_t epoch_first, std::uint32_t epoch_last, LinkId link,
    WindowCoverage* coverage) const {
  return window_one(epoch_first, epoch_last, link, &RecordView::link, &Segment::links, "link",
                    coverage);
}

common::LatencySketch SketchHistoryStore::window_fleet(std::uint32_t epoch_first,
                                                       std::uint32_t epoch_last,
                                                       WindowCoverage* coverage) const {
  if (epoch_first > epoch_last) std::swap(epoch_first, epoch_last);
  obs::SpanTimer span(obs_.spans(), obs::SpanKind::kHistoryWindow, {}, "fleet");
  std::lock_guard<std::mutex> lock(mu_);
  common::LatencySketch out;
  const auto cov = for_each_covering_locked(epoch_first, epoch_last, [&](const Segment& seg) {
    for_each_raw_view_locked(seg, [&](const RecordView& v) { merge_sketch_view(out, v.sketch); });
    // Every record lands in exactly one link aggregate, so the union over
    // links equals the union over records (the collector's fleet() uses the
    // same identity).
    for (const auto& [link, sketch] : seg.links) out.merge(sketch);
  });
  if (coverage != nullptr) *coverage = cov;
  return out;
}

std::vector<std::pair<net::FiveTuple, common::LatencySketch>>
SketchHistoryStore::window_flow_sketches(std::uint32_t epoch_first,
                                         std::uint32_t epoch_last) const {
  return window_groups(epoch_first, epoch_last, &RecordView::key, &Segment::flows);
}

std::vector<std::pair<LinkId, common::LatencySketch>> SketchHistoryStore::window_links(
    std::uint32_t epoch_first, std::uint32_t epoch_last) const {
  return window_groups(epoch_first, epoch_last, &RecordView::link, &Segment::links);
}

// --- Accounting ------------------------------------------------------------

std::size_t SketchHistoryStore::approx_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

std::size_t SketchHistoryStore::epochs_retained() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_) return 0;
  return static_cast<std::size_t>(last_seen_ - oldest_retained_locked()) + 1;
}

std::optional<std::uint32_t> SketchHistoryStore::first_retained_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_) return std::nullopt;
  return oldest_retained_locked();
}

std::optional<std::uint32_t> SketchHistoryStore::last_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (!any_) return std::nullopt;
  return last_seen_;
}

std::uint64_t SketchHistoryStore::records_ingested() const { return c_.records->value(); }
std::uint64_t SketchHistoryStore::compactions() const { return c_.compactions->value(); }
std::uint64_t SketchHistoryStore::evictions() const { return c_.evictions->value(); }
std::uint64_t SketchHistoryStore::late_records() const { return c_.late->value(); }
std::uint64_t SketchHistoryStore::dropped_records() const { return c_.dropped->value(); }

}  // namespace rlir::collect
