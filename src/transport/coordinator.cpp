#include "transport/coordinator.h"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace rlir::transport {

// --- Merge helpers ---------------------------------------------------------

std::vector<collect::RankedFlowSummary> merge_ranked_top_k(
    const std::vector<std::vector<collect::RankedFlowSummary>>& parts, std::size_t k,
    const FlowResolver& resolve) {
  // k is small and each part is at most k entries: gather-and-sort beats a
  // cursor heap in clarity at the same practical cost. Duplicates (one key
  // in several parts — partitions overlapped) are re-resolved exactly from
  // the merged flow sketch when a resolver is given.
  std::unordered_map<net::FiveTuple, collect::RankedFlowSummary> by_key;
  for (const auto& part : parts) {
    for (const auto& entry : part) {
      auto [it, inserted] = by_key.try_emplace(entry.second.key, entry);
      if (inserted) continue;
      if (resolve) {
        if (auto resolved = resolve(entry.second.key)) it->second = *resolved;
      } else if (collect::ranked_worse_first(entry, it->second)) {
        // No resolver: deterministic but approximate — keep the worse rank.
        it->second = entry;
      }
    }
  }
  std::vector<collect::RankedFlowSummary> merged;
  merged.reserve(by_key.size());
  for (auto& [key, entry] : by_key) merged.push_back(std::move(entry));
  std::sort(merged.begin(), merged.end(), collect::ranked_worse_first);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

obs::Scrape merge_scrapes(const std::vector<obs::Scrape>& parts) {
  obs::Scrape merged;
  std::vector<obs::MetricsSnapshot> snaps;
  snaps.reserve(parts.size());
  for (const auto& part : parts) {
    snaps.push_back(part.metrics);
    merged.events.dropped = obs::saturating_add_u64(merged.events.dropped, part.events.dropped);
  }
  merged.metrics = obs::merge_snapshots(snaps);
  return merged;
}

namespace {

/// What one sketch fan-out merges to: entries by (link, flow), ascending.
struct MergedSketches {
  std::map<std::pair<collect::LinkId, net::FiveTuple>, common::LatencySketch> entries;
  WindowInfo coverage;
};

/// The one merge every sketch fan-out goes through. Entries with the same
/// (link, flow) merge bin-wise across agents (exact). Coverage unions the
/// window replies:
/// covered = any agent covered, bounds = union of covered bounds, records =
/// saturating sum, and complete = EVERY agent answered AND answered
/// complete — a missed agent or an evicted epoch anywhere makes the fleet
/// answer incomplete, which is the honest signal (partial truth, clearly
/// labeled). No replies at all is uncovered and incomplete.
[[nodiscard]] MergedSketches merge_sketch_replies(std::vector<std::optional<QueryReply>> replies) {
  MergedSketches out;
  WindowInfo& merged = out.coverage;
  bool all_complete = !replies.empty();
  for (auto& reply : replies) {
    if (!reply.has_value()) {
      all_complete = false;  // a missed agent is unknown coverage: incomplete
      continue;
    }
    for (auto& entry : reply->entries) {
      auto [it, inserted] =
          out.entries.try_emplace({entry.link, entry.flow}, std::move(entry.sketch));
      if (!inserted) it->second.merge(entry.sketch);
    }
    const WindowInfo w = reply->coverage.value_or(WindowInfo{});
    if (!w.complete) all_complete = false;
    if (!w.covered) continue;
    if (!merged.covered) {
      merged.covered = true;
      merged.first = w.first;
      merged.last = w.last;
    } else {
      merged.first = std::min(merged.first, w.first);
      merged.last = std::max(merged.last, w.last);
    }
    merged.records = obs::saturating_add_u64(merged.records, w.records);
  }
  merged.complete = merged.covered && all_complete;
  return out;
}

/// The merged sketch of a single-entry target (fleet, link, flow); nullopt
/// when no reachable agent answered with one.
[[nodiscard]] std::optional<common::LatencySketch> only_entry(MergedSketches&& merged) {
  if (merged.entries.empty()) return std::nullopt;
  return std::move(merged.entries.begin()->second);
}

/// A window fan-out's answer. An empty merged sketch carries no bins and
/// reads as absent, like a window nothing covered.
[[nodiscard]] WindowResult window_result(MergedSketches&& merged) {
  WindowResult out;
  out.window = merged.coverage;
  out.sketch = only_entry(std::move(merged));
  if (out.sketch.has_value() && out.sketch->empty()) out.sketch.reset();
  return out;
}

/// An inclusive epoch window, swapped if reversed.
[[nodiscard]] EpochWindow ordered(std::uint32_t first, std::uint32_t last) {
  return EpochWindow{std::min(first, last), std::max(first, last)};
}

}  // namespace

// --- The coordinator -------------------------------------------------------

std::vector<obs::Span> AssembledTrace::sorted_spans() const {
  std::vector<obs::Span> all;
  all.reserve(size());
  for (const auto& [name, spans] : processes) {
    all.insert(all.end(), spans.begin(), spans.end());
  }
  std::sort(all.begin(), all.end(), [](const obs::Span& a, const obs::Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.span_id < b.span_id;
  });
  return all;
}

std::size_t AssembledTrace::size() const {
  std::size_t n = 0;
  for (const auto& [name, spans] : processes) n += spans.size();
  return n;
}

QueryCoordinator::QueryCoordinator(QueryCoordinatorConfig config)
    : config_(config), obs_(config.instruments) {
  if (config_.reply_rounds == 0) {
    throw std::invalid_argument("QueryCoordinator: zero reply_rounds");
  }
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.queries_sent = r.counter("rlir_coord_queries_sent_total", base);
  c_.replies_merged = r.counter("rlir_coord_replies_merged_total", base);
  c_.agent_failures = r.counter("rlir_coord_agent_failures_total", base);
  spans_ = obs_.spans();
  if (spans_ != nullptr) spans_->bind_metrics(&r, base);
}

std::size_t QueryCoordinator::add_agent(StreamFactory factory) {
  // Agent-facing clients share the coordinator's registry/trace under child
  // ids, so the coordinator's own scrape shows per-agent-link health.
  CollectorClientConfig cfg;
  cfg.instruments = obs_.child("agent" + std::to_string(clients_.size()));
  clients_.push_back(std::make_unique<CollectorClient>(cfg, std::move(factory)));
  return clients_.size() - 1;
}

void QueryCoordinator::set_drive(std::function<void()> drive) { drive_ = std::move(drive); }

std::size_t QueryCoordinator::connected_count() const {
  std::size_t n = 0;
  for (const auto& client : clients_) n += client->connected() ? 1 : 0;
  return n;
}

CollectorClient& QueryCoordinator::client(std::size_t agent) { return *clients_.at(agent); }

std::optional<QueryReply> QueryCoordinator::ask(std::size_t agent, const Query& query) {
  c_.queries_sent->increment();
  auto reply = clients_[agent]->query(query, config_.reply_rounds, drive_);
  (reply.has_value() ? c_.replies_merged : c_.agent_failures)->increment();
  return reply;
}

std::vector<std::optional<QueryReply>> QueryCoordinator::fan_out(const Query& query) {
  // Sequential fan-out: queries are tiny and agents answer in one poll, so
  // pipelining across connections would buy little and cost the
  // one-outstanding-query simplicity.
  std::vector<std::optional<QueryReply>> replies;
  replies.reserve(clients_.size());
  if (spans_ == nullptr || query.target == Target::kSpans) {
    // Untraced, or the meta-query (pulling a trace must not pollute it).
    for (std::size_t i = 0; i < clients_.size(); ++i) replies.push_back(ask(i, query));
    return replies;
  }
  // One merge span roots the fan-out; each agent gets a leg span whose
  // context rides the query (the client hop re-parents beneath it, the
  // agent's answer span beneath that).
  obs::Span merge;
  merge.trace_id = query.trace.valid() ? query.trace.trace_id : spans_->new_trace_id();
  merge.span_id = spans_->next_span_id();
  merge.parent_id = query.trace.span_id;
  merge.kind = obs::SpanKind::kCoordMerge;
  merge.start_ns = obs::SpanRecorder::now_ns();
  merge.label = query_name(query);
  last_merge_ = obs::TraceContext{merge.trace_id, merge.span_id};
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    obs::Span leg;
    leg.trace_id = merge.trace_id;
    leg.span_id = spans_->next_span_id();
    leg.parent_id = merge.span_id;
    leg.kind = obs::SpanKind::kCoordLeg;
    leg.start_ns = obs::SpanRecorder::now_ns();
    leg.label = "agent" + std::to_string(i);
    Query traced = query;
    traced.trace = obs::TraceContext{leg.trace_id, leg.span_id};
    replies.push_back(ask(i, traced));
    leg.end_ns = obs::SpanRecorder::now_ns();
    if (!replies.back().has_value()) leg.label += " miss";
    spans_->record(std::move(leg));
  }
  merge.end_ns = obs::SpanRecorder::now_ns();
  spans_->record(std::move(merge));
  return replies;
}

AssembledTrace QueryCoordinator::collect_trace(std::uint64_t trace_id) {
  if (trace_id == 0) trace_id = last_merge_.trace_id;
  AssembledTrace out;
  out.trace_id = trace_id;
  auto replies = fan_out(Query{.target = Target::kSpans, .trace = {trace_id, 0}});
  // The coordinator's own ring holds the trace's merge, leg, and client-hop
  // spans (clients share this recorder). The pull above added nothing to it:
  // a span pull is untraced end to end.
  if (spans_ != nullptr) {
    out.processes.emplace_back("coordinator", spans_->snapshot(trace_id).spans);
  }
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value()) continue;
    out.agents_answered += 1;
    out.spans_dropped = obs::saturating_add_u64(out.spans_dropped, replies[i]->spans.dropped);
    out.processes.emplace_back("agent" + std::to_string(i), std::move(replies[i]->spans.spans));
  }
  return out;
}

common::LatencySketch QueryCoordinator::fleet() {
  return only_entry(merge_sketch_replies(fan_out(Query{.target = Target::kFleet})))
      .value_or(common::LatencySketch{});
}

std::vector<collect::RankedFlowSummary> QueryCoordinator::top_k_ranked(std::size_t k,
                                                                       double q) {
  const Query query{.target = Target::kTopK,
                    .k = static_cast<std::uint32_t>(std::min<std::size_t>(k, ~std::uint32_t{0})),
                    .q = q};
  // Each agent's worst flows arrive as sketches; rank and summarize them
  // with the collector's own derivation, so the values are identical.
  std::vector<std::vector<collect::RankedFlowSummary>> parts;
  for (auto& reply : fan_out(query)) {
    if (!reply.has_value()) continue;
    auto& part = parts.emplace_back();
    for (const auto& entry : reply->entries) {
      part.emplace_back(entry.sketch.quantile(q), collect::summarize(entry.flow, entry.sketch));
    }
  }
  // Duplicates (a flow with records on several agents) are resolved from
  // the flow's exact merged sketch — never double-counted. The resolving
  // fan-outs carry this top-k's merge span as their parent, so they join
  // its trace instead of starting their own (untraced, the context is empty).
  const obs::TraceContext top_k = last_merge_;
  const auto resolve = [&](const net::FiveTuple& key)
      -> std::optional<collect::RankedFlowSummary> {
    auto sketch = only_entry(merge_sketch_replies(
        fan_out(Query{.target = Target::kFlow, .flow = key, .trace = top_k})));
    if (!sketch.has_value()) return std::nullopt;
    return collect::RankedFlowSummary{sketch->quantile(q), collect::summarize(key, *sketch)};
  };
  return merge_ranked_top_k(parts, k, resolve);
}

std::vector<collect::FlowSummary> QueryCoordinator::top_k_flows(std::size_t k, double q) {
  return collect::strip_ranks(top_k_ranked(k, q));
}

std::optional<common::LatencySketch> QueryCoordinator::flow_sketch(
    const net::FiveTuple& key) {
  return only_entry(merge_sketch_replies(fan_out(Query{.target = Target::kFlow, .flow = key})));
}

std::optional<double> QueryCoordinator::flow_quantile(const net::FiveTuple& key, double q) {
  const auto sketch = flow_sketch(key);
  if (!sketch.has_value()) return std::nullopt;
  return sketch->quantile(q);
}

std::vector<std::pair<collect::LinkId, common::LatencySketch>>
QueryCoordinator::link_distributions() {
  std::vector<std::pair<collect::LinkId, common::LatencySketch>> links;
  for (auto& [key, sketch] :
       merge_sketch_replies(fan_out(Query{.target = Target::kLinks})).entries) {
    links.emplace_back(key.first, std::move(sketch));
  }
  return links;
}

WindowResult QueryCoordinator::window_fleet(std::uint32_t epoch_first,
                                            std::uint32_t epoch_last) {
  return window_result(merge_sketch_replies(
      fan_out(Query{.target = Target::kFleet, .window = ordered(epoch_first, epoch_last)})));
}

WindowResult QueryCoordinator::window_link(collect::LinkId link, std::uint32_t epoch_first,
                                           std::uint32_t epoch_last) {
  return window_result(merge_sketch_replies(fan_out(Query{
      .target = Target::kLink, .link = link, .window = ordered(epoch_first, epoch_last)})));
}

WindowResult QueryCoordinator::window_flow_sketch(const net::FiveTuple& key,
                                                  std::uint32_t epoch_first,
                                                  std::uint32_t epoch_last) {
  return window_result(merge_sketch_replies(fan_out(Query{
      .target = Target::kFlow, .flow = key, .window = ordered(epoch_first, epoch_last)})));
}

std::optional<double> QueryCoordinator::window_flow_quantile(const net::FiveTuple& key,
                                                             double q,
                                                             std::uint32_t epoch_first,
                                                             std::uint32_t epoch_last,
                                                             WindowInfo* window) {
  const auto result = window_flow_sketch(key, epoch_first, epoch_last);
  if (window != nullptr) *window = result.window;
  if (!result.sketch.has_value()) return std::nullopt;
  return result.sketch->quantile(q);
}

std::vector<std::optional<obs::Scrape>> QueryCoordinator::per_agent_scrapes() {
  std::vector<std::optional<obs::Scrape>> scrapes;
  for (auto& reply : fan_out(Query{.target = Target::kMetrics})) {
    if (reply.has_value()) {
      scrapes.push_back(std::move(reply->scrape));
    } else {
      scrapes.push_back(std::nullopt);
    }
  }
  return scrapes;
}

obs::Scrape QueryCoordinator::fleet_metrics() {
  std::vector<obs::Scrape> parts;
  for (auto& scrape : per_agent_scrapes()) {
    if (scrape.has_value()) parts.push_back(std::move(*scrape));
  }
  return merge_scrapes(parts);
}

QueryCoordinator::Stats QueryCoordinator::stats() const {
  Stats s;
  s.queries_sent = c_.queries_sent->value();
  s.replies_merged = c_.replies_merged->value();
  s.agent_failures = c_.agent_failures->value();
  return s;
}

}  // namespace rlir::transport
