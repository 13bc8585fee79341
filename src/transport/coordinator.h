// The fleet-of-agents query tier: a QueryCoordinator holds one
// CollectorClient connection per CollectorAgent, fans every query out to
// all of them, and merges the replies EXACTLY:
//
//   * sketch replies (fleet / link / every link / flow, live or windowed)
//     -> one routine: entries with the same (link, flow) merge bin-wise
//     (LatencySketch::merge — associative, commutative, exact), window
//     coverage unions;
//   * ranked top-k -> each agent's flows are ranked and summarized here
//     from the sketches they ship, then merged under the shared
//     worst-first ordering; a flow that (exceptionally) appears in several
//     agents' lists is re-resolved from its merged flow sketch instead of
//     double-counted (a flow fan-out that joins the top-k's trace);
//   * quantiles -> computed from the MERGED sketch (quantiles don't merge;
//     bins do), so a flow split across agents still answers exactly;
//   * scrapes -> counters sum (saturating), gauges max, histograms union;
//     ring evictions sum.
//
// Exactness contract: answers are bin-for-bin identical to a single
// collector that ingested every record the queried agents ingested. For
// top-k the global answer is additionally guaranteed to be contained in
// the union of per-agent top-k lists when each flow's records live on one
// agent — the invariant PartitionedClient maintains (and the reason the
// duplicate-resolution path is a rebalance-edge-case, not the common one).
//
// Agents that are down answer nothing: the merge covers the reachable
// fleet (counted in stats().agent_failures per fan-out), which is the
// operator-correct degradation — partial truth, never double counting.
//
// Threading: not thread-safe; one owner drives queries. For single-thread
// deployments (loopback tests, simulations) set_drive() installs a hook
// pumped between poll rounds — typically "poll every agent".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/sharded_collector.h"
#include "common/latency_sketch.h"
#include "net/flow_key.h"
#include "obs/instrument.h"
#include "obs/wire.h"
#include "transport/client.h"
#include "transport/messages.h"

namespace rlir::transport {

// --- Merge helpers (the coordinator's math, exposed for property tests) ----

/// Re-derives one flow's ranked summary when it shows up in several parts:
/// given the flow's exact merged sketch, returns the entry the single
/// collector would have produced. nullopt = leave the duplicate unresolved.
using FlowResolver =
    std::function<std::optional<collect::RankedFlowSummary>(const net::FiveTuple&)>;

/// Merges per-partition ranked top-k lists (each worst-first) into the
/// global worst-first top-k. Keys appearing in several parts are resolved
/// through `resolve` (exact, via the merged flow sketch); without a
/// resolver the worst-ranked duplicate wins (approximate — only reachable
/// when partitions overlap, which partitioned export prevents).
[[nodiscard]] std::vector<collect::RankedFlowSummary> merge_ranked_top_k(
    const std::vector<std::vector<collect::RankedFlowSummary>>& parts, std::size_t k,
    const FlowResolver& resolve = {});

/// Fleet roll-up of per-agent scrapes: counters sum (saturating), gauges
/// max, histograms sketch-union (obs::merge_snapshots); the rings' drops
/// sum (saturating), while the merged `events.events` list stays empty —
/// per-event detail belongs to the per-agent breakdown, not the roll-up.
/// Event totals are counters (rlir_agent_connections_accepted_total, ...),
/// so they sum with the rest.
[[nodiscard]] obs::Scrape merge_scrapes(const std::vector<obs::Scrape>& parts);

/// A window query's merged fleet answer: the exact bin-for-bin union of
/// the agents' window sketches plus what that union actually covered.
struct WindowResult {
  /// Absent when no reachable agent had covered data (or the flow/link
  /// never appeared in the window).
  std::optional<common::LatencySketch> sketch;
  WindowInfo window;
};

/// A cross-process trace reassembled by QueryCoordinator::collect_trace:
/// the coordinator's own spans (merge, legs, and its agent-facing clients'
/// query spans — they share the coordinator's recorder) plus every
/// reachable agent's ring, pulled via a Target::kSpans fan-out.
struct AssembledTrace {
  std::uint64_t trace_id = 0;
  /// (process name, its spans): "coordinator" first (when the coordinator
  /// has a recorder), then "agentN" for each agent that answered — the
  /// exact shape obs::to_chrome_trace takes.
  std::vector<std::pair<std::string, std::vector<obs::Span>>> processes;
  /// Agents that answered the span-ring fan-out.
  std::size_t agents_answered = 0;
  /// Sum of the answering rings' evictions — nonzero means the assembly may
  /// have gaps (spans aged out before the pull).
  std::uint64_t spans_dropped = 0;

  /// Union of every process's spans, sorted by (start_ns, span_id).
  [[nodiscard]] std::vector<obs::Span> sorted_spans() const;
  /// Total spans across processes.
  [[nodiscard]] std::size_t size() const;
};

// --- The coordinator -------------------------------------------------------

struct QueryCoordinatorConfig {
  /// Pump/poll rounds to wait per agent reply before declaring the agent
  /// unreachable for this fan-out. With a drive hook each round is one
  /// drive; without one each round sleeps ~100us (socket deployments).
  std::size_t reply_rounds = 20000;
  /// Observability attachment (see obs/instrument.h). Agent-facing clients
  /// run with a default CollectorClientConfig and report into the same
  /// registry/trace under child ids "agent0", ...
  obs::Instruments instruments;
};

class QueryCoordinator {
 public:
  using StreamFactory = CollectorClient::StreamFactory;

  /// Throws std::invalid_argument if reply_rounds is 0.
  explicit QueryCoordinator(QueryCoordinatorConfig config = {});

  QueryCoordinator(const QueryCoordinator&) = delete;
  QueryCoordinator& operator=(const QueryCoordinator&) = delete;

  /// Registers one agent (dials eagerly; a failed dial starts the client's
  /// backoff). Returns the agent's index.
  std::size_t add_agent(StreamFactory factory);

  /// The drive hook each agent leg hands CollectorClient::query — run every
  /// round while waiting for a reply. Single-thread deployments poll their
  /// agents here; socket deployments leave it unset (the agents run their
  /// own threads/processes) and rounds sleep instead.
  void set_drive(std::function<void()> drive);

  // --- Fleet queries (each fans out to every agent and merges) ------------

  /// Fleet-wide latency distribution: exact union of agent fleet sketches.
  [[nodiscard]] common::LatencySketch fleet();

  /// Global worst-first top-k at quantile q with ranking values.
  [[nodiscard]] std::vector<collect::RankedFlowSummary> top_k_ranked(std::size_t k, double q);
  [[nodiscard]] std::vector<collect::FlowSummary> top_k_flows(std::size_t k, double q = 0.99);

  /// One flow's merged sketch across the fleet; nullopt if no reachable
  /// agent has seen it.
  [[nodiscard]] std::optional<common::LatencySketch> flow_sketch(const net::FiveTuple& key);
  /// Quantile of the merged sketch (exact even for a flow split across
  /// agents); nullopt if unseen.
  [[nodiscard]] std::optional<double> flow_quantile(const net::FiveTuple& key, double q);

  /// Every vantage with data and its distribution, ascending by link,
  /// merged across agents (a vantage's records spread over all of them).
  [[nodiscard]] std::vector<std::pair<collect::LinkId, common::LatencySketch>>
  link_distributions();

  // --- Time-travel window queries (windowed fan-out over agent history) ----
  // Inclusive epoch ranges, swapped if reversed. Exactness contract as
  // above: the merged sketch is bin-for-bin what a single history store
  // holding every agent's records would answer over the union coverage.

  /// Fleet-wide distribution over [epoch_first, epoch_last].
  [[nodiscard]] WindowResult window_fleet(std::uint32_t epoch_first, std::uint32_t epoch_last);
  /// One vantage's distribution over the window, merged across agents.
  [[nodiscard]] WindowResult window_link(collect::LinkId link, std::uint32_t epoch_first,
                                         std::uint32_t epoch_last);
  /// One flow's merged window sketch across the fleet.
  [[nodiscard]] WindowResult window_flow_sketch(const net::FiveTuple& key,
                                                std::uint32_t epoch_first,
                                                std::uint32_t epoch_last);
  /// Quantile of the merged window sketch (exact even for a flow split
  /// across agents); nullopt if unseen. Coverage via the out-param.
  [[nodiscard]] std::optional<double> window_flow_quantile(const net::FiveTuple& key, double q,
                                                           std::uint32_t epoch_first,
                                                           std::uint32_t epoch_last,
                                                           WindowInfo* window = nullptr);

  // --- Tracing (span-ring fan-out) -----------------------------------------

  /// Pulls every agent's span ring (filtered to `trace_id` when nonzero;
  /// 0 = the last traced fan-out, falling back to whole rings when no
  /// fan-out was traced) and unions it with the coordinator's own ring into
  /// one cross-process trace. The pull itself is never traced.
  [[nodiscard]] AssembledTrace collect_trace(std::uint64_t trace_id = 0);

  /// Trace id of the most recent traced fan-out (0 before the first one, or
  /// when tracing is off). A top-k that resolves a duplicate flow stays the
  /// last trace: its resolving flow fan-outs join it as children.
  [[nodiscard]] std::uint64_t last_trace_id() const { return last_merge_.trace_id; }

  /// Per-agent metric/event scrapes (Target::kMetrics fan-out); nullopt for
  /// agents that didn't answer. The rlir_agent_*_total counters (records,
  /// estimates, flows, epochs, frames, batches, queries, protocol errors)
  /// read through obs::counter_total.
  [[nodiscard]] std::vector<std::optional<obs::Scrape>> per_agent_scrapes();
  /// The reachable fleet's merged scrape (merge_scrapes over the answers):
  /// counters sum, gauges max, histograms union bin-for-bin, ring drops
  /// sum. Equals the element-wise merge of per_agent_scrapes().
  [[nodiscard]] obs::Scrape fleet_metrics();

  // --- Introspection -------------------------------------------------------

  [[nodiscard]] std::size_t agent_count() const { return clients_.size(); }
  [[nodiscard]] std::size_t connected_count() const;
  [[nodiscard]] CollectorClient& client(std::size_t agent);

  struct Stats {
    std::uint64_t queries_sent = 0;
    std::uint64_t replies_merged = 0;
    /// Per-fan-out agent misses: unreachable, reply timeout, or a protocol
    /// error on the reply path (the connection is dropped and re-dialed).
    std::uint64_t agent_failures = 0;
  };
  /// Built from the registry cells (rlir_coord_*) — a view, not stored state.
  [[nodiscard]] Stats stats() const;

  /// The coordinator's OWN registry/trace (its fan-out counters and the
  /// agent-facing clients' series) — distinct from fleet_metrics(), which
  /// scrapes the agents.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return obs_.registry(); }
  [[nodiscard]] obs::EventTrace& events() { return obs_.trace(); }

  [[nodiscard]] const QueryCoordinatorConfig& config() const { return config_; }

 private:
  /// One agent's answer to one query, or nullopt (failure counted).
  [[nodiscard]] std::optional<QueryReply> ask(std::size_t agent, const Query& query);
  /// Fans `query` to every agent; replies in agent order, nullopt for
  /// agents that failed this fan-out.
  [[nodiscard]] std::vector<std::optional<QueryReply>> fan_out(const Query& query);

  QueryCoordinatorConfig config_;
  obs::Instrumented obs_;
  /// Tracing attachment (null = off); shared with the agent-facing clients
  /// via child(), so their query spans land in the same ring as the
  /// coordinator's merge/leg spans.
  obs::SpanRecorder* spans_ = nullptr;
  /// The merge span of the most recent traced fan-out (empty when untraced).
  obs::TraceContext last_merge_;
  std::vector<std::unique_ptr<CollectorClient>> clients_;
  std::function<void()> drive_;
  /// Registry cells backing Stats (names rlir_coord_<field>_total).
  struct Cells {
    obs::Counter* queries_sent = nullptr;
    obs::Counter* replies_merged = nullptr;
    obs::Counter* agent_failures = nullptr;
  } c_{};
};

}  // namespace rlir::transport
