// QueryCoordinator::collect_trace: the cross-process reassembly must be the
// exact union of the participating rings — the coordinator's own spans
// (merge, legs, and the agent-facing clients' query hops, which share its
// recorder) plus every agent's span-ring answer — filtered to one trace,
// with honest eviction accounting, and without the pull itself polluting
// any ring (a span pull is untraced end to end).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "obs/span.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/coordinator.h"

namespace rlir::transport {
namespace {

constexpr std::size_t kAgents = 3;

struct TracedFleet {
  std::vector<std::unique_ptr<obs::SpanRecorder>> agent_spans;
  std::vector<std::unique_ptr<CollectorAgent>> agents;
  obs::SpanRecorder coord_spans;
  std::unique_ptr<QueryCoordinator> coord;

  TracedFleet() {
    QueryCoordinatorConfig cfg;
    cfg.instruments.spans = &coord_spans;
    coord = std::make_unique<QueryCoordinator>(cfg);
    for (std::size_t i = 0; i < kAgents; ++i) {
      agent_spans.push_back(std::make_unique<obs::SpanRecorder>());
      CollectorAgentConfig acfg;
      acfg.instruments.spans = agent_spans[i].get();
      agents.push_back(std::make_unique<CollectorAgent>(acfg));
      coord->add_agent([this, i]() {
        auto [client_end, agent_end] = make_loopback();
        agents[i]->add_connection(std::move(agent_end));
        return std::move(client_end);
      });
    }
    coord->set_drive([this] {
      for (auto& agent : agents) agent->poll();
    });
  }
};

std::multiset<std::uint64_t> span_ids(const AssembledTrace& trace) {
  std::multiset<std::uint64_t> ids;
  for (const auto& [name, spans] : trace.processes) {
    for (const auto& span : spans) ids.insert(span.span_id);
  }
  return ids;
}

TEST(TracingAssemblyTest, AssemblyEqualsUnionOfRings) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const std::uint64_t trace_id = fleet.coord->last_trace_id();
  ASSERT_NE(trace_id, 0u);

  const auto assembled = fleet.coord->collect_trace();
  EXPECT_EQ(assembled.trace_id, trace_id);
  EXPECT_EQ(assembled.agents_answered, kAgents);
  EXPECT_EQ(assembled.spans_dropped, 0u);
  ASSERT_EQ(assembled.processes.size(), 1 + kAgents);
  EXPECT_EQ(assembled.processes[0].first, "coordinator");
  EXPECT_EQ(assembled.processes[1].first, "agent0");

  // The exact union: what the assembly returned == what the rings retain.
  std::multiset<std::uint64_t> expected;
  for (const auto& span : fleet.coord_spans.snapshot(trace_id).spans) {
    expected.insert(span.span_id);
  }
  for (const auto& recorder : fleet.agent_spans) {
    for (const auto& span : recorder->snapshot(trace_id).spans) expected.insert(span.span_id);
  }
  EXPECT_EQ(span_ids(assembled), expected);
  EXPECT_EQ(assembled.size(), expected.size());

  // Every assembled span belongs to the requested trace.
  for (const auto& [name, spans] : assembled.processes) {
    for (const auto& span : spans) EXPECT_EQ(span.trace_id, trace_id);
  }
}

TEST(TracingAssemblyTest, ExplicitTraceIdMatchesDefault) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const std::uint64_t trace_id = fleet.coord->last_trace_id();

  const auto by_default = fleet.coord->collect_trace();
  const auto by_id = fleet.coord->collect_trace(trace_id);
  EXPECT_EQ(span_ids(by_default), span_ids(by_id));
}

TEST(TracingAssemblyTest, SecondFanOutGetsItsOwnTrace) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const std::uint64_t first = fleet.coord->last_trace_id();
  (void)fleet.coord->per_agent_scrapes();
  const std::uint64_t second = fleet.coord->last_trace_id();
  ASSERT_NE(first, 0u);
  ASSERT_NE(second, 0u);
  EXPECT_NE(first, second);

  // Each assembly is scoped to its trace; ids never leak across.
  const auto ids_first = span_ids(fleet.coord->collect_trace(first));
  const auto ids_second = span_ids(fleet.coord->collect_trace(second));
  std::vector<std::uint64_t> overlap;
  std::set_intersection(ids_first.begin(), ids_first.end(), ids_second.begin(),
                        ids_second.end(), std::back_inserter(overlap));
  EXPECT_TRUE(overlap.empty());
  EXPECT_FALSE(ids_first.empty());
  EXPECT_FALSE(ids_second.empty());
}

TEST(TracingAssemblyTest, UnknownTraceAssemblesEmpty) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const auto assembled = fleet.coord->collect_trace(0xdeadbeefdeadbeefULL);
  EXPECT_EQ(assembled.size(), 0u);
  EXPECT_EQ(assembled.agents_answered, kAgents);
}

TEST(TracingAssemblyTest, SortedSpansAreOrderedByStart) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const auto assembled = fleet.coord->collect_trace();
  const auto sorted = assembled.sorted_spans();
  ASSERT_EQ(sorted.size(), assembled.size());
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_LE(sorted[i - 1].start_ns, sorted[i].start_ns);
  }
}

TEST(TracingAssemblyTest, TopKDuplicateResolutionStaysInTheTopKTrace) {
  // One flow with a record on each of two agents: the top-k merge resolves
  // the duplicate through a flow fan-out, which must join the top-k's trace
  // (as its child) instead of replacing it as the last trace.
  TracedFleet fleet;
  collect::EstimateRecord record;
  record.key.src = net::Ipv4Address(10, 0, 0, 1);
  record.key.dst = net::Ipv4Address(10, 1, 0, 1);
  record.key.src_port = 4242;
  record.key.dst_port = 80;
  record.sketch.add(50e3);
  fleet.agents[0]->collector().ingest(std::vector<collect::EstimateRecord>{record});
  fleet.agents[1]->collector().ingest(std::vector<collect::EstimateRecord>{record});

  const auto top = fleet.coord->top_k_ranked(5, 0.99);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].second.packets, 2u);

  const auto assembled = fleet.coord->collect_trace();
  std::vector<const obs::Span*> top_k_merges;
  std::vector<const obs::Span*> flow_merges;
  const auto spans = assembled.sorted_spans();
  for (const auto& span : spans) {
    if (span.kind != obs::SpanKind::kCoordMerge) continue;
    (span.label == "top_k" ? top_k_merges : flow_merges).push_back(&span);
  }
  ASSERT_EQ(top_k_merges.size(), 1u);
  ASSERT_EQ(flow_merges.size(), 1u);
  EXPECT_EQ(flow_merges[0]->label, "flow");
  EXPECT_EQ(flow_merges[0]->parent_id, top_k_merges[0]->span_id);
}

TEST(TracingAssemblyTest, PullLeavesEveryRingUnpolluted) {
  TracedFleet fleet;
  (void)fleet.coord->fleet();
  const std::uint64_t trace_id = fleet.coord->last_trace_id();

  const auto before = fleet.coord_spans.snapshot(trace_id).spans.size();
  std::size_t agents_before = 0;
  for (const auto& r : fleet.agent_spans) agents_before += r->snapshot(trace_id).spans.size();

  // Repeated pulls: a span pull is never traced, so the trace stays frozen.
  (void)fleet.coord->collect_trace();
  (void)fleet.coord->collect_trace();

  EXPECT_EQ(fleet.coord_spans.snapshot(trace_id).spans.size(), before);
  std::size_t agents_after = 0;
  for (const auto& r : fleet.agent_spans) agents_after += r->snapshot(trace_id).spans.size();
  EXPECT_EQ(agents_after, agents_before);
}

}  // namespace
}  // namespace rlir::transport
