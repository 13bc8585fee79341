// The observability tier's acceptance bar, end to end: a 4-agent
// partitioned fleet runs the standard workload, one agent is killed
// mid-stream, and the coordinator's metrics fan-out must deliver
//
//   (a) per-agent scrapes for every survivor (nullopt for the victim);
//   (b) a merged fleet scrape that IS the sum/union of the per-agent
//       scrapes — counters summed exactly, histograms unioned bin-for-bin,
//       ring drops summed — and whose ingest totals match the agents'
//       ground truth;
//   (c) the fault visible in the event traces: the partitioned client's
//       shared trace carries the kDisconnect and kRebalance the kill
//       caused, and every surviving agent's trace carries its connects.
//
// Plus the agent-scrape regression: a live agent's scrape carries each of
// the eight rlir_agent_*_total counters exactly once, with the agent's
// instance label and the values CollectorAgent::stats() reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault_stream.h"
#include "fleet_workload.h"
#include "obs/metrics.h"
#include "obs/wire.h"
#include "transport/agent.h"
#include "transport/byte_stream.h"
#include "transport/frame.h"
#include "transport/coordinator.h"
#include "transport/messages.h"
#include "transport/partitioned_client.h"

namespace rlir {
namespace {

using transport::testutil::FaultPlan;
using transport::testutil::FaultyByteStream;

constexpr std::size_t kAgents = 4;
constexpr std::size_t kVictim = 2;

struct KillableFleet {
  KillableFleet() : alive(kAgents, true), conns(kAgents, nullptr) {
    transport::CollectorAgentConfig cfg;
    cfg.collector.shard_count = testutil::kWorkloadShards;
    for (std::size_t i = 0; i < kAgents; ++i) {
      agents.push_back(std::make_unique<transport::CollectorAgent>(cfg));
    }
  }

  transport::CollectorClient::StreamFactory factory(std::size_t i) {
    return [this, i]() -> std::unique_ptr<transport::ByteStream> {
      if (!alive[i]) return nullptr;
      auto [client_end, agent_end] = transport::make_loopback();
      agents[i]->add_connection(std::move(agent_end));
      auto wrapped = std::make_unique<FaultyByteStream>(std::move(client_end), FaultPlan{});
      conns[i] = wrapped.get();
      return wrapped;
    };
  }

  void kill(std::size_t i) {
    alive[i] = false;
    conns[i]->cut_now();
  }

  void poll_all() {
    for (std::size_t i = 0; i < kAgents; ++i) {
      if (alive[i]) agents[i]->poll();
    }
  }

  std::vector<std::unique_ptr<transport::CollectorAgent>> agents;
  std::vector<bool> alive;
  std::vector<FaultyByteStream*> conns;
};

/// Ring entries of one kind (the ring is the trace; totals are counters).
std::size_t in_ring(const obs::EventTraceSnapshot& trace, obs::EventKind kind) {
  return static_cast<std::size_t>(
      std::count_if(trace.events.begin(), trace.events.end(),
                    [kind](const obs::Event& ev) { return ev.kind == kind; }));
}

/// Identity key for hand-rolled merge verification.
std::string sample_key(const obs::MetricSample& s) {
  std::string key = s.name;
  for (const auto& [k, v] : s.labels) key += "|" + k + "=" + v;
  return key;
}

TEST(ObsFleetE2E, MergedFleetScrapeIsSumOfPerAgentScrapesUnderAgentKill) {
  KillableFleet fleet;
  transport::PartitionedClient pc;
  for (std::size_t i = 0; i < kAgents; ++i) pc.add_endpoint(fleet.factory(i));
  pc.pump();

  int steps = 0;
  bool killed = false;
  testutil::run_fleet_workload({pc.make_sink()}, [&] {
    pc.pump();
    fleet.poll_all();
    if (!killed && ++steps == 12) {
      for (int i = 0; i < 200 && !pc.drain(8); ++i) fleet.poll_all();
      fleet.poll_all();
      fleet.kill(kVictim);
      killed = true;
    }
  });
  ASSERT_TRUE(killed);
  for (int i = 0; i < 200 && !pc.drain(8); ++i) fleet.poll_all();
  fleet.poll_all();
  ASSERT_FALSE(pc.endpoint_healthy(kVictim));

  // (c) The fault left its trail in the shared client-side trace: the
  // endpoint client recorded the disconnect, the partitioned tier the
  // rebalance that moved the victim's slots.
  const auto pc_events = pc.events().snapshot();
  EXPECT_GE(in_ring(pc_events, obs::EventKind::kDisconnect), 1u);
  EXPECT_EQ(in_ring(pc_events, obs::EventKind::kRebalance), 1u);
  bool saw_victim_rebalance = false;
  for (const auto& ev : pc_events.events) {
    if (ev.kind == obs::EventKind::kRebalance) {
      saw_victim_rebalance = ev.detail == "ep" + std::to_string(kVictim);
      // Exactly its home slots.
      EXPECT_EQ(ev.value, transport::PartitionedClient::kSlotCount / kAgents);
    }
  }
  EXPECT_TRUE(saw_victim_rebalance);
  // The client-side registry agrees with the Stats view over it.
  EXPECT_EQ(pc.stats().rebalances, 1u);

  // --- The scrape: one kMetrics fan-out through the coordinator.
  transport::QueryCoordinatorConfig qcfg;
  qcfg.reply_rounds = 64;
  transport::QueryCoordinator coord(qcfg);
  for (std::size_t i = 0; i < kAgents; ++i) coord.add_agent(fleet.factory(i));
  coord.set_drive([&fleet] { fleet.poll_all(); });

  const auto per_agent = coord.per_agent_scrapes();
  ASSERT_EQ(per_agent.size(), kAgents);
  std::vector<obs::Scrape> answered;
  for (std::size_t i = 0; i < kAgents; ++i) {
    if (i == kVictim) {
      EXPECT_FALSE(per_agent[i].has_value()) << "dead agent answered a scrape";
    } else {
      ASSERT_TRUE(per_agent[i].has_value()) << "survivor " << i << " missed the scrape";
      answered.push_back(*per_agent[i]);
    }
  }
  const auto merged = transport::merge_scrapes(answered);

  // (b) Hand-rolled sum/union over the per-agent scrapes — the oracle the
  // production merge must match exactly.
  std::map<std::string, const obs::MetricSample*> expect_first;
  std::map<std::string, std::uint64_t> expect_counter;
  std::map<std::string, std::int64_t> expect_gauge;
  std::map<std::string, common::LatencySketch> expect_hist;
  for (const auto& scrape : answered) {
    for (const auto& s : scrape.metrics.samples) {
      const auto key = sample_key(s);
      expect_first.try_emplace(key, &s);
      switch (s.kind) {
        case obs::MetricKind::kCounter:
          expect_counter[key] += s.counter;
          break;
        case obs::MetricKind::kGauge: {
          auto [it, inserted] = expect_gauge.try_emplace(key, s.gauge);
          if (!inserted && s.gauge > it->second) it->second = s.gauge;
          break;
        }
        case obs::MetricKind::kHistogram: {
          expect_hist[key].merge(s.histogram);
          break;
        }
      }
    }
  }
  ASSERT_EQ(merged.metrics.samples.size(), expect_first.size());
  for (const auto& s : merged.metrics.samples) {
    const auto key = sample_key(s);
    ASSERT_TRUE(expect_first.count(key)) << "merge invented series " << key;
    switch (s.kind) {
      case obs::MetricKind::kCounter:
        EXPECT_EQ(s.counter, expect_counter.at(key)) << key;
        break;
      case obs::MetricKind::kGauge:
        EXPECT_EQ(s.gauge, expect_gauge.at(key)) << key;
        break;
      case obs::MetricKind::kHistogram:
        // Bin-for-bin: the union is exact, like every sketch merge.
        EXPECT_EQ(s.histogram.bins(), expect_hist.at(key).bins()) << key;
        EXPECT_EQ(s.histogram.zero_count(), expect_hist.at(key).zero_count()) << key;
        break;
    }
  }
  // Ring drops summed across the survivors; the roll-up keeps no ring.
  std::uint64_t want_dropped = 0;
  for (const auto& scrape : answered) want_dropped += scrape.events.dropped;
  EXPECT_EQ(merged.events.dropped, want_dropped);
  EXPECT_TRUE(merged.events.events.empty());

  // The merged scrape's ingest totals match the survivors' ground truth —
  // the scrape plane agrees with the query plane and the agents themselves.
  std::uint64_t want_records = 0;
  std::uint64_t want_estimates = 0;
  for (std::size_t i = 0; i < kAgents; ++i) {
    if (i == kVictim) continue;
    want_records += fleet.agents[i]->stats().records_ingested;
    want_estimates += fleet.agents[i]->stats().estimates_ingested;
  }
  const auto total = [&merged](const char* name) {
    return obs::counter_total(merged.metrics, name);
  };
  EXPECT_EQ(total("rlir_agent_records_ingested_total"), want_records);
  EXPECT_EQ(total("rlir_agent_estimates_ingested_total"), want_estimates);
  EXPECT_GT(total("rlir_agent_connections_accepted_total"), 0u);

  // (c) continued: every surviving agent's own trace saw its connections.
  for (const auto& scrape : answered) {
    EXPECT_GE(in_ring(scrape.events, obs::EventKind::kConnect), 1u);
  }

  // fleet_metrics() is the same merge driven by its own fan-out.
  EXPECT_EQ(obs::counter_total(coord.fleet_metrics().metrics,
                               "rlir_agent_records_ingested_total"),
            want_records);
}

TEST(AgentScrape, CarriesEveryAgentCounterOnceWithStatsValues) {
  transport::CollectorAgentConfig cfg;
  cfg.instruments.id = "a7";
  transport::CollectorAgent agent(cfg);

  // Traffic that moves every counter: a record batch, a query, then
  // garbage that gets the peer dropped.
  std::vector<collect::EstimateRecord> batch(3);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    batch[i].key.src_port = static_cast<std::uint16_t>(1000 + i);
    batch[i].epoch = static_cast<std::uint32_t>(i);
    batch[i].sketch.add(5e3 * static_cast<double>(i + 1));
  }
  auto bytes = transport::encode_frame(transport::FrameType::kRecordBatch,
                                       collect::encode_records(batch));
  const auto query = transport::encode_frame(transport::FrameType::kQuery,
                                             transport::encode_query(transport::Query{}));
  bytes.insert(bytes.end(), query.begin(), query.end());
  bytes.insert(bytes.end(), transport::kFrameHeaderSize, 0xde);  // bad frame magic
  auto [peer_end, agent_end] = transport::make_loopback();
  agent.add_connection(std::move(agent_end));
  ASSERT_EQ(peer_end->write_some(bytes.data(), bytes.size()), bytes.size());
  agent.poll();

  const auto stats = agent.stats();
  const std::pair<const char*, std::uint64_t> want[] = {
      {"rlir_agent_records_ingested_total", stats.records_ingested},
      {"rlir_agent_estimates_ingested_total", stats.estimates_ingested},
      {"rlir_agent_flows_total", stats.flows},
      {"rlir_agent_epochs_total", stats.epochs},
      {"rlir_agent_frames_received_total", stats.frames_received},
      {"rlir_agent_batches_received_total", stats.batches_received},
      {"rlir_agent_queries_answered_total", stats.queries_answered},
      {"rlir_agent_protocol_errors_total", stats.protocol_errors},
  };
  const auto scrape = agent.scrape();
  for (const auto& [name, value] : want) {
    EXPECT_GT(value, 0u) << name;
    std::size_t seen = 0;
    for (const auto& sample : scrape.metrics.samples) {
      if (sample.name != name) continue;
      seen += 1;
      EXPECT_EQ(sample.kind, obs::MetricKind::kCounter) << name;
      EXPECT_EQ(sample.counter, value) << name;
      EXPECT_EQ(sample.labels, (obs::Labels{{"instance", "a7"}})) << name;
    }
    EXPECT_EQ(seen, 1u) << name;
  }
}

}  // namespace
}  // namespace rlir
