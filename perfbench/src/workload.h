// The benchmark's workloads: one fat-tree traffic shape each, plus how the
// recorded arrivals are replayed into the collection chain. README.md says
// why each exists and which layers it loads.
#pragma once

#include <cstddef>
#include <string_view>

#include "timebase/time.h"

namespace perfbench {

using rlir::timebase::Duration;

struct Workload {
  const char* name;
  /// Synthetic flow-size shape (trace::SyntheticConfig).
  double mean_flow_packets;
  double pareto_alpha;
  double burst_probability;
  /// Offered load of each of the 16 source-ToR -> destination-ToR pairs, and
  /// the simulated traffic span of one recorded pass.
  double pair_bps;
  Duration traffic_span;
  /// Collection tier: epoch period, exporter idle aging, and the fixed
  /// sim-time tick that drives EpochScheduler::advance_to.
  Duration epoch;
  Duration max_flow_idle;
  Duration tick;
  /// Agents (1 = CollectorClient, 2 = PartitionedClient spray). All agents
  /// keep the epoch history store.
  std::size_t agents;
  /// Open loop: arrivals are released at `arrivals_per_s` (wall clock) and
  /// an operator thread sends `queries_per_s` coordinator queries beside
  /// ingest. Closed loop: replay runs flat out, then `post_queries` are
  /// sent one after another against the settled fleet.
  bool open_loop;
  double arrivals_per_s;
  double queries_per_s;
  std::size_t post_queries;
};

inline constexpr Workload kWorkloads[] = {
    {.name = "elephant_flows",
     .mean_flow_packets = 200.0,
     .pareto_alpha = 1.25,
     .burst_probability = 0.5,
     .pair_bps = 2.5e9,
     .traffic_span = Duration::milliseconds(40),
     .epoch = Duration::milliseconds(10),
     .max_flow_idle = Duration::milliseconds(4),
     .tick = Duration::milliseconds(1),
     .agents = 1,
     .open_loop = false,
     .arrivals_per_s = 0.0,
     .queries_per_s = 0.0,
     .post_queries = 400},
    {.name = "mouse_flows",
     .mean_flow_packets = 2.0,
     .pareto_alpha = 2.0,
     .burst_probability = 0.0,
     .pair_bps = 2.5e9,
     .traffic_span = Duration::milliseconds(40),
     .epoch = Duration::milliseconds(1),
     .max_flow_idle = Duration::microseconds(200),
     .tick = Duration::microseconds(250),
     .agents = 1,
     .open_loop = false,
     .arrivals_per_s = 0.0,
     .queries_per_s = 0.0,
     .post_queries = 400},
    {.name = "live_queries",
     .mean_flow_packets = 15.0,
     .pareto_alpha = 1.25,
     .burst_probability = 0.5,
     .pair_bps = 0.8e9,
     .traffic_span = Duration::milliseconds(120),
     .epoch = Duration::milliseconds(5),
     .max_flow_idle = Duration::milliseconds(2),
     .tick = Duration::milliseconds(1),
     .agents = 2,
     .open_loop = true,
     .arrivals_per_s = 800'000.0,
     .queries_per_s = 120.0,
     .post_queries = 0},
};

[[nodiscard]] inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
