// Trace persistence: generate a workload once, save it, and replay it
// bit-identically — the workflow the paper uses with its fixed 1-minute
// CAIDA traces, available here without shipping any data.
//
// Also demonstrates the traffic divider (Figure 3's first block): a single
// mixed trace is split into regular and cross streams by source prefix.
//
// Usage: trace_replay [TRACE_PATH]   (default /tmp/rlir_example_trace.bin;
// the file is removed once replayed)
#include <algorithm>
#include <cstdio>
#include <string>

#include "rli/flow_stats.h"
#include "rli/receiver.h"
#include "rli/sender.h"
#include "sim/pipeline.h"
#include "timebase/clock.h"
#include "trace/divider.h"
#include "trace/synthetic.h"
#include "trace/trace_file.h"

namespace rlir {

int run_example(const std::string& path) {
  using timebase::Duration;

  const net::Ipv4Prefix regular_pool(net::Ipv4Address(10, 0, 0, 0), 16);
  const net::Ipv4Prefix cross_pool(net::Ipv4Address(172, 16, 0, 0), 16);

  // 1. Generate a mixed workload and persist it.
  {
    trace::SyntheticConfig reg_cfg;
    reg_cfg.duration = Duration::milliseconds(100);
    reg_cfg.offered_bps = 2.2e9;
    reg_cfg.src_pool = regular_pool;
    reg_cfg.seed = 42;
    auto packets = trace::SyntheticTraceGenerator(reg_cfg).generate_all();

    trace::SyntheticConfig cross_cfg = reg_cfg;
    cross_cfg.offered_bps = 6e9;
    cross_cfg.src_pool = cross_pool;
    cross_cfg.seed = 43;
    cross_cfg.first_seq = 1'000'000'000;
    const auto cross = trace::SyntheticTraceGenerator(cross_cfg).generate_all();
    packets.insert(packets.end(), cross.begin(), cross.end());
    std::sort(packets.begin(), packets.end(),
              [](const net::Packet& a, const net::Packet& b) { return a.ts < b.ts; });

    trace::TraceWriter::write_file(path, packets);
    std::printf("wrote %zu packets to %s\n", packets.size(), path.c_str());
  }

  // 2. Reload and divide into regular vs cross by source prefix.
  const auto loaded = trace::TraceReader::read_file(path);
  trace::TrafficDivider divider;
  divider.add_regular(regular_pool);
  divider.add_cross(cross_pool);

  std::vector<net::Packet> regular;
  std::vector<net::Packet> cross;
  for (const auto& raw : loaded) {
    const net::Packet pkt = divider.divide(raw);
    (pkt.kind == net::PacketKind::kRegular ? regular : cross).push_back(pkt);
  }
  std::printf("reloaded %zu packets: %zu regular, %zu cross\n", loaded.size(),
              regular.size(), cross.size());

  // 3. Replay through the measured segment; replays are bit-identical, so
  //    results are exactly reproducible run over run.
  timebase::PerfectClock clock;
  rli::RliSender sender(rli::SenderConfig{}, &clock);
  rli::RliReceiver receiver(rli::ReceiverConfig{}, &clock);
  rli::GroundTruthTap truth;

  sim::TwoHopPipeline pipeline{sim::PipelineConfig{}};
  pipeline.set_reference_injector(&sender);
  pipeline.add_egress_tap(&receiver);
  pipeline.add_egress_tap(&truth);
  const auto run = pipeline.run(regular, cross);

  const auto report = rli::AccuracyReport::compare(truth.per_flow(), receiver.per_flow());
  std::printf("bottleneck utilization: %.1f%%\n", 100.0 * run.bottleneck_utilization());
  std::printf("flows estimated: %zu, median relative error: %.2f%%\n",
              report.flow_count(), 100.0 * report.median_mean_error());
  std::remove(path.c_str());
  return 0;
}

}  // namespace rlir

int main(int argc, char** argv) {
  return rlir::run_example(argc > 1 ? argv[1] : "/tmp/rlir_example_trace.bin");
}
