#include "exp/experiment.h"

#include <memory>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "rlir/segment_truth.h"
#include "rlir/sender_agent.h"
#include "timebase/clock.h"
#include "topo/fattree_sim.h"

namespace rlir::exp {

std::string ExperimentConfig::label() const {
  std::ostringstream os;
  os << (scheme == rli::InjectionScheme::kAdaptive ? "adaptive" : "static") << ", "
     << (cross_model == sim::CrossModel::kBursty ? "bursty" : "random") << ", "
     << static_cast<int>(target_utilization * 100.0 + 0.5) << "%";
  return os.str();
}

ExperimentResult run_two_hop_experiment(const ExperimentConfig& config) {
  // --- Workload -------------------------------------------------------
  trace::SyntheticConfig regular_cfg;
  regular_cfg.duration = config.duration;
  regular_cfg.offered_bps = config.regular_utilization * config.link_bps;
  regular_cfg.src_pool = net::Ipv4Prefix(net::Ipv4Address(10, 0, 0, 0), 16);
  regular_cfg.seed = config.seed;

  trace::SyntheticConfig cross_cfg;
  cross_cfg.duration = config.duration;
  cross_cfg.offered_bps = config.cross_offered_utilization * config.link_bps;
  cross_cfg.src_pool = net::Ipv4Prefix(net::Ipv4Address(172, 16, 0, 0), 16);
  cross_cfg.kind = net::PacketKind::kCross;
  cross_cfg.seed = config.seed + 0x0c0ffee;
  cross_cfg.first_seq = std::uint64_t{1} << 40;

  // Heavy-tailed flows are cut at the horizon, so a short trace realizes
  // less volume than configured (see SyntheticConfig::offered_bps). One
  // calibration retry rescales offered load to land on the intended rate.
  const auto generate_calibrated = [&](trace::SyntheticConfig cfg, std::uint64_t* bytes_out) {
    const double target_bits = cfg.offered_bps * cfg.duration.sec();
    auto packets = trace::SyntheticTraceGenerator(cfg).generate_all();
    std::uint64_t bytes = 0;
    for (const auto& p : packets) bytes += p.size_bytes;
    const double achieved_bits = static_cast<double>(bytes) * 8.0;
    if (achieved_bits < 0.95 * target_bits && achieved_bits > 0.0) {
      cfg.offered_bps *= target_bits / achieved_bits;
      packets = trace::SyntheticTraceGenerator(cfg).generate_all();
      bytes = 0;
      for (const auto& p : packets) bytes += p.size_bytes;
    }
    *bytes_out = bytes;
    return packets;
  };

  std::uint64_t regular_bytes = 0;
  const auto regular = generate_calibrated(regular_cfg, &regular_bytes);
  std::uint64_t cross_bytes = 0;
  const auto cross = generate_calibrated(cross_cfg, &cross_bytes);

  std::unordered_set<std::uint64_t> distinct_flows;
  for (const auto& p : regular) distinct_flows.insert(p.key.hash());

  // --- Cross-traffic calibration --------------------------------------
  sim::CrossTrafficConfig injector_cfg;
  injector_cfg.model = config.cross_model;
  injector_cfg.seed = config.seed + 0xc105;
  if (config.cross_model == sim::CrossModel::kUniform) {
    injector_cfg.selection_probability =
        sim::selection_for_utilization(config.target_utilization, config.link_bps,
                                       config.duration, regular_bytes, cross_bytes);
  } else {
    // Bursty: within ON windows the bottleneck runs at burst_peak_utilization;
    // the duty cycle delivers the target as a whole-run average.
    const double regular_util = static_cast<double>(regular_bytes) * 8.0 /
                                (config.link_bps * config.duration.sec());
    const double peak = std::max(config.burst_peak_utilization, regular_util + 0.01);
    double duty = (config.target_utilization - regular_util) / (peak - regular_util);
    duty = std::clamp(duty, 0.02, 1.0);
    const auto on_ns =
        static_cast<std::int64_t>(duty * static_cast<double>(config.burst_period.ns()));
    injector_cfg.burst_on = timebase::Duration(on_ns);
    injector_cfg.burst_off = config.burst_period - injector_cfg.burst_on;
    injector_cfg.selection_probability = sim::selection_for_utilization(
        peak, config.link_bps, config.duration, regular_bytes, cross_bytes);
  }
  sim::CrossTrafficInjector injector(injector_cfg);

  // --- Measurement stack -----------------------------------------------
  // The sender stamps with an ideal clock; receiver-side sync error models
  // the *relative* offset of the pair, which is all that matters for
  // one-way delay.
  timebase::PerfectClock sender_clock;
  std::unique_ptr<timebase::Clock> receiver_clock;
  if (config.sync_residual > timebase::Duration::zero()) {
    receiver_clock = std::make_unique<timebase::SyncedClock>(
        config.sync_interval, config.sync_residual, /*drift_ppb=*/0.0,
        config.seed + 0x51c);
  } else {
    receiver_clock = std::make_unique<timebase::PerfectClock>();
  }

  rli::SenderConfig sender_cfg;
  sender_cfg.scheme = config.scheme;
  sender_cfg.static_gap = config.static_gap;
  sender_cfg.link_bps = config.link_bps;
  rli::RliSender sender(sender_cfg, &sender_clock);

  rli::ReceiverConfig receiver_cfg;
  receiver_cfg.estimator = config.estimator;
  rli::RliReceiver receiver(receiver_cfg, receiver_clock.get());
  rli::GroundTruthTap truth;

  sim::PipelineConfig pipe_cfg;
  pipe_cfg.switch1.link_bps = config.link_bps;
  pipe_cfg.switch2.link_bps = config.link_bps;
  pipe_cfg.switch1.capacity_bytes = config.switch_buffer_bytes;
  pipe_cfg.switch2.capacity_bytes = config.switch_buffer_bytes;
  sim::TwoHopPipeline pipeline(pipe_cfg);
  if (config.inject_references) pipeline.set_reference_injector(&sender);
  pipeline.set_cross_injector(&injector);
  pipeline.add_egress_tap(&receiver);
  pipeline.add_egress_tap(&truth);

  // --- Run & score ------------------------------------------------------
  ExperimentResult result;
  result.pipeline = pipeline.run(regular, cross);
  result.references_injected = sender.references_injected();
  result.regular_packets = regular.size();
  result.cross_packets_offered = cross.size();
  result.regular_flows = distinct_flows.size();
  result.regular_loss_rate = result.pipeline.regular_loss_rate();
  result.measured_utilization = result.pipeline.bottleneck_utilization();

  common::RunningStats overall_truth;
  for (const auto& [key, stats] : truth.per_flow()) overall_truth.merge(stats);
  result.true_mean_latency_ns = overall_truth.mean();
  result.true_stddev_latency_ns = overall_truth.stddev();

  if (config.inject_references) {
    result.report = rli::AccuracyReport::compare(truth.per_flow(), receiver.per_flow());
  }
  return result;
}

FatTreeExperimentResult run_fattree_downstream_experiment(
    const FatTreeExperimentConfig& config) {
  topo::FatTree topo(config.k);
  topo::Crc32EcmpHasher hasher;
  timebase::PerfectClock clock;

  topo::FatTreeSimConfig sim_cfg;
  sim_cfg.core_marking = (config.demux == DemuxStrategy::kMarking);
  topo::FatTreeSim sim(&topo, sim_cfg, &hasher);

  const topo::NodeId dst_tor = topo.tor(config.k - 1, 0);

  if (config.core_delay_step > timebase::Duration::zero()) {
    for (int c = 0; c < topo.core_count(); ++c) {
      sim.add_extra_delay(topo.core(c), config.core_delay_step * c);
    }
  }

  // Sender agents at every core, targeting the receiver ToR.
  std::vector<std::unique_ptr<rlir::CoreSenderAgent>> senders;
  for (int c = 0; c < topo.core_count(); ++c) {
    rli::SenderConfig cfg;
    cfg.id = static_cast<net::SenderId>(100 + c);
    cfg.static_gap = config.static_gap;
    senders.push_back(std::make_unique<rlir::CoreSenderAgent>(
        cfg, &clock, std::vector<topo::NodeId>{dst_tor}));
    sim.add_agent(topo.core(c), senders.back().get());
  }

  // Demux strategy under test.
  std::unique_ptr<rlir::Demultiplexer> demux;
  switch (config.demux) {
    case DemuxStrategy::kReverseEcmp: {
      auto d = std::make_unique<rlir::ReverseEcmpDemux>(&topo, &hasher, dst_tor);
      for (int c = 0; c < topo.core_count(); ++c) {
        d->set_sender_at_core(c, static_cast<net::SenderId>(100 + c));
      }
      demux = std::move(d);
      break;
    }
    case DemuxStrategy::kMarking: {
      auto d = std::make_unique<rlir::MarkingDemux>();
      for (int c = 0; c < topo.core_count(); ++c) {
        d->map_mark(static_cast<net::TosMark>(c + 1), static_cast<net::SenderId>(100 + c));
      }
      demux = std::move(d);
      break;
    }
    case DemuxStrategy::kNone:
      // Everything lands in sender 100's stream, references from all cores
      // and regular packets from all paths interleaved — the failure mode.
      demux = std::make_unique<rlir::SingleSenderDemux>(100);
      break;
  }

  rlir::RlirReceiver receiver(rli::ReceiverConfig{}, &clock, demux.get());
  sim.add_arrival_tap(dst_tor, &receiver);

  // Ground truth per core segment (merged).
  std::vector<std::unique_ptr<rlir::SegmentTruth>> truths;
  for (int c = 0; c < topo.core_count(); ++c) {
    truths.push_back(std::make_unique<rlir::SegmentTruth>());
    sim.add_arrival_tap(topo.core(c), &truths.back()->entry_tap());
    sim.add_arrival_tap(dst_tor, &truths.back()->exit_tap());
  }

  // Traffic: `source_tors` ToRs from pods other than the receiver's.
  int placed = 0;
  std::uint64_t seed = config.seed;
  for (int pod = 0; pod < config.k - 1 && placed < config.source_tors; ++pod) {
    for (int t = 0; t < topo.tors_per_pod() && placed < config.source_tors; ++t) {
      trace::SyntheticConfig tcfg;
      tcfg.duration = config.duration;
      tcfg.offered_bps = config.per_tor_offered_bps;
      tcfg.seed = ++seed;
      tcfg.src_pool = topo.host_prefix(topo.tor(pod, t));
      tcfg.dst_pool = topo.host_prefix(dst_tor);
      tcfg.first_seq = static_cast<std::uint64_t>(placed + 1) * 100'000'000ULL;
      for (const auto& pkt : trace::SyntheticTraceGenerator(tcfg).generate_all()) {
        sim.inject_from_host(pkt);
      }
      ++placed;
    }
  }
  sim.run();

  rli::FlowStatsMap truth_all;
  for (auto& t : truths) {
    for (const auto& [key, stats] : t->per_flow()) truth_all[key].merge(stats);
  }

  FatTreeExperimentResult result;
  result.report = rli::AccuracyReport::compare(truth_all, receiver.merged_estimates());
  result.unclassified_packets = receiver.unclassified_packets();
  result.classified_packets = receiver.classified_packets();
  result.streams = receiver.stream_count();
  return result;
}

}  // namespace rlir::exp
