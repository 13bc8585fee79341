// Reusable experiment drivers for the paper's evaluation (Section 4).
//
// Each bench binary regenerates one figure/table; they all share this
// harness so the simulated environment is identical across experiments:
// the Figure-3 two-hop pipeline, the synthetic OC-192-like traces, the
// calibrated cross-traffic injector, and the RLI sender/receiver pair.
#pragma once

#include <cstdint>
#include <string>

#include "rli/flow_stats.h"
#include "rli/receiver.h"
#include "rli/sender.h"
#include "sim/cross_traffic.h"
#include "sim/pipeline.h"
#include "timebase/time.h"
#include "trace/synthetic.h"

namespace rlir::exp {

struct ExperimentConfig {
  /// Trace horizon. The paper replays 60 s traces; the default regenerates
  /// the same regimes at 10G in a few hundred ms of simulated time (scale up
  /// freely — everything is O(packets)).
  timebase::Duration duration = timebase::Duration::milliseconds(400);
  double link_bps = 10e9;

  /// Offered regular load as a fraction of the link (paper: ~22%, which
  /// keeps the adaptive scheme at its highest rate, 1-and-10).
  double regular_utilization = 0.22;
  /// Offered (pre-thinning) cross load as a fraction of the link; must
  /// exceed target - regular so the injector can reach the target.
  double cross_offered_utilization = 1.0;
  /// Bottleneck (switch2) utilization the cross injector is calibrated to.
  double target_utilization = 0.67;

  sim::CrossModel cross_model = sim::CrossModel::kUniform;
  /// Bursty model: cross traffic is concentrated into ON windows running the
  /// bottleneck at `burst_peak_utilization`, with the duty cycle chosen so
  /// the whole-run average still meets `target_utilization` — the paper's
  /// "controlling cross traffic injection duration" (10 s bursts in a 60 s
  /// trace), which is what produces persistent congestion events and its
  /// 117 us average delay at a 67% average utilization.
  double burst_peak_utilization = 0.98;
  timebase::Duration burst_period = timebase::Duration::milliseconds(100);

  rli::InjectionScheme scheme = rli::InjectionScheme::kStatic;
  std::uint32_t static_gap = 100;  ///< the paper's worst-case 1-and-100
  rli::EstimatorKind estimator = rli::EstimatorKind::kLinear;

  /// When false, no reference packets are injected (the Figure-5 baseline
  /// run for measuring probe-induced loss).
  bool inject_references = true;

  /// Bottleneck buffer; 500KB ≈ 400us at 10G.
  std::uint64_t switch_buffer_bytes = 500 * 1000;

  /// Residual clock-synchronization error bound at the receiver (0 =
  /// perfectly synchronized, the paper's implicit assumption). Non-zero
  /// values emulate an IEEE-1588 slave whose offset is re-pulled into
  /// [-bound, +bound] every `sync_interval` — the error propagates into
  /// every reference-delay measurement, exactly as it would in hardware.
  timebase::Duration sync_residual = timebase::Duration::zero();
  timebase::Duration sync_interval = timebase::Duration::milliseconds(10);

  std::uint64_t seed = 1;

  [[nodiscard]] std::string label() const;
};

struct ExperimentResult {
  sim::PipelineResult pipeline;
  /// Estimate-vs-truth per-flow accuracy (empty when inject_references is
  /// false).
  rli::AccuracyReport report;

  std::uint64_t references_injected = 0;
  std::uint64_t regular_packets = 0;
  std::uint64_t regular_flows = 0;
  std::uint64_t cross_packets_offered = 0;

  /// Ground-truth average/stddev of regular-packet delay across the segment
  /// (the paper quotes 3.0us @67%, 83us @93%, 117us bursty @67%).
  double true_mean_latency_ns = 0.0;
  double true_stddev_latency_ns = 0.0;

  /// Regular-packet loss rate (Figure 5's quantity of interest).
  double regular_loss_rate = 0.0;
  /// Measured bottleneck utilization (sanity check against the target).
  double measured_utilization = 0.0;
};

/// Runs one Figure-3 experiment.
[[nodiscard]] ExperimentResult run_two_hop_experiment(const ExperimentConfig& config);

/// Demux strategy for the fat-tree downstream experiment.
enum class DemuxStrategy : std::uint8_t {
  kReverseEcmp,   ///< RLIR, Section 3.1 option (ii)
  kMarking,       ///< RLIR, Section 3.1 option (i) — needs core support
  kNone,          ///< strawman: interpolate everything against one stream
};

[[nodiscard]] constexpr const char* to_string(DemuxStrategy s) {
  switch (s) {
    case DemuxStrategy::kReverseEcmp: return "reverse-ecmp";
    case DemuxStrategy::kMarking: return "marking";
    case DemuxStrategy::kNone: return "none";
  }
  return "?";
}

struct FatTreeExperimentConfig {
  int k = 4;
  timebase::Duration duration = timebase::Duration::milliseconds(40);
  /// Offered load per source ToR.
  double per_tor_offered_bps = 1.5e9;
  /// Number of source ToRs in remote pods sending to the receiver ToR.
  int source_tors = 2;
  DemuxStrategy demux = DemuxStrategy::kReverseEcmp;
  std::uint32_t static_gap = 50;
  /// Per-core forwarding-delay heterogeneity: core c forwards with an extra
  /// c * core_delay_step. Zero = symmetric fabric. Asymmetry is what makes
  /// demultiplexing matter: with symmetric paths, interpolating against the
  /// wrong core's references is (coincidentally) harmless.
  timebase::Duration core_delay_step = timebase::Duration::zero();
  std::uint64_t seed = 1;
};

struct FatTreeExperimentResult {
  rli::AccuracyReport report;
  std::uint64_t unclassified_packets = 0;
  std::uint64_t classified_packets = 0;
  std::size_t streams = 0;
};

/// Runs the downstream (core -> destination ToR) RLIR measurement on a
/// fat-tree with the chosen demux strategy. The kNone strategy reproduces
/// the failure mode motivating Section 3.1 ("per-flow latency estimates at
/// the receivers can be totally wrong").
[[nodiscard]] FatTreeExperimentResult run_fattree_downstream_experiment(
    const FatTreeExperimentConfig& config);

}  // namespace rlir::exp
