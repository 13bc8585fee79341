// Per-flow latency statistics and estimate-vs-truth accuracy reports.
//
// "Obtaining per-flow measurements now is just a matter of aggregating
// latency estimates across packets that share a given flow key." (Section 2)
// Estimates and ground truth both accumulate into FlowStatsMap; the
// AccuracyReport joins them and produces the relative-error CDFs that
// Figure 4 plots.
#pragma once

#include <cstdint>
#include <vector>

#include "common/flat_hash_map.h"
#include "common/stats.h"
#include "net/flow_key.h"
#include "net/packet.h"
#include "sim/tap.h"
#include "timebase/time.h"

namespace rlir::rli {

/// Flat per-flow accumulator: one dense entry vector plus a slot index, so a
/// new flow is a push_back, not a heap node (most data-center flows are
/// mice, so most estimates open or touch a short-lived flow). Iteration runs
/// in insertion order until an erase swaps the last entry into the gap; it
/// is not hash order, and callers that need an order sort. An insert may
/// grow the vector, so it invalidates references and iterators into the map.
using FlowStatsMap = common::FlatHashMap<net::FiveTuple, common::RunningStats>;

/// Evaluation-side tap that records the *true* per-flow delay distribution
/// (reads Packet::true_delay(), which the measurement stack never touches).
/// Records regular packets only, the traffic the receiver estimates.
class GroundTruthTap final : public sim::PacketTap {
 public:
  void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override;

  [[nodiscard]] const FlowStatsMap& per_flow() const { return per_flow_; }
  [[nodiscard]] std::uint64_t packets_recorded() const { return packets_; }

 private:
  FlowStatsMap per_flow_;
  std::uint64_t packets_ = 0;
};

/// One flow's estimate-vs-truth comparison.
struct ErrorSample {
  net::FiveTuple key;
  std::uint64_t true_packets = 0;
  std::uint64_t est_packets = 0;
  double true_mean = 0.0;   // ns
  double est_mean = 0.0;    // ns
  double true_stddev = 0.0; // ns
  double est_stddev = 0.0;  // ns
  double mean_rel_error = 0.0;
  double stddev_rel_error = 0.0;  // only meaningful when true_stddev > 0
  bool has_stddev_error = false;
};

/// Join of estimated and true per-flow statistics.
class AccuracyReport {
 public:
  /// Joins flows present in both maps with at least `min_packets` true
  /// packets (flows whose packets were all lost or never estimated cannot be
  /// compared; the paper evaluates flows the receiver produced estimates
  /// for).
  static AccuracyReport compare(const FlowStatsMap& truth, const FlowStatsMap& estimates,
                                std::uint64_t min_packets = 1);

  [[nodiscard]] const std::vector<ErrorSample>& samples() const { return samples_; }
  [[nodiscard]] std::size_t flow_count() const { return samples_.size(); }
  /// Flows present in the truth map that produced no estimate at all.
  [[nodiscard]] std::size_t unmatched_flows() const { return unmatched_; }

  /// CDF of per-flow relative error of the mean estimate (Figure 4(a)/(c)).
  [[nodiscard]] common::Cdf mean_error_cdf() const;
  /// CDF of per-flow relative error of the stddev estimate (Figure 4(b)).
  /// Only flows with a defined stddev error contribute.
  [[nodiscard]] common::Cdf stddev_error_cdf() const;

  [[nodiscard]] double median_mean_error() const { return mean_error_cdf().median(); }

 private:
  std::vector<ErrorSample> samples_;
  std::size_t unmatched_ = 0;
};

}  // namespace rlir::rli
