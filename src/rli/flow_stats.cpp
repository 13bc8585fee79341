#include "rli/flow_stats.h"

namespace rlir::rli {

void GroundTruthTap::on_packet(const net::Packet& packet, timebase::TimePoint) {
  if (packet.kind != net::PacketKind::kRegular) return;
  per_flow_[packet.key].add(static_cast<double>(packet.true_delay().ns()));
  ++packets_;
}

AccuracyReport AccuracyReport::compare(const FlowStatsMap& truth, const FlowStatsMap& estimates,
                                       std::uint64_t min_packets) {
  AccuracyReport report;
  report.samples_.reserve(truth.size());
  for (const auto& [key, true_stats] : truth) {
    if (true_stats.count() < min_packets) continue;
    const auto it = estimates.find(key);
    if (it == estimates.end() || it->second.empty()) {
      ++report.unmatched_;
      continue;
    }
    const auto& est_stats = it->second;

    ErrorSample s;
    s.key = key;
    s.true_packets = true_stats.count();
    s.est_packets = est_stats.count();
    s.true_mean = true_stats.mean();
    s.est_mean = est_stats.mean();
    s.true_stddev = true_stats.stddev();
    s.est_stddev = est_stats.stddev();

    const auto mean_err = common::relative_error(s.est_mean, s.true_mean);
    if (!mean_err) continue;  // zero true latency: error undefined, skip flow
    s.mean_rel_error = *mean_err;

    if (const auto sd_err = common::relative_error(s.est_stddev, s.true_stddev)) {
      s.stddev_rel_error = *sd_err;
      s.has_stddev_error = true;
    }
    report.samples_.push_back(s);
  }
  return report;
}

common::Cdf AccuracyReport::mean_error_cdf() const {
  std::vector<double> errors;
  errors.reserve(samples_.size());
  for (const auto& s : samples_) errors.push_back(s.mean_rel_error);
  return common::Cdf(std::move(errors));
}

common::Cdf AccuracyReport::stddev_error_cdf() const {
  std::vector<double> errors;
  errors.reserve(samples_.size());
  for (const auto& s : samples_) {
    if (s.has_stddev_error) errors.push_back(s.stddev_rel_error);
  }
  return common::Cdf(std::move(errors));
}

}  // namespace rlir::rli
