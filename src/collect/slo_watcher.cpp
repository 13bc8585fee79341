#include "collect/slo_watcher.h"

#include <stdexcept>
#include <string>

#include "common/stats.h"
#include "rli/flow_stats.h"

namespace rlir::collect {

SloWatcher::SloWatcher(SloWatcherConfig config, const SketchHistoryStore* history)
    : config_(std::move(config)), history_(history), obs_(config_.instruments) {
  if (history_ == nullptr) {
    throw std::invalid_argument("SloWatcher: history store must not be null");
  }
  if (!(config_.quantile >= 0.0 && config_.quantile <= 1.0)) {
    throw std::invalid_argument("SloWatcher: quantile must be in [0, 1]");
  }
  if (!(config_.threshold_ns > 0.0)) {
    throw std::invalid_argument("SloWatcher: threshold_ns must be > 0");
  }
  if (config_.window_epochs == 0) {
    throw std::invalid_argument("SloWatcher: window_epochs must be >= 1");
  }
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  checks_ = r.counter("rlir_slo_checks_total", base);
  violations_ = r.counter("rlir_slo_violations_total", base);
  flows_checked_ = r.counter("rlir_slo_flows_checked_total", base);
}

std::vector<SloViolation> SloWatcher::check(std::uint32_t epoch) {
  const std::uint32_t window = static_cast<std::uint32_t>(config_.window_epochs);
  const std::uint32_t first = epoch >= window - 1 ? epoch - (window - 1) : 0;
  checks_->increment();

  auto flows = history_->window_flow_sketches(first, epoch);
  if (flows.size() > kMaxFlowsChecked) flows.resize(kMaxFlowsChecked);

  std::vector<SloViolation> violations;
  for (const auto& [key, sketch] : flows) {
    flows_checked_->increment();
    const double value = sketch.quantile(config_.quantile);
    if (value <= config_.threshold_ns) continue;
    SloViolation v;
    v.key = key;
    v.value_ns = value;
    v.threshold_ns = config_.threshold_ns;
    v.window_first = first;
    v.window_last = epoch;
    violations.push_back(std::move(v));
  }
  if (violations.empty()) return violations;

  // Something breached: ask "which link shifted" once for the whole window.
  // Each link's sketch becomes decile probe pseudo-flows so the localizer's
  // median-of-flow-means reads off the link's distribution median.
  rlir::AnomalyLocalizer localizer;
  for (const auto& [link, sketch] : history_->window_links(first, epoch)) {
    if (sketch.empty()) continue;
    rli::FlowStatsMap probes;
    for (int i = 0; i < 10; ++i) {
      net::FiveTuple probe_key;
      probe_key.src_port = static_cast<std::uint16_t>(i);
      common::RunningStats stats;
      stats.add(sketch.quantile(0.05 + 0.1 * i));
      probes.try_emplace(probe_key, stats);
    }
    localizer.add_segment("link" + std::to_string(link), probes);
  }
  const auto findings = localizer.localize(kLocalizationFactor);

  for (auto& v : violations) {
    v.findings = findings;
    violations_->increment();
    obs_.trace().record(obs::EventKind::kSloViolation,
                        static_cast<std::uint64_t>(v.value_ns), v.key.to_string());
  }
  return violations;
}

std::vector<SloViolation> SloWatcher::poll() {
  // The newest epoch seen still admits records (aged flows ship mid-epoch);
  // a record's epoch seals every epoch before it.
  const auto last = history_->last_epoch();
  if (!last.has_value() || *last == 0) return {};
  const std::uint32_t sealed = *last - 1;
  if (any_checked_ && sealed <= last_checked_) return {};
  any_checked_ = true;
  last_checked_ = sealed;
  return check(sealed);
}

}  // namespace rlir::collect
