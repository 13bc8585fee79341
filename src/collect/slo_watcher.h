// Windowed tail-latency SLO watcher over the sketch history store.
//
// The history store answers "what was p99 over [e1, e2]"; the watcher turns
// that into an alarm: each epoch it evaluates every flow's windowed quantile
// against a threshold, and when a flow breaches it localizes the likely
// culprit by feeding the window's per-link distributions to the existing
// RLIR anomaly localizer — the same "which segment shifted" machinery the
// live path uses, now pointed at history. Breaches surface three ways:
// returned SloViolation values, obs kSloViolation trace events (value =
// measured ns, detail = flow key), and rlir_slo_* counters.
//
// Localization works on per-flow RunningStats; a sketch is not a flow list,
// so each link's windowed sketch is summarized as decile probe points
// (quantile(0.05), 0.15, ..., 0.95) presented as pseudo-flows. The
// localizer's median-of-flow-means then sees each link's distribution
// median, which is exactly the cross-link comparison it was built for.
//
// Driving: check(epoch) evaluates one window, and poll() evaluates the
// newest sealed epoch once; nothing else runs a check. A check reads the
// window's flows in one pass over the store, not one pass per flow, and
// evaluates at most kMaxFlowsChecked of them.
// Not itself thread-safe — drive it from one thread (the history store it
// reads is internally locked).
#pragma once

#include <cstdint>
#include <vector>

#include "collect/history.h"
#include "net/flow_key.h"
#include "obs/instrument.h"
#include "rlir/localization.h"

namespace rlir::collect {

struct SloWatcherConfig {
  /// Quantile evaluated per flow (the "p" in p99-under-threshold). [0, 1].
  double quantile = 0.99;
  /// Breach when the windowed quantile exceeds this. Must be > 0.
  double threshold_ns = 0.0;
  /// Window length in epochs ending at the checked epoch. Must be >= 1.
  std::size_t window_epochs = 8;
  /// Observability attachment: rlir_slo_checks_total /
  /// rlir_slo_violations_total / rlir_slo_flows_checked_total counters and
  /// kSloViolation trace events.
  obs::Instruments instruments;
};

/// One flow's breach for one checked window, with the localizer's verdict.
struct SloViolation {
  net::FiveTuple key;
  /// Measured windowed quantile (ns).
  double value_ns = 0.0;
  double threshold_ns = 0.0;
  std::uint32_t window_first = 0;
  std::uint32_t window_last = 0;
  /// Per-link findings from the RLIR localizer, one per link seen in the
  /// window (segment name "link<id>"); identical across the violations of
  /// one check (the window is shared).
  std::vector<rlir::LocalizationFinding> findings;
};

class SloWatcher {
 public:
  /// Threshold factor handed to the RLIR localizer (segment median vs
  /// cross-segment baseline).
  static constexpr double kLocalizationFactor = 3.0;
  /// Evaluation bound per check: at most this many flows (the window's flow
  /// list is sorted by key, so truncation is deterministic).
  static constexpr std::size_t kMaxFlowsChecked = 4096;

  /// Throws std::invalid_argument on a bad config or null history.
  SloWatcher(SloWatcherConfig config, const SketchHistoryStore* history);

  SloWatcher(const SloWatcher&) = delete;
  SloWatcher& operator=(const SloWatcher&) = delete;

  /// Evaluates the window ending at `epoch` (clamped at epoch 0); returns
  /// every breaching flow, localized.
  std::vector<SloViolation> check(std::uint32_t epoch);

  /// Checks the newest sealed epoch, the one before history's last_epoch(),
  /// if it has not been checked yet (idempotent between epochs); empty when
  /// idle or before any epoch is sealed.
  std::vector<SloViolation> poll();

  [[nodiscard]] std::uint64_t checks() const { return checks_->value(); }
  [[nodiscard]] std::uint64_t violations() const { return violations_->value(); }
  [[nodiscard]] const SloWatcherConfig& config() const { return config_; }

 private:
  SloWatcherConfig config_;
  const SketchHistoryStore* history_;
  obs::Instrumented obs_;
  obs::Counter* checks_ = nullptr;
  obs::Counter* violations_ = nullptr;
  obs::Counter* flows_checked_ = nullptr;
  bool any_checked_ = false;
  std::uint32_t last_checked_ = 0;
};

}  // namespace rlir::collect
