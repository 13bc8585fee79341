#include "replay.h"

#include <stdexcept>

namespace perfbench {

namespace collect = rlir::collect;
namespace net = rlir::net;
namespace obs = rlir::obs;
namespace rli = rlir::rli;
namespace timebase = rlir::timebase;

namespace {

collect::EpochSchedulerConfig scheduler_config(const Workload& w, obs::SpanRecorder* spans) {
  collect::EpochSchedulerConfig cfg;
  cfg.period = w.epoch;
  cfg.max_flow_idle = w.max_flow_idle;
  cfg.instruments.spans = spans;
  return cfg;
}

}  // namespace

Chain::Chain(const Recording& rec, const Workload& w, collect::EpochScheduler::BatchSink sink,
             obs::SpanRecorder* spans, SpanLog* log)
    : rec_(rec),
      log_(log),
      tick_ns_(w.tick.ns()),
      scheduler_(scheduler_config(w, spans)) {
  if (rec.arrivals.empty()) throw std::runtime_error("empty recording");
  if (w.epoch.ns() % tick_ns_ != 0) throw std::invalid_argument("epoch must be whole ticks");
  // The first epoch boundary after the last arrival: everything a pass
  // produced has been flushed, drained and shipped when it fires.
  period_ns_ = (rec.arrivals.back().at_ns / w.epoch.ns() + 1) * w.epoch.ns();
  for (std::size_t v = 0; v < kVantages; ++v) {
    exporters_.push_back(std::make_unique<collect::EstimateExporter>(
        collect::ExporterConfig{{}, static_cast<collect::LinkId>(v)}));
    scheduler_.add_exporter(exporters_.back().get());
  }
  scheduler_.add_epoch_hook([this](std::uint32_t) {
    Scope span(log_, "rlir");
    const std::uint64_t calls = probe_.calls;
    for (auto& r : receivers_) r->flush();
    log_exporter_share(calls);
  });
  scheduler_.add_sink(std::move(sink));
}

void Chain::begin_pass() {
  for (const auto& r : receivers_) unclassified_past_ += r->unclassified_packets();
  receivers_.clear();
  for (std::size_t v = 0; v < kVantages; ++v) {
    auto receiver =
        std::make_unique<rlir::rlir::RlirReceiver>(rli::ReceiverConfig{}, &rec_.clock, rec_.demux[v]);
    collect::EstimateExporter& exporter = *exporters_[v];
    if (log_ == nullptr) {
      exporter.attach(*receiver);
    } else {
      receiver->add_estimate_sink(
          [this, &exporter](net::SenderId sender, const rli::RliReceiver::PacketEstimate& pe) {
            if ((++probe_.calls & 63) != 0) {
              exporter.observe(sender, pe);
              return;
            }
            const std::int64_t t0 = now_ns();
            exporter.observe(sender, pe);
            probe_.sampled_ns += now_ns() - t0;
            ++probe_.sampled;
          });
    }
    receivers_.push_back(std::move(receiver));
  }
}

void Chain::log_exporter_share(std::uint64_t calls_before) {
  if (log_ == nullptr) return;
  const auto est = static_cast<std::int64_t>(
      static_cast<double>(probe_.calls - calls_before) * probe_.ns_per_call());
  const std::int64_t end = now_ns();
  log_->add("exporter", end - est, end);
}

void Chain::run_pass(std::uint32_t pass, const Pace& pace, const Sealed& sealed) {
  {
    Scope span(log_, "replay");
    begin_pass();
  }
  const std::int64_t shift = static_cast<std::int64_t>(pass) * period_ns_;
  const auto& arrivals = rec_.arrivals;
  std::size_t next = 0;
  for (std::int64_t tick = shift + tick_ns_; tick <= shift + period_ns_; tick += tick_ns_) {
    {
      Scope span(log_, "replay");
      batch_.clear();
      batch_vantage_.clear();
      for (; next < arrivals.size() && arrivals[next].at_ns + shift <= tick; ++next) {
        const Arrival& a = arrivals[next];
        net::Packet& p = batch_.emplace_back();
        p.ts = timebase::TimePoint(a.at_ns + shift);
        p.ref_stamp = timebase::TimePoint(a.ref_stamp_ns + shift);
        p.key = a.key;
        p.kind = a.kind;
        p.sender = a.sender;
        batch_vantage_.push_back(a.vantage);
      }
    }
    if (pace) pace(tick);
    {
      Scope span(log_, "rlir");
      const std::uint64_t calls = probe_.calls;
      for (std::size_t i = 0; i < batch_.size(); ++i) {
        receivers_[batch_vantage_[i]]->on_packet(batch_[i], batch_[i].ts);
      }
      log_exporter_share(calls);
    }
    arrivals_fed_ += batch_.size();
    const std::uint32_t before = scheduler_.next_epoch();
    {
      Scope span(log_, "scheduler");
      scheduler_.advance_to(timebase::TimePoint(tick));
    }
    ++advances_;
    if (sealed && scheduler_.next_epoch() != before) sealed(before);
  }
}

rli::FlowStatsMap Chain::estimates() const {
  rli::FlowStatsMap merged;
  for (const auto& r : receivers_) {
    for (const auto& [key, stats] : r->merged_estimates()) merged[key].merge(stats);
  }
  return merged;
}

std::uint64_t Chain::unclassified() const {
  std::uint64_t n = unclassified_past_;
  for (const auto& r : receivers_) n += r->unclassified_packets();
  return n;
}

std::uint64_t Chain::estimates_observed() const {
  std::uint64_t n = 0;
  for (const auto& e : exporters_) n += e->estimates_observed();
  return n;
}

}  // namespace perfbench
