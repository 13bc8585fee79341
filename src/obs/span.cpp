#include "obs/span.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <random>
#include <utility>

#include "obs/exposition.h"

namespace rlir::obs {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientQuery: return "client_query";
    case SpanKind::kClientPump: return "client_pump";
    case SpanKind::kClientFlush: return "client_flush";
    case SpanKind::kAgentDecode: return "agent_decode";
    case SpanKind::kAgentIngest: return "agent_ingest";
    case SpanKind::kAgentAnswer: return "agent_answer";
    case SpanKind::kCoordLeg: return "coord_leg";
    case SpanKind::kCoordMerge: return "coord_merge";
    case SpanKind::kEpochSeal: return "epoch_seal";
    case SpanKind::kHistoryWindow: return "history_window";
  }
  return "?";
}

const char* span_kind_stage(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientQuery: return "query";
    case SpanKind::kClientPump: return "pump";
    case SpanKind::kClientFlush: return "flush";
    case SpanKind::kAgentDecode: return "decode";
    case SpanKind::kAgentIngest: return "ingest";
    case SpanKind::kAgentAnswer: return "answer";
    case SpanKind::kCoordLeg: return "leg";
    case SpanKind::kCoordMerge: return "merge";
    case SpanKind::kEpochSeal: return "epoch_seal";
    case SpanKind::kHistoryWindow: return "window";
  }
  return "?";
}

namespace {

/// Entropy-seeded starting id. Recorders in different processes (or even in
/// one process) start their counters far apart, so ids stay unique across a
/// fleet without coordination — the property trace assembly's parent links
/// rely on.
std::uint64_t entropy_seed() {
  std::random_device rd;
  std::uint64_t seed = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
  seed ^= static_cast<std::uint64_t>(
      std::chrono::steady_clock::now().time_since_epoch().count());
  // SplitMix64 finalizer spreads weak random_device implementations.
  seed += 0x9e3779b97f4a7c15ULL;
  seed = (seed ^ (seed >> 30)) * 0xbf58476d1ce4e5b9ULL;
  seed = (seed ^ (seed >> 27)) * 0x94d049bb133111ebULL;
  seed ^= seed >> 31;
  return seed != 0 ? seed : 1;
}

}  // namespace

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), next_id_(entropy_seed()) {}

std::uint64_t SpanRecorder::new_trace_id() { return next_span_id(); }

std::uint64_t SpanRecorder::next_span_id() {
  std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  // 0 means "absent" everywhere (contexts, parents); skip it on wrap.
  while (id == 0) id = next_id_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

std::int64_t SpanRecorder::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::uint64_t SpanRecorder::record(Span span) {
  if (span.span_id == 0) span.span_id = next_span_id();
  if (span.label.size() > kMaxLabel) span.label.resize(kMaxLabel);
  const std::int64_t dur = span.duration_ns();
  const auto kind_index = static_cast<std::size_t>(span.kind) - 1;
  const std::uint64_t id = span.span_id;

  Histogram* stage = nullptr;
  Counter* slow_counter = nullptr;
  EventTrace* slow_trace = nullptr;
  std::string slow_detail;
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_ += 1;
    if (ring_.size() == capacity_) {
      ring_.pop_front();
      dropped_ += 1;
    }
    if (kind_index < kSpanKindCount) stage = stage_[kind_index];
    if (slow_threshold_ns_ > 0 && dur >= slow_threshold_ns_) {
      slow_counter = slow_total_;
      slow_trace = slow_trace_;
      slow_detail = span_kind_stage(span.kind);
      if (!span.label.empty()) {
        slow_detail += ' ';
        slow_detail += span.label;
      }
    }
    ring_.push_back(std::move(span));
  }
  // The histogram/trace have their own locks; feeding them outside mu_
  // keeps the recorder's lock scope to the ring itself.
  if (stage != nullptr) stage->observe(static_cast<double>(dur));
  if (slow_counter != nullptr) slow_counter->increment();
  if (slow_trace != nullptr) {
    slow_trace->record(EventKind::kSlowSpan, static_cast<std::uint64_t>(dur > 0 ? dur : 0),
                       slow_detail);
  }
  return id;
}

SpanRecorderSnapshot SpanRecorder::snapshot(std::uint64_t trace_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  SpanRecorderSnapshot snap;
  for (const auto& span : ring_) {
    if (trace_id == 0 || span.trace_id == trace_id) snap.spans.push_back(span);
  }
  snap.dropped = dropped_;
  snap.total = total_;
  return snap;
}

void SpanRecorder::bind_metrics(MetricsRegistry* registry, const Labels& base_labels) {
  if (registry == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (bound_) return;  // first bind wins: one owner's labels, one identity
  bound_ = true;
  for (std::size_t i = 0; i < kSpanKindCount; ++i) {
    Labels labels = base_labels;
    labels.emplace_back("stage", span_kind_stage(static_cast<SpanKind>(i + 1)));
    stage_[i] = registry->histogram("rlir_stage_ns", std::move(labels));
  }
  slow_total_ = registry->counter("rlir_slow_queries_total", base_labels);
}

void SpanRecorder::set_slow_log(std::int64_t threshold_ns, EventTrace* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_threshold_ns_ = threshold_ns;
  slow_trace_ = trace;
}

std::uint64_t SpanRecorder::total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

SpanTimer::SpanTimer(SpanRecorder* recorder, SpanKind kind, TraceContext parent,
                     std::string label)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.trace_id = parent.trace_id;
  span_.span_id = recorder_->next_span_id();
  span_.parent_id = parent.span_id;
  span_.kind = kind;
  span_.label = std::move(label);
  span_.start_ns = SpanRecorder::now_ns();
}

TraceContext SpanTimer::context() const {
  if (recorder_ == nullptr) return {};
  return TraceContext{span_.trace_id, span_.span_id};
}

void SpanTimer::set_label(std::string label) {
  if (recorder_ != nullptr) span_.label = std::move(label);
}

void SpanTimer::finish() {
  if (recorder_ == nullptr) return;
  span_.end_ns = SpanRecorder::now_ns();
  recorder_->record(std::move(span_));
  recorder_ = nullptr;
}

// --- Chrome trace_event export ---------------------------------------------

namespace {

void append_span_event(std::string& out, const Span& span, std::size_t pid, bool* first) {
  if (!*first) out += ",\n";
  *first = false;
  // ts/dur are microseconds with ns precision kept in the fractional part.
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                "\"pid\":%zu,\"tid\":1,\"args\":{\"trace_id\":\"%" PRIx64
                "\",\"span_id\":\"%" PRIx64 "\",\"parent_id\":\"%" PRIx64 "\",\"label\":",
                span_kind_name(span.kind), span_kind_stage(span.kind),
                static_cast<double>(span.start_ns) / 1e3,
                static_cast<double>(span.duration_ns() > 0 ? span.duration_ns() : 0) / 1e3,
                pid, span.trace_id, span.span_id, span.parent_id);
  out += buf;
  append_json_string(out, span.label);
  out += "}}";
}

void append_process_name(std::string& out, const std::string& name, std::size_t pid,
                         bool* first) {
  if (!*first) out += ",\n";
  *first = false;
  char buf[96];
  std::snprintf(buf, sizeof buf,
                "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%zu,\"tid\":1,"
                "\"args\":{\"name\":",
                pid);
  out += buf;
  append_json_string(out, name);
  out += "}}";
}

}  // namespace

std::string to_chrome_trace(
    const std::vector<std::pair<std::string, std::vector<Span>>>& processes) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    append_process_name(out, processes[pid].first, pid, &first);
  }
  for (std::size_t pid = 0; pid < processes.size(); ++pid) {
    for (const auto& span : processes[pid].second) {
      append_span_event(out, span, pid, &first);
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string to_chrome_trace(const std::vector<Span>& spans, const std::string& process_name) {
  return to_chrome_trace({{process_name, spans}});
}

}  // namespace rlir::obs
