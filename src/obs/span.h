// Distributed request tracing: where did THIS query or batch spend its
// time, across processes?
//
// Metrics answer "how much", the event trace answers "what happened"; spans
// answer "where did the time go" — per request, per hop. Every instrumented
// stage records one Span {trace_id, span_id, parent_id, kind, start/end ns,
// label} into its process's SpanRecorder (a bounded ring, one uncontended
// mutex per record). A TraceContext (trace_id + parent span id) travels
// with the work in every RLTF frame header (transport/frame.h,
// docs/WIRE.md), so a CollectorAgent's decode/ingest/answer spans parent to
// the CollectorClient span that shipped the bytes, and a QueryCoordinator
// can pull every agent's ring (a span-ring query) and reassemble the
// cross-process tree.
//
// Tracing is OPT-IN: a null SpanRecorder* in obs::Instruments means every
// instrumentation site is a pointer check and nothing else, and frames
// carry a zero context until an operator attaches a recorder.
//
// Ids are process-unique by construction: each recorder seeds its span-id
// counter from entropy, so ids minted on different hosts don't collide when
// a coordinator unions rings into one trace.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/event_trace.h"
#include "obs/metrics.h"

namespace rlir::obs {

/// One hop's identity inside a distributed trace: which trace, and which
/// span the next stage should parent to. trace_id == 0 means "no context"
/// (an untraced request, or a process-local span outside any trace).
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;

  [[nodiscard]] bool valid() const { return trace_id != 0; }
};

/// Which instrumented stage a span measures. Values are wire bytes
/// (span-ring query replies); extend at the end and bump kSpanKindCount.
enum class SpanKind : std::uint8_t {
  kClientQuery = 1,    ///< CollectorClient send_query -> reply/loss.
  kClientPump = 2,     ///< One pump() that moved bytes.
  kClientFlush = 3,    ///< Coalescing buffer sealed into a frame.
  kAgentDecode = 4,    ///< kRecordBatch payload -> record views.
  kAgentIngest = 5,    ///< Record views -> collector merge.
  kAgentAnswer = 6,    ///< kQuery decoded -> reply encoded.
  kCoordLeg = 7,       ///< One agent's leg of a coordinator fan-out.
  kCoordMerge = 8,     ///< A whole coordinator fan-out + merge.
  kEpochSeal = 9,      ///< EpochScheduler boundary: flush + drain + deliver.
  kHistoryWindow = 10, ///< SketchHistoryStore window lookup.
};
inline constexpr std::size_t kSpanKindCount = 10;

[[nodiscard]] const char* span_kind_name(SpanKind kind);
/// The {stage="..."} label value for the per-stage self-latency histograms
/// (rlir_stage_ns): decode, ingest, merge, answer, ...
[[nodiscard]] const char* span_kind_stage(SpanKind kind);

struct Span {
  /// Distributed trace this span belongs to; 0 = process-local.
  std::uint64_t trace_id = 0;
  /// Process-unique id (entropy-seeded counter, never 0 once recorded).
  std::uint64_t span_id = 0;
  /// Parent span id (same trace, possibly another process); 0 = root.
  std::uint64_t parent_id = 0;
  SpanKind kind = SpanKind::kClientQuery;
  /// Wall-clock nanoseconds since the Unix epoch (same clock as the event
  /// trace, so spans and events interleave honestly in a dump).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Free-form context ("fleet", "agent2", "epoch17"); truncated on record.
  std::string label;

  [[nodiscard]] std::int64_t duration_ns() const { return end_ns - start_ns; }
};

struct SpanRecorderSnapshot {
  /// Oldest first; at most the recorder's capacity.
  std::vector<Span> spans;
  /// Spans evicted from the ring (total - spans.size()).
  std::uint64_t dropped = 0;
  /// Spans ever recorded, including evicted ones.
  std::uint64_t total = 0;
};

/// The per-process span ring. Thread-safe: record/snapshot take one mutex
/// (uncontended in the single-owner components that use it); id minting is
/// a relaxed atomic increment.
class SpanRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = 1024;
  static constexpr std::size_t kMaxLabel = 120;

  explicit SpanRecorder(std::size_t capacity = kDefaultCapacity);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// A fresh distributed-trace id (process-unique counter over an entropy
  /// seed; never 0).
  [[nodiscard]] std::uint64_t new_trace_id();
  /// A fresh span id (same id space; never 0).
  [[nodiscard]] std::uint64_t next_span_id();

  /// Appends one finished span (assigning span_id if the caller left it 0),
  /// feeds the stage histogram when bound, and promotes it to the slow log
  /// when over threshold. Returns the span's id.
  std::uint64_t record(Span span);

  /// The ring, oldest first; with a nonzero `trace_id`, only that trace's
  /// spans (filtered under the lock). dropped/total always cover the ring.
  [[nodiscard]] SpanRecorderSnapshot snapshot(std::uint64_t trace_id = 0) const;

  /// Registers the per-stage self-latency histograms
  /// (rlir_stage_ns{stage=...}) and rlir_slow_queries_total into `registry`
  /// so the scrape and the span ring can't disagree — record() observes
  /// both. First bind wins (a shared recorder keeps its first owner's
  /// labels); later calls are no-ops.
  void bind_metrics(MetricsRegistry* registry, const Labels& base_labels);

  /// Promote spans with duration >= threshold_ns to `trace` as kSlowSpan
  /// events (value = duration ns, detail = "stage label") and count them in
  /// rlir_slow_queries_total when metrics are bound. threshold_ns <= 0
  /// disables. `trace` may be null (count only).
  void set_slow_log(std::int64_t threshold_ns, EventTrace* trace);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  /// Spans ever recorded.
  [[nodiscard]] std::uint64_t total() const;

  /// Wall-clock nanoseconds since the Unix epoch — the clock every span's
  /// start/end is stamped with.
  [[nodiscard]] static std::int64_t now_ns();

 private:
  const std::size_t capacity_;
  std::atomic<std::uint64_t> next_id_;

  mutable std::mutex mu_;
  std::deque<Span> ring_;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;

  /// Stage histograms (index = kind - 1) + slow counter; null until bound.
  Histogram* stage_[kSpanKindCount] = {};
  Counter* slow_total_ = nullptr;
  bool bound_ = false;
  std::int64_t slow_threshold_ns_ = 0;
  EventTrace* slow_trace_ = nullptr;
};

/// RAII stage timer: starts on construction, records on finish()/destruction.
/// A null recorder makes every method a no-op, so instrumentation sites need
/// no branches of their own.
class SpanTimer {
 public:
  SpanTimer() = default;
  SpanTimer(SpanRecorder* recorder, SpanKind kind, TraceContext parent = {},
            std::string label = {});
  ~SpanTimer() { finish(); }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

  /// This span as the parent context for child stages (pre-minted span id).
  /// Invalid when no recorder is attached.
  [[nodiscard]] TraceContext context() const;
  void set_label(std::string label);
  /// Records the span now (idempotent; the destructor calls it too).
  void finish();
  [[nodiscard]] bool active() const { return recorder_ != nullptr; }

 private:
  SpanRecorder* recorder_ = nullptr;
  Span span_;
};

// --- Chrome trace_event export ---------------------------------------------
// https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
// "X" complete events (ts/dur in microseconds), one pid per process, so a
// dump loads straight into chrome://tracing or Perfetto. Strings go through
// obs::append_json_string, the one JSON escaper in obs/.

/// One process's spans as a complete Chrome trace JSON document.
[[nodiscard]] std::string to_chrome_trace(const std::vector<Span>& spans,
                                          const std::string& process_name = "rlir");

/// A cross-process assembled trace: each entry is (process name, its spans);
/// pid = entry index, with process_name metadata events.
[[nodiscard]] std::string to_chrome_trace(
    const std::vector<std::pair<std::string, std::vector<Span>>>& processes);

}  // namespace rlir::obs
