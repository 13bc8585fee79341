// The benchmark's own spans. A traced run records one span around each call
// it makes into a layer (or around a chunk of calls where one call is too
// short to time alone), keeps them in memory per thread, and writes them out
// when the run ends. A layer's self time is its span's duration minus the
// part its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds: the clock every benchmark span and timing uses.
[[nodiscard]] std::int64_t now_ns();

struct BenchSpan {
  const char* layer = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the same log; -1 at the top.
  std::int32_t parent = -1;
};

/// One thread's spans. Each thread owns its log; nothing here is shared.
class SpanLog {
 public:
  explicit SpanLog(std::string thread) : thread_(std::move(thread)) {}

  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(const char* layer);
  void close(std::size_t index);
  /// Records an already finished span under the innermost open one.
  void add(const char* layer, std::int64_t start_ns, std::int64_t end_ns);

  [[nodiscard]] const std::string& thread() const { return thread_; }
  [[nodiscard]] const std::vector<BenchSpan>& spans() const { return spans_; }

 private:
  std::string thread_;
  std::vector<BenchSpan> spans_;
  std::vector<std::size_t> open_;
};

/// A span over a scope; a null log (untraced run) makes it free.
class Scope {
 public:
  Scope(SpanLog* log, const char* layer) : log_(log), index_(log ? log->open(layer) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t index_;
};

/// Self time per layer, with every span clipped to [from_ns, to_ns).
struct SelfTimes {
  std::map<std::string, std::int64_t> by_layer;

  [[nodiscard]] std::int64_t of(const std::string& layer) const;
  [[nodiscard]] std::int64_t total() const;
};
[[nodiscard]] SelfTimes self_times(const SpanLog& log, std::int64_t from_ns, std::int64_t to_ns);

/// Chrome trace_event JSON ("X" events, one tid per log), timestamps relative
/// to base_ns — loads into chrome://tracing or Perfetto.
[[nodiscard]] std::string to_chrome_json(const std::vector<const SpanLog*>& logs,
                                         std::int64_t base_ns);

}  // namespace perfbench
