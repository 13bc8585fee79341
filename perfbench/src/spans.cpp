#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::size_t SpanLog::open(const char* layer) {
  const std::int32_t parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back(BenchSpan{layer, now_ns(), 0, parent});
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  // Scopes nest, so the span closing is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanLog::add(const char* layer, std::int64_t start_ns, std::int64_t end_ns) {
  const std::int32_t parent = open_.empty() ? -1 : static_cast<std::int32_t>(open_.back());
  spans_.push_back(BenchSpan{layer, start_ns, end_ns, parent});
}

std::int64_t SelfTimes::of(const std::string& layer) const {
  const auto it = by_layer.find(layer);
  return it == by_layer.end() ? 0 : it->second;
}

std::int64_t SelfTimes::total() const {
  std::int64_t sum = 0;
  for (const auto& [layer, ns] : by_layer) sum += ns;
  return sum;
}

SelfTimes self_times(const SpanLog& log, std::int64_t from_ns, std::int64_t to_ns) {
  const auto& spans = log.spans();
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t clipped = std::max<std::int64_t>(
        0, std::min(spans[i].end_ns, to_ns) - std::max(spans[i].start_ns, from_ns));
    self[i] += clipped;
    if (spans[i].parent >= 0) self[static_cast<std::size_t>(spans[i].parent)] -= clipped;
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) out.by_layer[spans[i].layer] += self[i];
  return out;
}

std::string to_chrome_json(const std::vector<const SpanLog*>& logs, std::int64_t base_ns) {
  std::string out = "{\"traceEvents\":[\n";
  bool first = true;
  char buf[256];
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%zu,"
                  "\"args\":{\"name\":\"%s\"}}",
                  first ? "" : ",\n", tid + 1, logs[tid]->thread().c_str());
    out += buf;
    first = false;
    for (const auto& s : logs[tid]->spans()) {
      std::snprintf(buf, sizeof buf,
                    ",\n{\"name\":\"%s\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":0,\"tid\":%zu}",
                    s.layer, static_cast<double>(s.start_ns - base_ns) / 1e3,
                    static_cast<double>(std::max<std::int64_t>(0, s.end_ns - s.start_ns)) / 1e3,
                    tid + 1);
      out += buf;
    }
  }
  out += "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

}  // namespace perfbench
