#include "obs/exposition.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>
#include <vector>

namespace rlir::obs {

namespace {

/// Doubles that hold exact integers print as integers (bucket bounds and
/// sums are usually whole numbers in tests and small deployments); anything
/// else gets 9 significant digits — the sketch is 1%-accurate, so this
/// never hides real precision.
[[nodiscard]] std::string format_number(double v) {
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return std::string(buf);
}

/// Prometheus label-value escaping: backslash, double-quote, newline.
void append_prom_escaped(std::string& out, std::string_view v) {
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}

/// Renders {a="x",b="y"} with optional extra pair appended last (for le="").
void append_prom_labels(std::string& out, const Labels& labels,
                        const char* extra_key = nullptr,
                        std::string_view extra_value = {}) {
  if (labels.empty() && extra_key == nullptr) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    append_prom_escaped(out, v);
    out += '"';
  }
  if (extra_key != nullptr) {
    if (!first) out += ',';
    out += extra_key;
    out += "=\"";
    append_prom_escaped(out, extra_value);
    out += '"';
  }
  out += '}';
}

/// Sorted view over the samples: callers may have appended synthetic rows
/// out of order, and Prometheus TYPE grouping needs name-adjacency.
[[nodiscard]] std::vector<const MetricSample*> sorted_view(const MetricsSnapshot& snap) {
  std::vector<const MetricSample*> view;
  view.reserve(snap.samples.size());
  for (const auto& s : snap.samples) view.push_back(&s);
  std::stable_sort(view.begin(), view.end(),
                   [](const MetricSample* a, const MetricSample* b) {
                     if (a->name != b->name) return a->name < b->name;
                     return a->labels < b->labels;
                   });
  return view;
}

[[nodiscard]] const char* prom_type_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "untyped";
}

}  // namespace

void append_counter(MetricsSnapshot& snap, std::string name, Labels labels,
                    std::uint64_t value) {
  MetricSample sample;
  sample.kind = MetricKind::kCounter;
  sample.name = std::move(name);
  sample.labels = std::move(labels);
  std::sort(sample.labels.begin(), sample.labels.end());
  sample.counter = value;
  snap.samples.push_back(std::move(sample));
}

void append_json_string(std::string& out, std::string_view v) {
  out += '"';
  for (char c : v) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_json_events(std::string& out, const EventTraceSnapshot& trace) {
  out += "\"events\":{\"dropped\":";
  out += std::to_string(trace.dropped);
  out += ",\"recent\":[";
  bool first = true;
  for (const Event& ev : trace.events) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += event_kind_name(ev.kind);
    out += "\",\"ts_ns\":";
    out += std::to_string(ev.ts_ns);
    out += ",\"value\":";
    out += std::to_string(ev.value);
    out += ",\"detail\":";
    append_json_string(out, ev.detail);
    out += '}';
  }
  out += "]}";
}

std::string to_prometheus(const MetricsSnapshot& snap) {
  std::string out;
  const auto view = sorted_view(snap);
  const std::string* prev_name = nullptr;
  for (const MetricSample* s : view) {
    if (prev_name == nullptr || *prev_name != s->name) {
      out += "# TYPE ";
      out += s->name;
      out += ' ';
      out += prom_type_name(s->kind);
      out += '\n';
      prev_name = &s->name;
    }
    switch (s->kind) {
      case MetricKind::kCounter:
        out += s->name;
        append_prom_labels(out, s->labels);
        out += ' ';
        out += std::to_string(s->counter);
        out += '\n';
        break;
      case MetricKind::kGauge:
        out += s->name;
        append_prom_labels(out, s->labels);
        out += ' ';
        out += std::to_string(s->gauge);
        out += '\n';
        break;
      case MetricKind::kHistogram: {
        const auto& sk = s->histogram;
        // Cumulative buckets: the sketch zero bin is the le="0" bucket,
        // each sketch bin contributes a bucket at its representative upper
        // value (ascending by construction), then the mandatory +Inf.
        std::uint64_t cumulative = sk.zero_count();
        out += s->name;
        out += "_bucket";
        append_prom_labels(out, s->labels, "le", "0");
        out += ' ';
        out += std::to_string(cumulative);
        out += '\n';
        for (const auto& [index, count] : sk.bins()) {
          cumulative += count;
          out += s->name;
          out += "_bucket";
          append_prom_labels(out, s->labels, "le", format_number(sk.bin_value(index)));
          out += ' ';
          out += std::to_string(cumulative);
          out += '\n';
        }
        out += s->name;
        out += "_bucket";
        append_prom_labels(out, s->labels, "le", "+Inf");
        out += ' ';
        out += std::to_string(sk.count());
        out += '\n';
        out += s->name;
        out += "_sum";
        append_prom_labels(out, s->labels);
        out += ' ';
        out += format_number(sk.sum());
        out += '\n';
        out += s->name;
        out += "_count";
        append_prom_labels(out, s->labels);
        out += ' ';
        out += std::to_string(sk.count());
        out += '\n';
        break;
      }
    }
  }
  return out;
}

namespace {

void append_json_labels(std::string& out, const Labels& labels) {
  out += "\"labels\":{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    append_json_string(out, k);
    out += ':';
    append_json_string(out, v);
  }
  out += '}';
}

void append_json_metrics(std::string& out, const MetricsSnapshot& snap) {
  out += "\"metrics\":[";
  const auto view = sorted_view(snap);
  bool first = true;
  for (const MetricSample* s : view) {
    if (!first) out += ',';
    first = false;
    out += "{\"kind\":\"";
    out += metric_kind_name(s->kind);
    out += "\",\"name\":";
    append_json_string(out, s->name);
    out += ',';
    append_json_labels(out, s->labels);
    switch (s->kind) {
      case MetricKind::kCounter:
        out += ",\"value\":";
        out += std::to_string(s->counter);
        break;
      case MetricKind::kGauge:
        out += ",\"value\":";
        out += std::to_string(s->gauge);
        break;
      case MetricKind::kHistogram: {
        const auto& sk = s->histogram;
        out += ",\"count\":";
        out += std::to_string(sk.count());
        out += ",\"sum\":";
        out += format_number(sk.sum());
        out += ",\"min\":";
        out += format_number(sk.min());
        out += ",\"max\":";
        out += format_number(sk.max());
        out += ",\"zero_count\":";
        out += std::to_string(sk.zero_count());
        out += ",\"p50\":";
        out += format_number(sk.quantile(0.50));
        out += ",\"p99\":";
        out += format_number(sk.quantile(0.99));
        out += ",\"bins\":[";
        bool first_bin = true;
        for (const auto& [index, count] : sk.bins()) {
          if (!first_bin) out += ',';
          first_bin = false;
          out += '[';
          out += std::to_string(index);
          out += ',';
          out += std::to_string(count);
          out += ']';
        }
        out += ']';
        break;
      }
    }
    out += '}';
  }
  out += ']';
}

}  // namespace

std::string to_json(const MetricsSnapshot& snap) {
  std::string out = "{";
  append_json_metrics(out, snap);
  out += '}';
  return out;
}

std::string to_json(const MetricsSnapshot& snap, const EventTraceSnapshot& trace) {
  std::string out = "{";
  append_json_metrics(out, snap);
  out += ',';
  append_json_events(out, trace);
  out += '}';
  return out;
}

}  // namespace rlir::obs
