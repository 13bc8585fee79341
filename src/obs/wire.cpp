#include "obs/wire.h"

#include <limits>
#include <stdexcept>
#include <string>

#include "collect/estimate_record.h"
#include "common/wire.h"

namespace rlir::obs {

namespace {

using common::wire::put;
using common::wire::take;

// Corruption guards: far above anything a real component produces, far
// below anything that could make the decoder allocate absurdly.
constexpr std::uint32_t kMaxSamples = 1u << 20;
constexpr std::uint32_t kMaxLabels = 64;
constexpr std::uint32_t kMaxEvents = 1u << 20;
/// Smallest encoded sample (u8 kind | empty name | no labels | u64 value)
/// and event (u8 kind | i64 ts | u64 value | empty detail): a claimed count
/// must fit in the bytes left at this size before anything is reserved.
constexpr std::size_t kMinSampleSize = 1 + 2 + 4 + 8;
constexpr std::size_t kMinEventSize = 1 + 8 + 8 + 2;

[[nodiscard]] std::size_t str_wire_size(const std::string& s) { return 2 + s.size(); }

void put_str(std::uint8_t*& p, const std::string& s) {
  if (s.size() > std::numeric_limits<std::uint16_t>::max()) {
    throw std::invalid_argument("obs wire: string too long to encode");
  }
  put<std::uint16_t>(p, static_cast<std::uint16_t>(s.size()));
  for (char c : s) *p++ = static_cast<std::uint8_t>(c);
}

void need(const std::uint8_t* p, const std::uint8_t* end, std::size_t n) {
  if (static_cast<std::size_t>(end - p) < n) {
    throw std::runtime_error("obs wire: truncated scrape");
  }
}

[[nodiscard]] std::string take_str(const std::uint8_t*& p, const std::uint8_t* end) {
  need(p, end, 2);
  const auto len = take<std::uint16_t>(p);
  need(p, end, len);
  std::string s(reinterpret_cast<const char*>(p), len);
  p += len;
  return s;
}

[[nodiscard]] std::size_t sample_wire_size(const MetricSample& s) {
  std::size_t n = 1 + str_wire_size(s.name) + 4;
  for (const auto& [k, v] : s.labels) n += str_wire_size(k) + str_wire_size(v);
  switch (s.kind) {
    case MetricKind::kCounter:
    case MetricKind::kGauge:
      n += 8;
      break;
    case MetricKind::kHistogram:
      n += collect::sketch_wire_size(s.histogram);
      break;
  }
  return n;
}

[[nodiscard]] std::size_t events_wire_size(const EventTraceSnapshot& t) {
  std::size_t n = 8 + 4;
  for (const auto& ev : t.events) n += 1 + 8 + 8 + str_wire_size(ev.detail);
  return n;
}

}  // namespace

std::size_t scrape_wire_size(const Scrape& scrape) {
  std::size_t n = 4;
  for (const auto& s : scrape.metrics.samples) n += sample_wire_size(s);
  return n + events_wire_size(scrape.events);
}

void encode_scrape(std::vector<std::uint8_t>& out, const Scrape& scrape) {
  const std::size_t begin = out.size();
  out.resize(begin + scrape_wire_size(scrape));
  std::uint8_t* p = out.data() + begin;

  put<std::uint32_t>(p, static_cast<std::uint32_t>(scrape.metrics.samples.size()));
  for (const auto& s : scrape.metrics.samples) {
    put<std::uint8_t>(p, static_cast<std::uint8_t>(s.kind));
    put_str(p, s.name);
    put<std::uint32_t>(p, static_cast<std::uint32_t>(s.labels.size()));
    for (const auto& [k, v] : s.labels) {
      put_str(p, k);
      put_str(p, v);
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        put<std::uint64_t>(p, s.counter);
        break;
      case MetricKind::kGauge:
        put<std::int64_t>(p, s.gauge);
        break;
      case MetricKind::kHistogram:
        collect::encode_sketch(p, s.histogram);
        break;
    }
  }

  put<std::uint64_t>(p, scrape.events.dropped);
  put<std::uint32_t>(p, static_cast<std::uint32_t>(scrape.events.events.size()));
  for (const auto& ev : scrape.events.events) {
    put<std::uint8_t>(p, static_cast<std::uint8_t>(ev.kind));
    put<std::int64_t>(p, ev.ts_ns);
    put<std::uint64_t>(p, ev.value);
    put_str(p, ev.detail);
  }

  if (p != out.data() + out.size()) {
    throw std::logic_error("obs wire: encode size mismatch");
  }
}

Scrape decode_scrape(const std::uint8_t*& p, const std::uint8_t* end) {
  Scrape scrape;

  need(p, end, 4);
  const auto sample_count = take<std::uint32_t>(p);
  if (sample_count > kMaxSamples) {
    throw std::runtime_error("obs wire: implausible sample count");
  }
  need(p, end, std::size_t{sample_count} * kMinSampleSize);
  scrape.metrics.samples.reserve(sample_count);
  for (std::uint32_t i = 0; i < sample_count; ++i) {
    MetricSample s;
    need(p, end, 1);
    const auto kind = take<std::uint8_t>(p);
    if (kind < 1 || kind > 3) throw std::runtime_error("obs wire: bad metric kind");
    s.kind = static_cast<MetricKind>(kind);
    s.name = take_str(p, end);
    need(p, end, 4);
    const auto label_count = take<std::uint32_t>(p);
    if (label_count > kMaxLabels) {
      throw std::runtime_error("obs wire: implausible label count");
    }
    s.labels.reserve(label_count);
    for (std::uint32_t j = 0; j < label_count; ++j) {
      std::string k = take_str(p, end);
      std::string v = take_str(p, end);
      s.labels.emplace_back(std::move(k), std::move(v));
    }
    switch (s.kind) {
      case MetricKind::kCounter:
        need(p, end, 8);
        s.counter = take<std::uint64_t>(p);
        break;
      case MetricKind::kGauge:
        need(p, end, 8);
        s.gauge = take<std::int64_t>(p);
        break;
      case MetricKind::kHistogram:
        s.histogram = collect::decode_sketch(p, end);
        break;
    }
    scrape.metrics.samples.push_back(std::move(s));
  }

  need(p, end, 8 + 4);
  scrape.events.dropped = take<std::uint64_t>(p);
  const auto event_count = take<std::uint32_t>(p);
  if (event_count > kMaxEvents) {
    throw std::runtime_error("obs wire: implausible event count");
  }
  need(p, end, std::size_t{event_count} * kMinEventSize);
  scrape.events.events.reserve(event_count);
  for (std::uint32_t i = 0; i < event_count; ++i) {
    Event ev;
    need(p, end, 1 + 8 + 8);
    const auto kind = take<std::uint8_t>(p);
    if (kind < 1 || kind > kEventKindCount) {
      throw std::runtime_error("obs wire: bad event kind");
    }
    ev.kind = static_cast<EventKind>(kind);
    ev.ts_ns = take<std::int64_t>(p);
    ev.value = take<std::uint64_t>(p);
    ev.detail = take_str(p, end);
    scrape.events.events.push_back(std::move(ev));
  }

  return scrape;
}

}  // namespace rlir::obs
