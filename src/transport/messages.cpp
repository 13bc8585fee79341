#include "transport/messages.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "collect/estimate_record.h"
#include "common/wire.h"

namespace rlir::transport {

namespace {

using common::wire::put;
using common::wire::put_f64;
using common::wire::take;
using common::wire::take_f64;

/// target | flags | link | 5-tuple | k | q | epoch_first | epoch_last.
constexpr std::size_t kQuerySize = 1 + 1 + 4 + net::kFiveTupleWireSize + 4 + 8 + 4 + 4;
/// Query and reply flag bit 0: a window (query) / coverage block (reply)
/// follows. Every other bit is reserved and rejected.
constexpr std::uint8_t kFlagBlock = 1;
/// Window-reply coverage block: u8 flags | u32 first | u32 last | u64 records.
constexpr std::size_t kCoverageSize = 1 + 4 + 4 + 8;
/// Smallest encoded entry of each counted list — the floor a claimed count is
/// checked against before anything is reserved for it.
constexpr std::size_t kSketchEntryMinSize =
    4 + net::kFiveTupleWireSize + collect::kSketchFixedSize;
constexpr std::size_t kSpanEntryFixedSize = 8 + 8 + 8 + 1 + 8 + 8 + 2;

void put_coverage(std::uint8_t*& p, const collect::WindowCoverage& window) {
  std::uint8_t flags = 0;
  if (window.covered) flags |= 1;
  if (window.complete) flags |= 2;
  put<std::uint8_t>(p, flags);
  put<std::uint32_t>(p, window.first);
  put<std::uint32_t>(p, window.last);
  put<std::uint64_t>(p, window.records);
}

[[nodiscard]] collect::WindowCoverage take_coverage(const std::uint8_t*& p,
                                                   const std::uint8_t* end) {
  if (static_cast<std::size_t>(end - p) < kCoverageSize) {
    throw std::runtime_error("QueryReply: truncated window coverage");
  }
  const auto flags = take<std::uint8_t>(p);
  if ((flags & ~0x3u) != 0) {
    throw std::runtime_error("QueryReply: reserved window flag bits set");
  }
  collect::WindowCoverage window;
  window.covered = (flags & 1) != 0;
  window.complete = (flags & 2) != 0;
  window.first = take<std::uint32_t>(p);
  window.last = take<std::uint32_t>(p);
  window.records = take<std::uint64_t>(p);
  return window;
}

/// Reads a u32 list count and checks that `count` entries of at least
/// `min_entry` bytes fit in what is left — so a lying count fails here,
/// before any reserve, instead of allocating for entries that never come.
[[nodiscard]] std::uint32_t take_count(const std::uint8_t*& p, const std::uint8_t* end,
                                       std::size_t min_entry) {
  if (end - p < 4) throw std::runtime_error("QueryReply: truncated entry count");
  const auto count = take<std::uint32_t>(p);
  if (count > static_cast<std::size_t>(end - p) / min_entry) {
    throw std::runtime_error("QueryReply: entry count exceeds payload");
  }
  return count;
}

}  // namespace

std::string query_name(const Query& query) {
  const char* name = "?";
  switch (query.target) {
    case Target::kFleet: name = "fleet"; break;
    case Target::kLink: name = "link"; break;
    case Target::kLinks: name = "links"; break;
    case Target::kFlow: name = "flow"; break;
    case Target::kTopK: name = "top_k"; break;
    case Target::kMetrics: name = "metrics"; break;
    case Target::kSpans: name = "spans"; break;
  }
  return query.window.has_value() ? std::string("window_") + name : std::string(name);
}

std::vector<std::uint8_t> encode_query(const Query& query) {
  std::vector<std::uint8_t> buf(kQuerySize);
  std::uint8_t* p = buf.data();
  put<std::uint8_t>(p, static_cast<std::uint8_t>(query.target));
  put<std::uint8_t>(p, query.window.has_value() ? kFlagBlock : 0);
  put<std::uint32_t>(p, query.link);
  net::put_tuple(p, query.flow);
  put<std::uint32_t>(p, query.k);
  put_f64(p, query.q);
  const EpochWindow window = query.window.value_or(EpochWindow{});
  put<std::uint32_t>(p, window.first);
  put<std::uint32_t>(p, window.last);
  return buf;
}

Query decode_query(const std::uint8_t* data, std::size_t size) {
  if (size != kQuerySize) throw std::runtime_error("Query: wrong payload size");
  const std::uint8_t* p = data;
  Query query;
  const auto target = take<std::uint8_t>(p);
  if (target < static_cast<std::uint8_t>(Target::kFleet) ||
      target > static_cast<std::uint8_t>(Target::kSpans)) {
    throw std::runtime_error("Query: unknown target " + std::to_string(target));
  }
  query.target = static_cast<Target>(target);
  const auto flags = take<std::uint8_t>(p);
  if ((flags & ~kFlagBlock) != 0) throw std::runtime_error("Query: reserved flag bits set");
  query.link = take<std::uint32_t>(p);
  query.flow = net::take_tuple(p);
  query.k = take<std::uint32_t>(p);
  query.q = take_f64(p);
  if (!(query.q >= 0.0 && query.q <= 1.0)) {  // also rejects NaN
    throw std::runtime_error("Query: quantile outside [0, 1]");
  }
  EpochWindow window;
  window.first = take<std::uint32_t>(p);
  window.last = take<std::uint32_t>(p);
  if ((flags & kFlagBlock) != 0) {
    if (query.target != Target::kFleet && query.target != Target::kLink &&
        query.target != Target::kFlow) {
      throw std::runtime_error("Query: window on a target without history coverage");
    }
    if (window.first > window.last) throw std::runtime_error("Query: epoch window reversed");
    query.window = window;
  }
  return query;
}

std::vector<std::uint8_t> encode_reply(const QueryReply& reply) {
  std::size_t body = 0;
  switch (reply.body) {
    case ReplyBody::kSketches:
      body = 4;
      for (const auto& entry : reply.entries) {
        body += 4 + net::kFiveTupleWireSize + collect::sketch_wire_size(entry.sketch);
      }
      break;
    case ReplyBody::kScrape:
      body = obs::scrape_wire_size(reply.scrape);
      break;
    case ReplyBody::kSpans:
      body = 4 + 8 + 8;
      for (const auto& span : reply.spans.spans) body += kSpanEntryFixedSize + span.label.size();
      break;
  }
  const bool has_coverage = reply.coverage.has_value();
  std::vector<std::uint8_t> buf(2 + (has_coverage ? kCoverageSize : 0) + body);
  std::uint8_t* p = buf.data();
  put<std::uint8_t>(p, static_cast<std::uint8_t>(reply.body));
  put<std::uint8_t>(p, has_coverage ? kFlagBlock : 0);
  if (has_coverage) put_coverage(p, *reply.coverage);
  switch (reply.body) {
    case ReplyBody::kSketches:
      put<std::uint32_t>(p, static_cast<std::uint32_t>(reply.entries.size()));
      for (const auto& entry : reply.entries) {
        put<std::uint32_t>(p, entry.link);
        net::put_tuple(p, entry.flow);
        collect::encode_sketch(p, entry.sketch);
      }
      break;
    case ReplyBody::kScrape: {
      // The scrape codec appends to a vector; bridge into the pre-sized
      // frame buffer (scrapes are query-plane-sized, the copy is noise).
      std::vector<std::uint8_t> segment;
      obs::encode_scrape(segment, reply.scrape);
      std::memcpy(p, segment.data(), segment.size());
      break;
    }
    case ReplyBody::kSpans:
      put<std::uint32_t>(p, static_cast<std::uint32_t>(reply.spans.spans.size()));
      for (const auto& span : reply.spans.spans) {
        put<std::uint64_t>(p, span.trace_id);
        put<std::uint64_t>(p, span.span_id);
        put<std::uint64_t>(p, span.parent_id);
        put<std::uint8_t>(p, static_cast<std::uint8_t>(span.kind));
        put<std::uint64_t>(p, static_cast<std::uint64_t>(span.start_ns));
        put<std::uint64_t>(p, static_cast<std::uint64_t>(span.end_ns));
        put<std::uint16_t>(p, static_cast<std::uint16_t>(span.label.size()));
        std::memcpy(p, span.label.data(), span.label.size());
        p += span.label.size();
      }
      put<std::uint64_t>(p, reply.spans.dropped);
      put<std::uint64_t>(p, reply.spans.total);
      break;
  }
  return buf;
}

QueryReply decode_reply(const std::uint8_t* data, std::size_t size) {
  if (size < 2) throw std::runtime_error("QueryReply: truncated header");
  const std::uint8_t* p = data;
  const std::uint8_t* end = data + size;
  QueryReply reply;
  const auto body = take<std::uint8_t>(p);
  if (body < static_cast<std::uint8_t>(ReplyBody::kSketches) ||
      body > static_cast<std::uint8_t>(ReplyBody::kSpans)) {
    throw std::runtime_error("QueryReply: unknown body " + std::to_string(body));
  }
  reply.body = static_cast<ReplyBody>(body);
  const auto flags = take<std::uint8_t>(p);
  if ((flags & ~kFlagBlock) != 0) throw std::runtime_error("QueryReply: reserved flag bits set");
  if ((flags & kFlagBlock) != 0) {
    if (reply.body != ReplyBody::kSketches) {
      throw std::runtime_error("QueryReply: coverage block on a non-sketch body");
    }
    reply.coverage = take_coverage(p, end);
  }
  switch (reply.body) {
    case ReplyBody::kSketches: {
      const auto count = take_count(p, end, kSketchEntryMinSize);
      reply.entries.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        SketchEntry entry;
        if (static_cast<std::size_t>(end - p) < 4 + net::kFiveTupleWireSize) {
          throw std::runtime_error("QueryReply: truncated sketch entry");
        }
        entry.link = take<std::uint32_t>(p);
        entry.flow = net::take_tuple(p);
        entry.sketch = collect::decode_sketch(p, end);
        reply.entries.push_back(std::move(entry));
      }
      break;
    }
    case ReplyBody::kScrape:
      reply.scrape = obs::decode_scrape(p, end);
      break;
    case ReplyBody::kSpans: {
      const auto count = take_count(p, end, kSpanEntryFixedSize);
      reply.spans.spans.reserve(count);
      for (std::uint32_t i = 0; i < count; ++i) {
        if (static_cast<std::size_t>(end - p) < kSpanEntryFixedSize) {
          throw std::runtime_error("QueryReply: truncated span entry");
        }
        obs::Span span;
        span.trace_id = take<std::uint64_t>(p);
        span.span_id = take<std::uint64_t>(p);
        span.parent_id = take<std::uint64_t>(p);
        const auto kind_byte = take<std::uint8_t>(p);
        if (kind_byte < 1 || kind_byte > obs::kSpanKindCount) {
          throw std::runtime_error("QueryReply: unknown span kind " +
                                   std::to_string(kind_byte));
        }
        span.kind = static_cast<obs::SpanKind>(kind_byte);
        span.start_ns = static_cast<std::int64_t>(take<std::uint64_t>(p));
        span.end_ns = static_cast<std::int64_t>(take<std::uint64_t>(p));
        const auto label_len = take<std::uint16_t>(p);
        if (static_cast<std::size_t>(end - p) < label_len) {
          throw std::runtime_error("QueryReply: truncated span label");
        }
        span.label.assign(reinterpret_cast<const char*>(p), label_len);
        p += label_len;
        if (span.span_id == 0) {
          throw std::runtime_error("QueryReply: zero span id");
        }
        reply.spans.spans.push_back(std::move(span));
      }
      if (end - p < 8 + 8) throw std::runtime_error("QueryReply: truncated span totals");
      reply.spans.dropped = take<std::uint64_t>(p);
      reply.spans.total = take<std::uint64_t>(p);
      break;
    }
  }
  if (p != end) throw std::runtime_error("QueryReply: trailing bytes");
  return reply;
}

}  // namespace rlir::transport
