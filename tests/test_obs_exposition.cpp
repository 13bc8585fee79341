// Exposition writers and the scrape wire codec: golden-file checks for the
// Prometheus text and JSON formats (label escaping and ordering, histogram
// bucket layout), bucket monotonicity as a property, and byte-exact wire
// round-trips including truncation rejection.
#include "obs/exposition.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/event_trace.h"
#include "obs/metrics.h"
#include "obs/wire.h"

namespace rlir::obs {
namespace {

TEST(PrometheusText, CounterAndGaugeGolden) {
  MetricsRegistry r;
  r.counter("rlir_client_reconnects_total", {{"instance", "ep1"}})->add(3);
  r.counter("rlir_client_reconnects_total", {{"instance", "ep0"}})->add(1);
  r.gauge("rlir_agent_connections")->set(2);
  const std::string expected =
      "# TYPE rlir_agent_connections gauge\n"
      "rlir_agent_connections 2\n"
      "# TYPE rlir_client_reconnects_total counter\n"
      "rlir_client_reconnects_total{instance=\"ep0\"} 1\n"
      "rlir_client_reconnects_total{instance=\"ep1\"} 3\n";
  EXPECT_EQ(to_prometheus(r.snapshot()), expected);
}

TEST(PrometheusText, LabelValuesEscaped) {
  MetricsSnapshot snap;
  append_counter(snap, "rlir_x_total", {{"path", "a\\b\"c\nd"}}, 1);
  EXPECT_EQ(to_prometheus(snap),
            "# TYPE rlir_x_total counter\n"
            "rlir_x_total{path=\"a\\\\b\\\"c\\nd\"} 1\n");
}

TEST(PrometheusText, LabelsSortedByKey) {
  MetricsSnapshot snap;
  append_counter(snap, "rlir_x_total", {{"zeta", "1"}, {"alpha", "2"}}, 9);
  EXPECT_EQ(to_prometheus(snap),
            "# TYPE rlir_x_total counter\n"
            "rlir_x_total{alpha=\"2\",zeta=\"1\"} 9\n");
}

TEST(PrometheusText, ZeroOnlyHistogramGolden) {
  // All-zero observations make the bucket layout exactly predictable: the
  // zero bin is the le="0" bucket and no sketch bins exist.
  MetricsRegistry r;
  Histogram* h = r.histogram("rlir_h", {{"lane", "0"}});
  h->observe(0.0);
  h->observe(0.0);
  h->observe(0.0);
  const std::string expected =
      "# TYPE rlir_h histogram\n"
      "rlir_h_bucket{lane=\"0\",le=\"0\"} 3\n"
      "rlir_h_bucket{lane=\"0\",le=\"+Inf\"} 3\n"
      "rlir_h_sum{lane=\"0\"} 0\n"
      "rlir_h_count{lane=\"0\"} 3\n";
  EXPECT_EQ(to_prometheus(r.snapshot()), expected);
}

/// Parses "<name>_bucket{...le=\"<v>\"} <count>" lines in order.
std::vector<std::pair<double, std::uint64_t>> parse_buckets(const std::string& text,
                                                            const std::string& name) {
  std::vector<std::pair<double, std::uint64_t>> buckets;
  const std::string prefix = name + "_bucket{";
  std::size_t pos = 0;
  while ((pos = text.find(prefix, pos)) != std::string::npos) {
    const std::size_t le = text.find("le=\"", pos) + 4;
    const std::size_t le_end = text.find('"', le);
    const std::string le_text = text.substr(le, le_end - le);
    const std::size_t sp = text.find(' ', le_end);
    const std::size_t nl = text.find('\n', sp);
    buckets.emplace_back(
        le_text == "+Inf" ? std::numeric_limits<double>::infinity() : std::stod(le_text),
        std::stoull(text.substr(sp + 1, nl - sp - 1)));
    pos = nl;
  }
  return buckets;
}

TEST(PrometheusText, HistogramBucketsCumulativeAndMonotone) {
  MetricsRegistry r;
  Histogram* h = r.histogram("rlir_lat");
  for (int i = 1; i <= 200; ++i) h->observe(1e3 * i * i);
  h->observe(0.0);
  const auto text = to_prometheus(r.snapshot());
  const auto buckets = parse_buckets(text, "rlir_lat");
  ASSERT_GE(buckets.size(), 3u);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].first, buckets[i - 1].first) << "le bounds must ascend";
    EXPECT_GE(buckets[i].second, buckets[i - 1].second) << "counts must be cumulative";
  }
  EXPECT_EQ(buckets.front().second, 1u);  // the le="0" zero bin
  EXPECT_EQ(buckets.back().second, 201u); // +Inf == count
}

TEST(JsonExposition, CounterGolden) {
  MetricsSnapshot snap;
  append_counter(snap, "rlir_x_total", {{"instance", "a"}}, 7);
  EXPECT_EQ(to_json(snap),
            "{\"metrics\":[{\"kind\":\"counter\",\"name\":\"rlir_x_total\","
            "\"labels\":{\"instance\":\"a\"},\"value\":7}]}");
}

TEST(JsonExposition, ControlCharactersEscaped) {
  MetricsSnapshot snap;
  append_counter(snap, "rlir_x_total", {{"k", std::string("a\x01\tb")}}, 1);
  const auto json = to_json(snap);
  EXPECT_NE(json.find("a\\u0001\\tb"), std::string::npos) << json;
}

TEST(JsonExposition, EventsCarriedWithCountsAndRecent) {
  MetricsRegistry r;
  r.counter("rlir_x_total")->add(1);
  EventTrace trace;
  trace.record(EventKind::kRebalance, 16, "ep2");
  const auto json = to_json(r.snapshot(), trace.snapshot());
  // The ring and its eviction count; totals are counters, not event state.
  EXPECT_NE(json.find("\"events\":{\"dropped\":0,\"recent\":[{\"kind\":\"rebalance\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"value\":16"), std::string::npos) << json;
  EXPECT_NE(json.find("\"detail\":\"ep2\""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"counts\""), std::string::npos) << json;
}

TEST(ScrapeWire, RoundTripsExactly) {
  MetricsRegistry r;
  r.counter("rlir_c_total", {{"instance", "x"}})->add(123456789);
  r.gauge("rlir_g")->set(-42);
  Histogram* h = r.histogram("rlir_h");
  for (int i = 1; i <= 50; ++i) h->observe(3e3 * i);
  h->observe(0.0);
  EventTrace trace(4);
  for (std::uint64_t i = 0; i < 6; ++i) trace.record(EventKind::kEpochFlush, i, "epoch");
  trace.record(EventKind::kDisconnect, 1, "agent2");

  Scrape scrape{r.snapshot(), trace.snapshot()};
  std::vector<std::uint8_t> wire;
  encode_scrape(wire, scrape);
  EXPECT_EQ(wire.size(), scrape_wire_size(scrape));

  const std::uint8_t* p = wire.data();
  const Scrape decoded = decode_scrape(p, wire.data() + wire.size());
  EXPECT_EQ(p, wire.data() + wire.size());

  ASSERT_EQ(decoded.metrics.samples.size(), scrape.metrics.samples.size());
  for (std::size_t i = 0; i < scrape.metrics.samples.size(); ++i) {
    const auto& a = scrape.metrics.samples[i];
    const auto& b = decoded.metrics.samples[i];
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.labels, b.labels);
    EXPECT_EQ(a.counter, b.counter);
    EXPECT_EQ(a.gauge, b.gauge);
    EXPECT_EQ(a.histogram.bins(), b.histogram.bins());
    EXPECT_EQ(a.histogram.zero_count(), b.histogram.zero_count());
  }
  EXPECT_EQ(decoded.events.dropped, scrape.events.dropped);
  ASSERT_EQ(decoded.events.events.size(), scrape.events.events.size());
  for (std::size_t i = 0; i < scrape.events.events.size(); ++i) {
    EXPECT_EQ(decoded.events.events[i].kind, scrape.events.events[i].kind);
    EXPECT_EQ(decoded.events.events[i].ts_ns, scrape.events.events[i].ts_ns);
    EXPECT_EQ(decoded.events.events[i].value, scrape.events.events[i].value);
    EXPECT_EQ(decoded.events.events[i].detail, scrape.events.events[i].detail);
  }
}

TEST(ScrapeWire, TruncationRejectedAtEveryLength) {
  MetricsRegistry r;
  r.counter("rlir_c_total", {{"instance", "x"}})->add(7);
  r.histogram("rlir_h")->observe(5e4);
  EventTrace trace;
  trace.record(EventKind::kConnect, 1, "ep0");
  std::vector<std::uint8_t> wire;
  encode_scrape(wire, Scrape{r.snapshot(), trace.snapshot()});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    const std::uint8_t* p = wire.data();
    EXPECT_THROW((void)decode_scrape(p, wire.data() + len), std::runtime_error)
        << "prefix of " << len << " bytes decoded";
  }
}

}  // namespace
}  // namespace rlir::obs
