// Count-prefixed decoders must check the entry count a peer claims against
// the bytes actually present BEFORE reserving memory for it. This binary
// replaces the global operator new to record the largest single request,
// then feeds each decoder a header that claims 0x0fffff entries and carries
// no body: every decoder must throw std::runtime_error having requested no
// block above 64 KiB. A top-k query's k is a peer's u32 too, so the
// collector's answer must be sized by the flows present, never by k. (A
// RLIMIT_AS cap would be the blunter tool, but it breaks AddressSanitizer's
// shadow mapping.)
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <stdexcept>
#include <vector>

#include "collect/estimate_record.h"
#include "collect/sharded_collector.h"
#include "obs/event_trace.h"
#include "obs/wire.h"
#include "transport/messages.h"

namespace {

std::atomic<std::size_t> g_largest_request{0};

}  // namespace

void* operator new(std::size_t size) {
  std::size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (size > seen && !g_largest_request.compare_exchange_weak(seen, size)) {
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

// Out of line, so the compiler never pairs an inlined free() with a
// new-expression and warns about a mismatch that replacement makes correct.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace rlir {
namespace {

constexpr std::size_t kMaxRequest = 64u << 10;
constexpr std::uint32_t kClaimed = 0x0fffff;

void put_u32(std::vector<std::uint8_t>& bytes, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Runs `decode`, which must throw std::runtime_error, and expects no single
/// operator-new request above kMaxRequest while it ran.
template <typename Decode>
void expect_bounded(const char* what, Decode&& decode) {
  g_largest_request.store(0);
  EXPECT_THROW(decode(), std::runtime_error) << what;
  EXPECT_LE(g_largest_request.load(), kMaxRequest) << what;
}

TEST(DecodeAllocationBound, RepliesAndScrapes) {
  using transport::ReplyBody;
  for (const ReplyBody body : {ReplyBody::kSketches, ReplyBody::kScrape, ReplyBody::kSpans}) {
    // body | flags (no coverage) | u32 count
    std::vector<std::uint8_t> reply = {static_cast<std::uint8_t>(body), 0};
    put_u32(reply, kClaimed);
    expect_bounded("reply", [&] { (void)transport::decode_reply(reply.data(), reply.size()); });
  }

  // A scrape segment claiming kClaimed samples; then one with no samples
  // whose event list claims kClaimed events.
  std::vector<std::uint8_t> samples;
  put_u32(samples, kClaimed);
  std::vector<std::uint8_t> events;
  put_u32(events, 0);
  events.resize(events.size() + 8, 0);  // u64 dropped
  put_u32(events, kClaimed);
  for (const auto* scrape : {&samples, &events}) {
    expect_bounded("scrape", [&] {
      const std::uint8_t* p = scrape->data();
      (void)obs::decode_scrape(p, scrape->data() + scrape->size());
    });
  }
}

TEST(DecodeAllocationBound, RecordBatches) {
  // An RLES batch header (magic, version, u64 count) claiming kClaimed
  // records: the agent's view path and the owning path.
  auto batch = collect::encode_records({});
  ASSERT_EQ(batch.size(), 16u);
  batch.resize(8);
  put_u32(batch, kClaimed);
  put_u32(batch, 0);
  std::vector<collect::RecordView> views;
  expect_bounded("views", [&] {
    (void)collect::decode_record_views_prefix(batch.data(), batch.size(), views);
  });
  expect_bounded("owning",
                 [&] { (void)collect::decode_records_prefix(batch.data(), batch.size()); });
}

TEST(DecodeAllocationBound, TopKOfEveryFlowIsSizedByTheFlows) {
  // The largest k a peer can ask for, over a few hundred flows: the answer
  // is every flow once, and nothing reserves room for k entries.
  collect::ShardedCollector collector;
  constexpr std::uint32_t kFlows = 300;
  std::vector<collect::EstimateRecord> batch(kFlows);
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    batch[i].key.src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                                        static_cast<std::uint8_t>(i));
    batch[i].key.src_port = static_cast<std::uint16_t>(i);
    batch[i].sketch.add(1e3 + i);
  }
  collector.ingest(batch);

  g_largest_request.store(0);
  const auto top = collector.top_k_ranked(0xFFFFFFFF, 0.99);
  EXPECT_LE(g_largest_request.load(), kMaxRequest);
  ASSERT_EQ(top.size(), kFlows);
  std::set<net::FiveTuple> keys;
  for (const auto& [value, summary] : top) keys.insert(summary.key);
  EXPECT_EQ(keys.size(), kFlows);
}

}  // namespace
}  // namespace rlir
