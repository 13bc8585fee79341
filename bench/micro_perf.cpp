// Micro-benchmarks (google-benchmark) for the substrate's hot paths:
// not a paper figure — validates that the building blocks are fast enough
// for paper-scale replays (tens of millions of packets).
#include <benchmark/benchmark.h>

#include <map>
#include <optional>
#include <vector>

#include "baseline/lda.h"
#include "collect/exporter.h"
#include "collect/sharded_collector.h"
#include "common/rng.h"
#include "net/hash.h"
#include "net/prefix_table.h"
#include "rli/receiver.h"
#include "rlir/demux.h"
#include "rlir/receiver.h"
#include "sim/queue.h"
#include "sim/tap.h"
#include "timebase/clock.h"
#include "topo/ecmp.h"
#include "trace/flowmeter.h"
#include "trace/synthetic.h"

namespace {

using namespace rlir;

net::FiveTuple random_key(common::Xoshiro256& rng) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.src_port = static_cast<std::uint16_t>(rng.next());
  key.dst_port = static_cast<std::uint16_t>(rng.next());
  key.proto = 6;
  return key;
}

void BM_FlowKeyHash(benchmark::State& state) {
  common::Xoshiro256 rng(1);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(keys[i++ & 1023].hash());
  }
}
BENCHMARK(BM_FlowKeyHash);

void BM_EcmpCrc32Select(benchmark::State& state) {
  common::Xoshiro256 rng(2);
  topo::Crc32EcmpHasher hasher;
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hasher.select(keys[i++ & 1023], 0x1234, 4));
  }
}
BENCHMARK(BM_EcmpCrc32Select);

void BM_ReverseEcmpCore(benchmark::State& state) {
  topo::FatTree topo(static_cast<int>(state.range(0)));
  topo::Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(3);
  const auto src = topo.tor(0, 0);
  const auto dst = topo.tor(topo.pods() - 1, 0);
  std::vector<net::FiveTuple> keys;
  for (int i = 0; i < 1024; ++i) keys.push_back(random_key(rng));
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(topo::reverse_ecmp_core(topo, hasher, keys[i++ & 1023], src, dst));
  }
}
BENCHMARK(BM_ReverseEcmpCore)->Arg(4)->Arg(16)->Arg(48);

void BM_PrefixTableLookup(benchmark::State& state) {
  net::PrefixTable<int> table;
  // One /24 per ToR of a k=48 fat-tree (1152 rules).
  for (int pod = 0; pod < 48; ++pod) {
    for (int t = 0; t < 24; ++t) {
      table.insert(net::Ipv4Prefix(net::Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                                    static_cast<std::uint8_t>(t), 0),
                                   24),
                   pod * 24 + t);
    }
  }
  common::Xoshiro256 rng(4);
  std::vector<net::Ipv4Address> addrs;
  for (int i = 0; i < 1024; ++i) {
    addrs.push_back(net::Ipv4Address(10, static_cast<std::uint8_t>(rng.uniform_u64(48)),
                                     static_cast<std::uint8_t>(rng.uniform_u64(24)),
                                     static_cast<std::uint8_t>(rng.uniform_u64(254) + 1)));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup_ptr(addrs[i++ & 1023]));
  }
}
BENCHMARK(BM_PrefixTableLookup);

void BM_FifoQueueOffer(benchmark::State& state) {
  sim::QueueConfig cfg;
  cfg.capacity_bytes = std::uint64_t{1} << 40;  // never drop
  sim::FifoQueue queue(cfg);
  net::Packet pkt;
  pkt.size_bytes = 750;
  std::int64_t t = 0;
  for (auto _ : state) {
    pkt.ts = timebase::TimePoint(t += 600);
    benchmark::DoNotOptimize(queue.offer(pkt, pkt.ts));
  }
}
BENCHMARK(BM_FifoQueueOffer);

void BM_SyntheticGenerate(benchmark::State& state) {
  for (auto _ : state) {
    trace::SyntheticConfig cfg;
    cfg.duration = timebase::Duration::milliseconds(10);
    cfg.offered_bps = 2.2e9;
    cfg.seed = 7;
    trace::SyntheticTraceGenerator gen(cfg);
    std::uint64_t n = 0;
    while (auto p = gen.next()) ++n;
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.items_processed() + static_cast<std::int64_t>(n));
  }
}
BENCHMARK(BM_SyntheticGenerate);

void BM_FlowmeterObserve(benchmark::State& state) {
  trace::SyntheticConfig cfg;
  cfg.duration = timebase::Duration::milliseconds(50);
  cfg.offered_bps = 2.2e9;
  cfg.seed = 8;
  const auto packets = trace::SyntheticTraceGenerator(cfg).generate_all();
  for (auto _ : state) {
    trace::Flowmeter meter;
    for (const auto& p : packets) meter.observe(p);
    benchmark::DoNotOptimize(meter.active_flows());
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<std::int64_t>(packets.size()));
  }
}
BENCHMARK(BM_FlowmeterObserve);

void BM_LdaRecord(benchmark::State& state) {
  baseline::LdaSketch sketch(baseline::LdaConfig{});
  common::Xoshiro256 rng(9);
  net::Packet pkt;
  pkt.key = random_key(rng);
  std::uint64_t seq = 0;
  for (auto _ : state) {
    pkt.seq = seq++;
    sketch.record(pkt, timebase::TimePoint(static_cast<std::int64_t>(seq)));
  }
}
BENCHMARK(BM_LdaRecord);

/// `count` random flow keys, made once per count and shared by every run.
const std::vector<net::FiveTuple>& flow_keys(std::size_t count) {
  static std::map<std::size_t, std::vector<net::FiveTuple>> cache;
  auto& keys = cache[count];
  if (keys.empty()) {
    common::Xoshiro256 rng(10);
    keys.reserve(count);
    for (std::size_t i = 0; i < count; ++i) keys.push_back(random_key(rng));
  }
  return keys;
}

/// A reference packet from `sender` that saw 2 us of delay, arriving at `t`.
void feed_reference(sim::PacketTap& receiver, std::uint64_t seq, std::int64_t t,
                    net::SenderId sender = 1) {
  net::Packet ref = net::make_reference_packet(sender, timebase::TimePoint(t - 2000),
                                               timebase::TimePoint(t - 2000), seq);
  ref.ts = timebase::TimePoint(t);
  receiver.on_packet(ref, ref.ts);
}

void feed_regular(sim::PacketTap& receiver, const net::FiveTuple& key, std::int64_t t) {
  net::Packet pkt;
  pkt.key = key;
  pkt.ts = timebase::TimePoint(t);
  pkt.injected_at = timebase::TimePoint(t - 2000);
  receiver.on_packet(pkt, pkt.ts);
}

// One packet (a reference every 100) into a receiver that already holds all
// N flows, N the argument: 1,536 stands for elephant_flows' ~1.5k flows and
// 131,072 for mouse_flows' ~137k. Flows are revisited in a shuffled order,
// so each lookup lands anywhere in the table.
void BM_RliReceiverPacket(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto& keys = flow_keys(flows);
  timebase::PerfectClock clock;
  rli::RliReceiver receiver(rli::ReceiverConfig{}, &clock);
  std::int64_t t = 0;
  std::uint64_t n = 0;
  for (const auto& key : keys) {  // every flow estimated once before timing
    if (n % 100 == 0) feed_reference(receiver, n++, t += 700);
    feed_regular(receiver, key, t += 700);
    ++n;
  }
  feed_reference(receiver, n++, t += 700);
  std::vector<std::uint32_t> order(flows);
  for (std::size_t i = 0; i < flows; ++i) order[i] = static_cast<std::uint32_t>(i);
  common::Xoshiro256 rng(11);
  for (std::size_t i = flows; i > 1; --i) std::swap(order[i - 1], order[rng.next() % i]);
  std::size_t i = 0;
  for (auto _ : state) {
    t += 700;
    if (n % 100 == 0) {
      feed_reference(receiver, n, t);
    } else {
      feed_regular(receiver, keys[order[i]], t);
      if (++i == flows) i = 0;
    }
    ++n;
  }
  benchmark::DoNotOptimize(receiver.packets_estimated());
}
BENCHMARK(BM_RliReceiverPacket)->Arg(256)->Arg(1536)->Arg(131072)->Arg(1048576);

// Every regular packet opens a new flow, and a fresh receiver replaces the
// old one once all N flows are in, its teardown inside the timing:
// mouse_flows' pattern of ~2 packets a flow and new receivers at every pass.
void BM_RliReceiverNewFlows(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const auto& keys = flow_keys(flows);
  timebase::PerfectClock clock;
  std::optional<rli::RliReceiver> receiver;
  std::int64_t t = 0;
  std::uint64_t n = 0;       // packets into the current receiver
  std::size_t next = flows;  // its next new flow
  for (auto _ : state) {
    if (next == flows) {
      receiver.emplace(rli::ReceiverConfig{}, &clock);
      n = 0;
      next = 0;
    }
    t += 700;
    if (n % 100 == 0) {  // a new receiver's first packet anchors it
      feed_reference(*receiver, n, t);
    } else {
      feed_regular(*receiver, keys[next++], t);
    }
    ++n;
  }
  if (receiver) benchmark::DoNotOptimize(receiver->packets_estimated());
}
BENCHMARK(BM_RliReceiverNewFlows)->Arg(131072);

// The vantage chain per regular packet: an RlirReceiver over a 4-origin
// PrefixDemux puts the packet in its sender's stream, and the stream's
// estimates reach an attached EstimateExporter through the receiver's sink.
// Each sender sends a reference every 50 regular packets, and the exporter
// drains every 16,384, as at an epoch boundary. N flows (1,536 and 131,072
// stand for elephant_flows and mouse_flows), revisited in a shuffled order
// after one untimed pass. Time is per regular packet.
void BM_RlirReceiverToExporter(benchmark::State& state) {
  constexpr net::SenderId kOrigins = 4;
  const auto flows = static_cast<std::size_t>(state.range(0));
  auto keys = flow_keys(flows);
  ::rlir::rlir::PrefixDemux demux;
  for (net::SenderId s = 1; s <= kOrigins; ++s) {
    demux.add_origin(net::Ipv4Prefix(net::Ipv4Address(10, 0, static_cast<std::uint8_t>(s), 0), 24),
                     s);
  }
  for (std::size_t i = 0; i < flows; ++i) {
    keys[i].src = net::Ipv4Address(10, 0, static_cast<std::uint8_t>(1 + i % kOrigins),
                                   static_cast<std::uint8_t>(i));
  }
  timebase::PerfectClock clock;
  ::rlir::rlir::RlirReceiver receiver(rli::ReceiverConfig{}, &clock, &demux);
  collect::EstimateExporter exporter(collect::ExporterConfig{{}, 0});
  exporter.attach(receiver);
  std::int64_t t = 0;
  std::uint64_t regulars = 0;
  std::uint32_t epoch = 0;
  const auto packet = [&](const net::FiveTuple& key) {
    if (regulars % 50 == 0) {
      for (net::SenderId s = 1; s <= kOrigins; ++s) feed_reference(receiver, regulars, t += 700, s);
    }
    feed_regular(receiver, key, t += 700);
    if (++regulars % 16384 == 0) benchmark::DoNotOptimize(exporter.drain(epoch++));
  };
  for (const auto& key : keys) packet(key);
  std::vector<std::uint32_t> order(flows);
  for (std::size_t i = 0; i < flows; ++i) order[i] = static_cast<std::uint32_t>(i);
  common::Xoshiro256 rng(11);
  for (std::size_t i = flows; i > 1; --i) std::swap(order[i - 1], order[rng.next() % i]);
  std::size_t i = 0;
  for (auto _ : state) {
    packet(keys[order[i]]);
    if (++i == flows) i = 0;
  }
  benchmark::DoNotOptimize(exporter.estimates_observed());
}
BENCHMARK(BM_RlirReceiverToExporter)->Arg(1536)->Arg(131072);

/// An 8-shard collector holding `flows` flows of 2-sample sketches, filled
/// once per count and shared by every run (a top-k does not change it).
collect::ShardedCollector& filled_collector(std::size_t flows) {
  static std::map<std::size_t, collect::ShardedCollector> cache;
  const auto [it, fresh] = cache.try_emplace(flows, collect::CollectorConfig{8});
  if (fresh) {
    common::Xoshiro256 rng(12);
    std::vector<collect::EstimateRecord> batch;
    const auto& keys = flow_keys(flows);
    for (std::size_t i = 0; i < flows; ++i) {
      collect::EstimateRecord r;
      r.key = keys[i];
      r.link = static_cast<collect::LinkId>(i % 16);
      for (int s = 0; s < 2; ++s) r.sketch.add(rng.lognormal(9.0, 1.0));
      batch.push_back(std::move(r));
      if (batch.size() == 4096 || i + 1 == flows) {
        it->second.ingest(batch);
        batch.clear();
      }
    }
  }
  return it->second;
}

// top_k_ranked(10, 0.99) over N flows (20,000, and 137,000 for
// mouse_flows' ~137k) in 8 shards, in two modes. Mode 1: a small ingest
// before each query, one record per shard, drops every shard's cached
// answer, so each query scans every flow (the ingest is untimed). Mode 0:
// nothing is ingested between queries, so each copies the cached answers.
void BM_CollectorTopK(benchmark::State& state) {
  const auto flows = static_cast<std::size_t>(state.range(0));
  const bool stale = state.range(1) != 0;
  auto& collector = filled_collector(flows);
  // One existing flow per shard, re-ingested to drop its shard's cache.
  std::vector<collect::EstimateRecord> touch(8);
  const auto& keys = flow_keys(flows);
  for (std::size_t i = 0, found = 0; found < touch.size() && i < flows; ++i) {
    auto& r = touch[keys[i].hash() % touch.size()];
    if (r.sketch.count() != 0) continue;
    r.key = keys[i];
    r.sketch.add(8e3);
    ++found;
  }
  benchmark::DoNotOptimize(collector.top_k_ranked(10, 0.99));  // answers cached
  for (auto _ : state) {
    if (stale) {
      state.PauseTiming();
      collector.ingest(touch);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(collector.top_k_ranked(10, 0.99));
  }
}
BENCHMARK(BM_CollectorTopK)
    ->ArgsProduct({{20000, 137000}, {0, 1}})
    ->ArgNames({"flows", "stale"})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
