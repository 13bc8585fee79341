#include "transport/partitioned_client.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "net/hash.h"

namespace rlir::transport {

PartitionedClient::PartitionedClient(PartitionedClientConfig config)
    : config_(config), obs_(config.instruments) {
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.records_submitted = r.counter("rlir_pc_records_submitted_total", base);
  c_.batches_submitted = r.counter("rlir_pc_batches_submitted_total", base);
  c_.rebalances = r.counter("rlir_pc_rebalances_total", base);
  c_.recoveries = r.counter("rlir_pc_recoveries_total", base);
  c_.slots_reassigned = r.counter("rlir_pc_slots_reassigned_total", base);
}

std::size_t PartitionedClient::add_endpoint(StreamFactory factory) {
  if (sealed_) {
    throw std::logic_error(
        "PartitionedClient: endpoints are fixed after the first submit/pump");
  }
  Endpoint ep;
  // Endpoint clients share the registry/trace under child ids, so one scrape
  // shows every endpoint's counters side by side (rlir_client_*{instance=...}).
  CollectorClientConfig cfg = config_.client;
  cfg.instruments = obs_.child("ep" + std::to_string(endpoints_.size()));
  ep.client = std::make_unique<CollectorClient>(cfg, std::move(factory));
  endpoints_.push_back(std::move(ep));
  return endpoints_.size() - 1;
}

void PartitionedClient::seal() {
  if (sealed_) return;
  if (endpoints_.empty()) {
    throw std::logic_error("PartitionedClient: no endpoints added");
  }
  if (endpoints_.size() > kSlotCount) {
    throw std::invalid_argument("PartitionedClient: more endpoints than slots");
  }
  sealed_ = true;
  slots_.assign(kSlotCount, 0);
  split_.resize(endpoints_.size());
  // Initial table: every slot at home. recompute_slots() counts changes, so
  // seed the home assignment directly instead of "reassigning" from zero.
  for (std::size_t s = 0; s < slots_.size(); ++s) slots_[s] = s % endpoints_.size();
}

std::size_t PartitionedClient::slot_for(const net::FiveTuple& key) const {
  // One extra mix64 round decorrelates slot selection from the collectors'
  // shard routing (both start from key.hash()): an agent loss must not
  // correlate with any particular shard's flows.
  return net::mix64(key.hash()) % kSlotCount;
}

std::size_t PartitionedClient::endpoint_for_slot(std::size_t slot) const {
  return slots_.at(slot);
}

std::size_t PartitionedClient::endpoint_for(const net::FiveTuple& key) const {
  return slots_.at(slot_for(key));
}

bool PartitionedClient::endpoint_healthy(std::size_t endpoint) const {
  return endpoints_.at(endpoint).healthy;
}

std::size_t PartitionedClient::healthy_count() const {
  std::size_t n = 0;
  for (const auto& ep : endpoints_) n += ep.healthy ? 1 : 0;
  return n;
}

CollectorClient& PartitionedClient::client(std::size_t endpoint) {
  return *endpoints_.at(endpoint).client;
}

const CollectorClient& PartitionedClient::client(std::size_t endpoint) const {
  return *endpoints_.at(endpoint).client;
}

void PartitionedClient::submit(std::uint32_t epoch,
                               const std::vector<collect::EstimateRecord>& batch) {
  seal();
  if (batch.empty()) return;
  for (const auto& record : batch) {
    split_[slots_[slot_for(record.key)]].push_back(record);
  }
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (split_[e].empty()) continue;
    endpoints_[e].client->submit(epoch, split_[e]);
    split_[e].clear();
  }
  c_.records_submitted->add(batch.size());
  c_.batches_submitted->increment();
}

void PartitionedClient::flush() {
  for (auto& ep : endpoints_) ep.client->flush();
}

std::size_t PartitionedClient::pump() {
  seal();
  std::size_t written = 0;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    written += endpoints_[e].client->pump();
    update_health(e);
  }
  return written;
}

void PartitionedClient::update_health(std::size_t endpoint) {
  Endpoint& ep = endpoints_[endpoint];
  if (ep.client->connected()) {
    ep.failed_pumps = 0;
    if (!ep.healthy) {
      ep.healthy = true;
      c_.recoveries->increment();
      const std::uint64_t moved = recompute_slots();
      obs_.trace().record(obs::EventKind::kFailBack, moved,
                          "ep" + std::to_string(endpoint));
    }
    return;
  }
  if (!ep.healthy) return;  // already down, the client keeps re-dialing
  ep.failed_pumps += 1;
  if (ep.failed_pumps >= kDownAfterPumps) {
    ep.healthy = false;
    c_.rebalances->increment();
    const std::uint64_t moved = recompute_slots();
    obs_.trace().record(obs::EventKind::kRebalance, moved,
                        "ep" + std::to_string(endpoint));
  }
}

std::uint64_t PartitionedClient::recompute_slots() {
  std::vector<std::size_t> healthy;
  for (std::size_t e = 0; e < endpoints_.size(); ++e) {
    if (endpoints_[e].healthy) healthy.push_back(e);
  }
  // All endpoints down: leave the table alone. Records keep queueing in
  // their home clients (bounded by the buffer cap, shed oldest-first) and
  // flow again wherever endpoints come back.
  if (healthy.empty()) return 0;
  std::uint64_t moved = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const std::size_t home = s % endpoints_.size();
    const std::size_t owner =
        endpoints_[home].healthy ? home : healthy[s % healthy.size()];
    if (slots_[s] != owner) {
      slots_[s] = owner;
      moved += 1;
    }
  }
  c_.slots_reassigned->add(moved);
  return moved;
}

bool PartitionedClient::drain(std::size_t max_pumps) {
  seal();
  flush();
  for (std::size_t i = 0; i < max_pumps; ++i) {
    bool pending = false;
    for (const auto& ep : endpoints_) {
      if (ep.healthy && ep.client->buffered_bytes() > 0) pending = true;
    }
    if (!pending) break;
    pump();
  }
  for (const auto& ep : endpoints_) {
    if (ep.healthy && ep.client->buffered_bytes() > 0) return false;
  }
  return true;
}

collect::EpochScheduler::BatchSink PartitionedClient::make_sink() {
  return [this](std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch) {
    submit(epoch, batch);
    pump();
  };
}

PartitionedClient::Stats PartitionedClient::stats() const {
  Stats s;
  s.records_submitted = c_.records_submitted->value();
  s.batches_submitted = c_.batches_submitted->value();
  s.rebalances = c_.rebalances->value();
  s.recoveries = c_.recoveries->value();
  s.slots_reassigned = c_.slots_reassigned->value();
  return s;
}

std::uint64_t PartitionedClient::records_routed(std::size_t endpoint) const {
  return endpoints_.at(endpoint).client->stats().records_submitted;
}

std::uint64_t PartitionedClient::records_shed() const {
  std::uint64_t shed = 0;
  for (const auto& ep : endpoints_) shed += ep.client->stats().records_shed;
  return shed;
}

std::size_t PartitionedClient::records_inflight() const {
  std::size_t inflight = 0;
  for (const auto& ep : endpoints_) inflight += ep.client->queued_records();
  return inflight;
}

}  // namespace rlir::transport
