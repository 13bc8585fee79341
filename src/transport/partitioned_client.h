// Client-side partitioning for a fleet of CollectorAgents: one logical
// export path that sprays EstimateRecord batches across N agent endpoints
// by flow-hash, so every flow's records deterministically land on ONE agent
// and the fleet's per-flow state is disjoint by construction — the property
// that makes a coordinator's top-k/quantile merges exact.
//
//   submit(epoch, batch)
//        │ slot = mix64(flow hash) % kSlotCount      (net/hash.h)
//        │ owner = slot table[slot]
//        ▼
//   per-endpoint CollectorClient (coalescing, bounded buffer with
//   shedding, reconnect/backoff — all inherited, per endpoint)
//        │ framed batches
//        ▼
//   N CollectorAgent processes
//
// Health and rebalance: every pump() checks each endpoint's connection. An
// endpoint disconnected for kDownAfterPumps consecutive pumps is marked
// down and the slot table is recomputed — its hash slots move to healthy
// endpoints (deterministically, counted in stats) while slots whose home
// endpoint is healthy never move. When a downed endpoint reconnects (its
// client never stops re-dialing), its home slots move back. Records already
// queued inside a downed endpoint's client stay there: they are delivered
// if it returns, shed under the buffer cap, or reported by
// records_inflight() — so conservation is checkable end to end:
//
//   records_submitted == sum(agents ingested) + records_shed()
//                        + records_inflight()   [+ bytes lost in a killed
//                                                 agent's unread stream]
//
// Threading: not thread-safe, same single-owner contract as
// CollectorClient.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/estimate_record.h"
#include "net/flow_key.h"
#include "transport/client.h"

namespace rlir::transport {

struct PartitionedClientConfig {
  /// Per-endpoint connection behavior (buffering, coalescing).
  CollectorClientConfig client;
  /// Observability attachment (see obs/instrument.h). Endpoint clients
  /// report into the same registry/trace under child ids "ep0", "ep1", ...;
  /// rebalances leave kRebalance / kFailBack events carrying the slot count
  /// that moved.
  obs::Instruments instruments;
};

class PartitionedClient {
 public:
  using StreamFactory = CollectorClient::StreamFactory;

  /// Hash-slot fan-out: the most endpoints a client can spray over (more
  /// are refused at the first submit/pump). Slots map to endpoints
  /// home-first (slot % endpoints), so with all endpoints healthy the table
  /// is the plain modulo spray.
  static constexpr std::size_t kSlotCount = 64;
  /// Consecutive disconnected pump()s before an endpoint is declared down
  /// and its slots are reassigned. Counted in pumps (like the client's
  /// backoff) so fault handling is deterministic under test.
  static constexpr std::uint32_t kDownAfterPumps = 4;

  explicit PartitionedClient(PartitionedClientConfig config = {});

  PartitionedClient(const PartitionedClient&) = delete;
  PartitionedClient& operator=(const PartitionedClient&) = delete;

  /// Registers one agent endpoint (dials eagerly, like CollectorClient).
  /// All endpoints must be added before the first submit()/pump() — the
  /// slot table is sized to the endpoint count (std::logic_error after;
  /// std::invalid_argument at the seal for more than kSlotCount endpoints).
  /// Returns the endpoint's index.
  std::size_t add_endpoint(StreamFactory factory);

  // --- Record plane --------------------------------------------------------

  /// Splits the batch by flow-hash slot and submits each endpoint's share
  /// to its client. Throws std::logic_error when no endpoint was added.
  void submit(std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch);

  /// Seals every endpoint's coalescing buffer (epoch boundary, shutdown).
  void flush();

  /// Pumps every endpoint's connection and updates health/rebalance state.
  /// Returns total bytes written this call.
  std::size_t pump();

  /// flush() + pump() until every endpoint's queue is empty or `max_pumps`
  /// is exhausted. Endpoints currently down don't count against success —
  /// their queued records are the inflight term, not a stalled drain.
  bool drain(std::size_t max_pumps = 1024);

  /// A BatchSink that submits and pumps — plug into EpochScheduler::add_sink,
  /// the one exit of a FleetCollector's batches. The client must outlive the
  /// scheduler's last advance_to.
  [[nodiscard]] collect::EpochScheduler::BatchSink make_sink();

  // --- Partitioning introspection ------------------------------------------

  [[nodiscard]] std::size_t endpoint_count() const { return endpoints_.size(); }
  /// The slot a flow hashes to (decorrelated from collector shard routing:
  /// one extra mix64 round on top of the flow-key hash).
  [[nodiscard]] std::size_t slot_for(const net::FiveTuple& key) const;
  /// The endpoint currently owning a slot / a flow's records.
  [[nodiscard]] std::size_t endpoint_for_slot(std::size_t slot) const;
  [[nodiscard]] std::size_t endpoint_for(const net::FiveTuple& key) const;

  /// Endpoint health as of the last pump() (true until proven down).
  [[nodiscard]] bool endpoint_healthy(std::size_t endpoint) const;
  [[nodiscard]] std::size_t healthy_count() const;

  /// The endpoint's underlying client (stats, queued_records, queries).
  [[nodiscard]] CollectorClient& client(std::size_t endpoint);
  [[nodiscard]] const CollectorClient& client(std::size_t endpoint) const;

  // --- Accounting ----------------------------------------------------------

  struct Stats {
    std::uint64_t records_submitted = 0;
    std::uint64_t batches_submitted = 0;
    /// Slot-table recomputes after an endpoint loss / recovery.
    std::uint64_t rebalances = 0;
    std::uint64_t recoveries = 0;
    /// Slot ownership changes across all recomputes.
    std::uint64_t slots_reassigned = 0;
  };
  /// Built from the registry cells (rlir_pc_*) — a view, not stored state.
  [[nodiscard]] Stats stats() const;

  /// The registry/trace this client (and its endpoint clients) report into.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return obs_.registry(); }
  [[nodiscard]] obs::EventTrace& events() { return obs_.trace(); }

  /// Records routed to one endpoint since construction (conservation:
  /// these sum to stats().records_submitted).
  [[nodiscard]] std::uint64_t records_routed(std::size_t endpoint) const;
  /// Sums of the per-endpoint client counters (conservation terms).
  [[nodiscard]] std::uint64_t records_shed() const;
  [[nodiscard]] std::size_t records_inflight() const;

  [[nodiscard]] const PartitionedClientConfig& config() const { return config_; }

 private:
  struct Endpoint {
    std::unique_ptr<CollectorClient> client;
    bool healthy = true;
    /// Consecutive pump()s observed disconnected (resets on connect).
    std::uint32_t failed_pumps = 0;
    std::uint64_t records_routed = 0;
  };

  /// Marks the first submit/pump so add_endpoint can refuse afterwards.
  void seal();
  /// Re-derives the slot table from current endpoint health: a slot lives
  /// with its home endpoint (slot % endpoints) when that is healthy, else
  /// with a deterministic healthy stand-in. Returns ownership changes.
  std::uint64_t recompute_slots();
  void update_health(std::size_t endpoint);

  PartitionedClientConfig config_;
  obs::Instrumented obs_;
  std::vector<Endpoint> endpoints_;
  /// slot -> owning endpoint index.
  std::vector<std::size_t> slots_;
  /// Scratch for submit()'s per-endpoint split (reused across calls).
  std::vector<std::vector<collect::EstimateRecord>> split_;
  bool sealed_ = false;
  /// Registry cells backing Stats (names rlir_pc_<field>_total).
  struct Cells {
    obs::Counter* records_submitted = nullptr;
    obs::Counter* batches_submitted = nullptr;
    obs::Counter* rebalances = nullptr;
    obs::Counter* recoveries = nullptr;
    obs::Counter* slots_reassigned = nullptr;
  } c_{};
};

}  // namespace rlir::transport
