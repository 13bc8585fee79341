// The aggregator side of the transport tier: a CollectorAgent owns one
// shard-group's ShardedCollector and serves it over any number of
// ByteStream connections — the "shard-per-process" deployment unit. One
// agent process per shard group, many vantage-point clients streaming
// framed record batches in, fleet queries answered in place.
//
//   connections (sockets / loopback pipes)
//        │ bytes                      ▲ kQueryReply frames
//        ▼                            │
//   FrameDecoder per connection ──────┤   (zero-copy FrameViews)
//        │ kRecordBatch payloads      │ kQuery frames
//        ▼                            │
//   decode_record_views_prefix loop ──┘
//        │ RecordView batches (borrowing the frame payload; docs/WIRE.md)
//        ▼
//   ShardedCollector::ingest (batch grouped by shard, each shard's share
//   merged under one hold of its lock; no materialization), then one
//   history tee call per batch
//
// poll() is the single-threaded reactor step: accept pending connections,
// read every readable byte, process complete frames, flush reply bytes.
// A connection that violates the protocol (bad magic/version/CRC/length, a
// frame type only agents send, a payload failing its format checks) is
// counted and dropped — on a raw byte stream there is no safe resync.
// run() wraps poll() into a daemon loop.
//
// Threading: poll()/run() from one thread at a time; the agent starts no
// threads of its own. The collector itself is thread-safe, so queries
// against collector() from other threads are fine, as is wiring additional
// in-process producers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "collect/history.h"
#include "collect/sharded_collector.h"
#include "obs/instrument.h"
#include "obs/wire.h"
#include "timebase/time.h"
#include "transport/byte_stream.h"
#include "transport/frame.h"
#include "transport/messages.h"

namespace rlir::transport {

struct CollectorAgentConfig {
  /// The shard group this process owns. Its `instruments` are replaced by
  /// the agent's, so the collector reports into the agent's registry.
  collect::CollectorConfig collector;
  /// Cap on a connection's unread reply bytes. A peer that keeps querying
  /// without reading replies is dropped like any other protocol violator —
  /// every other allocation on the untrusted input path is bounded, and
  /// this keeps the outbox from being the exception. Must be > 0.
  std::size_t max_outbox_bytes = 8u << 20;
  /// Observability attachment; shared with the owned collector. Null
  /// members = the agent owns a private registry/trace.
  obs::Instruments instruments;
  /// Attach a history store and serve windowed (time-travel) queries.
  /// Off by default: the store is a per-record ingest tee plus resident
  /// memory, which a pure live-query deployment should not pay for.
  bool enable_history = false;
  /// Store shape when enabled. instruments is overwritten with the agent's
  /// shared registry (the single-scrape story demands it).
  collect::HistoryConfig history;
};

class CollectorAgent {
 public:
  explicit CollectorAgent(CollectorAgentConfig config = {});

  CollectorAgent(const CollectorAgent&) = delete;
  CollectorAgent& operator=(const CollectorAgent&) = delete;

  /// Accept-side hookup (socket deployment). The agent polls it for new
  /// connections on every poll().
  void set_listener(std::unique_ptr<Listener> listener);

  /// Adopts an already-connected stream (loopback tests, in-process tiers).
  void add_connection(std::unique_ptr<ByteStream> stream);

  /// One reactor step: accept, read, process frames, write replies, reap
  /// dead connections. Returns the number of frames processed (0 = idle).
  std::size_t poll();

  /// Daemon loop: poll() until `stop` is set, sleeping `idle_sleep` between
  /// idle polls (busy polls go straight back around).
  void run(const std::atomic<bool>& stop,
           timebase::Duration idle_sleep = timebase::Duration::milliseconds(1));

  /// The shard-group state (thread-safe; a query sees every batch whose
  /// poll() has returned).
  [[nodiscard]] collect::ShardedCollector& collector() { return collector_; }

  /// The attached history store; nullptr unless config.enable_history.
  /// Thread-safe like the collector (internally locked).
  [[nodiscard]] collect::SketchHistoryStore* history() { return history_.get(); }

  /// Collector totals plus protocol accounting — the numbers a scrape
  /// carries as rlir_agent_<field>_total.
  struct Stats {
    std::uint64_t records_ingested = 0;
    std::uint64_t estimates_ingested = 0;
    std::uint64_t flows = 0;
    std::uint64_t epochs = 0;
    std::uint64_t frames_received = 0;
    std::uint64_t batches_received = 0;
    std::uint64_t queries_answered = 0;
    std::uint64_t protocol_errors = 0;
  };
  /// An in-process view over the collector and the registry cells (the
  /// registry is the single source of truth, as for CollectorClient::stats).
  [[nodiscard]] Stats stats();

  /// The full observability state a Target::kMetrics reply (or a local
  /// --metrics dump) carries: the registry snapshot, the collector totals
  /// appended as rlir_agent_* counters, and the event trace.
  [[nodiscard]] obs::Scrape scrape();

  /// The registry/trace this agent (and its collector) report into.
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return obs_.registry(); }
  [[nodiscard]] obs::EventTrace& events() const { return obs_.trace(); }

  [[nodiscard]] std::size_t connection_count() const { return connections_.size(); }
  [[nodiscard]] std::uint64_t connections_accepted() const {
    return c_.connections_accepted->value();
  }
  [[nodiscard]] std::uint64_t connections_closed() const {
    return c_.connections_closed->value();
  }
  [[nodiscard]] std::uint64_t protocol_errors() const { return c_.protocol_errors->value(); }

 private:
  struct Connection {
    std::unique_ptr<ByteStream> stream;
    FrameDecoder decoder;
    /// Reply bytes not yet accepted by the stream.
    std::vector<std::uint8_t> outbox;
    std::size_t outbox_offset = 0;
    bool dead = false;
  };

  /// Reads available bytes and processes the frames they complete; marks the
  /// connection dead on protocol violations.
  std::size_t service(Connection& conn);
  /// Counts a protocol violation, records the event and drops the peer.
  void drop_peer(Connection& conn);
  void handle_frame(Connection& conn, const FrameView& frame);
  /// Builds the reply to one query: sketch entries from the collector (live)
  /// or the history store (window), a scrape, or the span ring.
  [[nodiscard]] QueryReply answer(const Query& query);
  void flush_outbox(Connection& conn);

  CollectorAgentConfig config_;
  /// Declared before collector_ so the agent's registry/trace exist when
  /// the collector config is patched to share them.
  obs::Instrumented obs_;
  /// Owned history store (enable_history). Declared before collector_, which
  /// holds a borrowed pointer to it: the store is built before the collector
  /// can ingest and destroyed after it.
  std::unique_ptr<collect::SketchHistoryStore> history_;
  collect::ShardedCollector collector_;
  std::unique_ptr<Listener> listener_;
  std::vector<std::unique_ptr<Connection>> connections_;

  struct Cells {
    obs::Gauge* connections;
    obs::Counter* connections_accepted;
    obs::Counter* connections_closed;
    obs::Counter* frames_received;
    obs::Counter* batches_received;
    obs::Counter* queries_answered;
    obs::Counter* protocol_errors;
    obs::Histogram* batch_records;
  };
  Cells c_{};

  /// Tracing attachment (null = off): decode/ingest spans per record-batch
  /// frame (parented to the client flush via the RLTC trailer), one answer
  /// span per query, and the ring Target::kSpans serves from.
  obs::SpanRecorder* spans_ = nullptr;

  /// Reused across poll()s so the hot path allocates nothing per call: the
  /// read buffer service() fills, and the RecordView scratch each record
  /// batch is decoded into (views borrow the decoder's buffer and are
  /// consumed before the next read). Single poll thread, so plain members.
  std::vector<std::uint8_t> read_chunk_;
  std::vector<collect::RecordView> view_scratch_;
};

}  // namespace rlir::transport
