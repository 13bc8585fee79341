// The vantage-point side of the transport tier: a CollectorClient takes the
// EstimateRecord batches an exporter/scheduler produces, coalesces them
// into framed kRecordBatch messages, and ships them over a ByteStream to a
// CollectorAgent — with the failure handling a real deployment needs:
//
//   * bounded send buffering: queued-but-unsent frames never exceed
//     max_buffered_bytes; overflow sheds the OLDEST queued batch frame
//     (newest telemetry is worth the most) and counts what was dropped;
//   * batch coalescing: small per-exporter batches accumulate until
//     coalesce_bytes (or a flush), so one frame carries many batches
//     back-to-back — the agent splits them with decode_record_views_prefix;
//   * reconnect with backoff: a dead stream is re-dialed via the stream
//     factory after a doubling number of pump() calls; a frame that was
//     partially written when the connection died is resent from its first
//     byte (the agent discarded the partial frame with the connection).
//
// Threading: not thread-safe. One owner drives submit()/pump()/queries —
// in scheduler deployments that is the thread calling
// EpochScheduler::advance_to (make_sink runs submit+pump inline).
//
// Delivery contract: at-most-once. Bytes acknowledged by the kernel/pipe
// can still die with a connection; the collection tier's sketches tolerate
// gaps by design (an epoch gap is missing data, not corruption).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "collect/epoch_scheduler.h"
#include "collect/estimate_record.h"
#include "obs/instrument.h"
#include "transport/byte_stream.h"
#include "transport/frame.h"
#include "transport/messages.h"

namespace rlir::transport {

struct CollectorClientConfig {
  /// Cap on queued-but-unsent frame bytes. Exceeding it sheds the oldest
  /// complete (not partially written) batch frame until back under the cap.
  /// Must be > 0.
  std::size_t max_buffered_bytes = 4u << 20;
  /// Seal the coalescing buffer into a frame once it holds this many payload
  /// bytes. Smaller = lower latency, larger = fewer frames (fewer CRC
  /// finalizations and header decodes per record on the agent side). Must
  /// be > 0.
  std::size_t coalesce_bytes = 256u << 10;
  /// Observability attachment (see obs/instrument.h). Null members = the
  /// client owns a private registry/trace; stats() works either way.
  obs::Instruments instruments;
};

class CollectorClient {
 public:
  /// Dials (and re-dials) the agent. Returning nullptr = attempt failed,
  /// consume backoff and retry later.
  using StreamFactory = std::function<std::unique_ptr<ByteStream>()>;

  /// pump() calls to wait before the first reconnect attempt after a dial
  /// failure; doubles per failure up to kBackoffMaxPumps. Counted in pump()
  /// calls (not wall time) so backoff is deterministic under test and paces
  /// with the driving cadence in deployment.
  static constexpr std::uint32_t kBackoffInitialPumps = 1;
  static constexpr std::uint32_t kBackoffMaxPumps = 64;

  /// Throws std::invalid_argument on a zero cap/coalesce size or a null
  /// factory. Dials eagerly; a failed first dial just starts the backoff.
  CollectorClient(CollectorClientConfig config, StreamFactory factory);

  CollectorClient(const CollectorClient&) = delete;
  CollectorClient& operator=(const CollectorClient&) = delete;

  // --- Record plane --------------------------------------------------------

  /// Adds one epoch batch to the coalescing buffer (empty batches are
  /// dropped); seals a frame when coalesce_bytes is reached. Does no I/O —
  /// pair with pump().
  void submit(std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch);

  /// Seals the coalescing buffer into a queued frame now (epoch boundary,
  /// shutdown). No-op when empty.
  void flush();

  /// Drives the connection: dial/backoff if dead, then write queued frames
  /// until the stream stops taking bytes. Returns bytes written this call.
  std::size_t pump();

  /// flush() + pump() until everything queued is on the wire or `max_pumps`
  /// is exhausted (stalled peer / shed-to-empty). True if fully drained.
  bool drain(std::size_t max_pumps = 1024);

  // --- Query plane ---------------------------------------------------------

  /// Sends a query frame (jumps the record queue's coalescing buffer but not
  /// queued record frames — replies reflect everything sent before them on
  /// this connection). One outstanding query at a time; a new send_query
  /// while one is pending throws std::logic_error.
  void send_query(const Query& query);

  /// Nonblocking: reads reply bytes if any arrived; returns the reply once
  /// its frame is complete, decoded straight from the decoder's borrowed
  /// payload. Malformed reply bytes throw FrameError / std::runtime_error
  /// (the stream is then closed).
  [[nodiscard]] std::optional<QueryReply> poll_reply();

  /// The one send-and-wait loop: send, then up to `max_rounds` rounds of
  /// pump, `drive`, poll_reply. With a drive hook (a single-threaded
  /// loopback setup polls its agent there) rounds run back to back; without
  /// one (live socket deployments) each round sleeps ~100us. nullopt = no
  /// reply: the rounds ran out or malformed reply bytes arrived (the query
  /// is abandoned — see below), or the connection died under the query.
  [[nodiscard]] std::optional<QueryReply> query(const Query& query,
                                                std::size_t max_rounds = 20000,
                                                const std::function<void()>& drive = {});

  /// Gives up on the outstanding query (timeout policy lives with the
  /// caller). Drops the connection — a reply still in flight must die with
  /// it, or it would be mis-paired with the next query — and counts the
  /// query in stats().queries_lost. No-op when none is outstanding.
  void abandon_query();

  // --- Introspection -------------------------------------------------------

  /// A BatchSink that submits and pumps — plug into EpochScheduler::add_sink
  /// (or FleetCollector::add_batch_sink). The client must outlive the
  /// scheduler's last advance_to.
  [[nodiscard]] collect::EpochScheduler::BatchSink make_sink();

  [[nodiscard]] bool connected() const { return stream_ != nullptr && !stream_->closed(); }
  /// True while a sent query awaits its reply. Cleared by the reply — or by
  /// a connection loss, which is how a caller driving send_query/poll_reply
  /// by hand learns the query died (stats().queries_lost counts it).
  [[nodiscard]] bool query_outstanding() const { return query_outstanding_; }
  /// Queued-but-unsent frame bytes (excludes the coalescing buffer).
  [[nodiscard]] std::size_t buffered_bytes() const { return buffered_bytes_; }
  /// Records sitting in the coalescing buffer (not yet framed).
  [[nodiscard]] std::size_t coalescing_records() const { return coalescing_records_; }
  /// Records not yet on the wire: coalescing buffer + queued batch frames.
  /// With at-most-once delivery this is the "inflight-lost" term of a
  /// conservation check against an endpoint that never comes back.
  [[nodiscard]] std::size_t queued_records() const;

  struct Stats {
    std::uint64_t batches_submitted = 0;
    std::uint64_t records_submitted = 0;
    std::uint64_t frames_queued = 0;
    std::uint64_t frames_sent = 0;
    std::uint64_t bytes_sent = 0;
    /// Oldest-first shedding under the buffer cap.
    std::uint64_t batch_frames_shed = 0;
    std::uint64_t records_shed = 0;
    /// Successful re-dials after a dead stream (the first dial is not one).
    std::uint64_t reconnects = 0;
    std::uint64_t connect_failures = 0;
    std::uint64_t queries_sent = 0;
    std::uint64_t replies_received = 0;
    /// Queries whose connection died before the reply arrived (the queued
    /// query frame is discarded — a reply to a resent query on a NEW
    /// connection would be mis-paired with the next query sent there).
    std::uint64_t queries_lost = 0;
  };
  /// A view over the registry cells (the registry is the single source of
  /// truth; the struct exists for test ergonomics and API continuity).
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const CollectorClientConfig& config() const { return config_; }

  /// The registry/trace this client reports into (its own unless shared via
  /// config().instruments) — what a scraper reads.
  [[nodiscard]] obs::MetricsRegistry& metrics() const { return obs_.registry(); }
  [[nodiscard]] obs::EventTrace& events() const { return obs_.trace(); }

 private:
  /// One queued frame; `records` lets shedding report what was lost.
  struct QueuedFrame {
    std::vector<std::uint8_t> bytes;
    std::size_t records = 0;
    bool is_batch = false;
  };

  void seal_coalescing();
  void enqueue(QueuedFrame frame);
  void shed_to_cap();
  /// True when a usable stream exists after dial/backoff bookkeeping.
  bool ensure_connected();
  /// Closes the pending kClientQuery span (reply arrived, or the query died
  /// with the connection). `status` is appended to the span label when the
  /// query was lost. No-op when tracing is off or no span is pending.
  void finish_query_span(const char* status);

  CollectorClientConfig config_;
  StreamFactory factory_;
  std::unique_ptr<ByteStream> stream_;
  bool ever_connected_ = false;

  /// Doubling backoff state: pumps to skip before the next dial attempt.
  std::uint32_t backoff_ = 0;
  std::uint32_t backoff_countdown_ = 0;

  /// Coalescing buffer: encoded batches back-to-back (one future payload).
  std::vector<std::uint8_t> coalescing_;
  std::size_t coalescing_records_ = 0;

  std::deque<QueuedFrame> queue_;
  std::size_t buffered_bytes_ = 0;
  /// Bytes of queue_.front() already written (resets on reconnect: the dead
  /// connection took the partial frame with it).
  std::size_t front_offset_ = 0;

  FrameDecoder reply_decoder_;
  bool query_outstanding_ = false;

  /// Reused scratch: pump()'s gather-write span list and poll_reply()'s read
  /// chunk — neither path allocates per call.
  std::vector<ConstBuffer> write_spans_;
  std::vector<std::uint8_t> reply_chunk_;

  obs::Instrumented obs_;
  /// Tracing attachment (null = off). The pending query span lives here
  /// between send_query and its reply/loss — queries are one-outstanding,
  /// so one slot suffices.
  obs::SpanRecorder* spans_ = nullptr;
  obs::Span query_span_;
  bool query_span_active_ = false;

  /// Registry cells (stable pointers). Hot-path updates are one relaxed
  /// atomic op each; stats() reads them back.
  struct Cells {
    obs::Counter* batches_submitted;
    obs::Counter* records_submitted;
    obs::Counter* frames_queued;
    obs::Counter* frames_sent;
    obs::Counter* bytes_sent;
    obs::Counter* batch_frames_shed;
    obs::Counter* records_shed;
    obs::Counter* reconnects;
    obs::Counter* connect_failures;
    obs::Counter* queries_sent;
    obs::Counter* replies_received;
    obs::Counter* queries_lost;
    obs::Gauge* buffered_bytes;
    obs::Histogram* frame_bytes;
  };
  Cells c_{};
};

}  // namespace rlir::transport
