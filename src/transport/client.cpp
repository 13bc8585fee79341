#include "transport/client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace rlir::transport {

CollectorClient::CollectorClient(CollectorClientConfig config, StreamFactory factory)
    : config_(config), factory_(std::move(factory)), obs_(config.instruments) {
  if (config_.max_buffered_bytes == 0 || config_.coalesce_bytes == 0) {
    throw std::invalid_argument("CollectorClient: zero buffer/coalesce size");
  }
  if (!factory_) {
    throw std::invalid_argument("CollectorClient: null stream factory");
  }
  reply_chunk_.resize(kIoChunkBytes);
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.batches_submitted = r.counter("rlir_client_batches_submitted_total", base);
  c_.records_submitted = r.counter("rlir_client_records_submitted_total", base);
  c_.frames_queued = r.counter("rlir_client_frames_queued_total", base);
  c_.frames_sent = r.counter("rlir_client_frames_sent_total", base);
  c_.bytes_sent = r.counter("rlir_client_bytes_sent_total", base);
  c_.batch_frames_shed = r.counter("rlir_client_batch_frames_shed_total", base);
  c_.records_shed = r.counter("rlir_client_records_shed_total", base);
  c_.reconnects = r.counter("rlir_client_reconnects_total", base);
  c_.connect_failures = r.counter("rlir_client_connect_failures_total", base);
  c_.queries_sent = r.counter("rlir_client_queries_sent_total", base);
  c_.replies_received = r.counter("rlir_client_replies_received_total", base);
  c_.queries_lost = r.counter("rlir_client_queries_lost_total", base);
  c_.buffered_bytes = r.gauge("rlir_client_buffered_bytes", base);
  c_.frame_bytes = r.histogram("rlir_client_frame_bytes", base);
  spans_ = obs_.spans();
  if (spans_ != nullptr) spans_->bind_metrics(&r, base);
  // Eager first dial so a healthy deployment starts connected; failure just
  // arms the backoff like any later outage.
  ensure_connected();
}

CollectorClient::Stats CollectorClient::stats() const {
  Stats s;
  s.batches_submitted = c_.batches_submitted->value();
  s.records_submitted = c_.records_submitted->value();
  s.frames_queued = c_.frames_queued->value();
  s.frames_sent = c_.frames_sent->value();
  s.bytes_sent = c_.bytes_sent->value();
  s.batch_frames_shed = c_.batch_frames_shed->value();
  s.records_shed = c_.records_shed->value();
  s.reconnects = c_.reconnects->value();
  s.connect_failures = c_.connect_failures->value();
  s.queries_sent = c_.queries_sent->value();
  s.replies_received = c_.replies_received->value();
  s.queries_lost = c_.queries_lost->value();
  return s;
}

void CollectorClient::submit(std::uint32_t epoch,
                             const std::vector<collect::EstimateRecord>& batch) {
  if (batch.empty()) return;
  // Re-stamping the epoch is the caller's business; the batch is encoded
  // as-is. (Exporter batches already carry the epoch in every record.)
  (void)epoch;
  const auto bytes = collect::encode_records(batch);
  coalescing_.insert(coalescing_.end(), bytes.begin(), bytes.end());
  coalescing_records_ += batch.size();
  c_.batches_submitted->increment();
  c_.records_submitted->add(batch.size());
  if (coalescing_.size() >= config_.coalesce_bytes) seal_coalescing();
}

void CollectorClient::flush() { seal_coalescing(); }

void CollectorClient::seal_coalescing() {
  if (coalescing_.empty()) return;
  const std::int64_t t0 = spans_ != nullptr ? obs::SpanRecorder::now_ns() : 0;
  obs::Span flush;
  if (spans_ != nullptr) {
    // Each sealed frame starts its own trace: the trailer carries this
    // span's context, so the agent's decode/ingest spans for THESE bytes
    // parent to the flush that shipped them.
    flush.trace_id = spans_->new_trace_id();
    flush.span_id = spans_->next_span_id();
    flush.kind = obs::SpanKind::kClientFlush;
    flush.start_ns = t0;
    append_trace_trailer(coalescing_, obs::TraceContext{flush.trace_id, flush.span_id});
  }
  QueuedFrame frame;
  frame.bytes = encode_frame(FrameType::kRecordBatch, coalescing_);
  frame.records = coalescing_records_;
  frame.is_batch = true;
  coalescing_.clear();
  coalescing_records_ = 0;
  if (spans_ != nullptr) {
    flush.end_ns = obs::SpanRecorder::now_ns();
    flush.label = std::to_string(frame.records) + " records";
    spans_->record(std::move(flush));
  }
  enqueue(std::move(frame));
}

void CollectorClient::enqueue(QueuedFrame frame) {
  c_.frame_bytes->observe(static_cast<double>(frame.bytes.size()));
  buffered_bytes_ += frame.bytes.size();
  queue_.push_back(std::move(frame));
  c_.frames_queued->increment();
  shed_to_cap();
  c_.buffered_bytes->set(static_cast<std::int64_t>(buffered_bytes_));
}

void CollectorClient::shed_to_cap() {
  // Oldest batch first; the front frame is immune while partially written
  // (dropping sent bytes would desynchronize the framing), and query frames
  // are immune always (tiny, and the reply pairing depends on them).
  std::size_t i = front_offset_ > 0 ? 1 : 0;
  while (buffered_bytes_ > config_.max_buffered_bytes && i < queue_.size()) {
    if (!queue_[i].is_batch) {
      ++i;
      continue;
    }
    buffered_bytes_ -= queue_[i].bytes.size();
    c_.batch_frames_shed->increment();
    c_.records_shed->add(queue_[i].records);
    obs_.trace().record(obs::EventKind::kShed, queue_[i].records);
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void CollectorClient::drop_connection(const char* query_status) {
  if (stream_ != nullptr) {
    // Whatever was partially written is gone with the connection; resend
    // the front frame whole on the next one.
    stream_->close();
    stream_.reset();
    obs_.trace().record(obs::EventKind::kDisconnect, 0, obs_.id());
  }
  front_offset_ = 0;
  // A reply can't arrive on a new connection for a query sent on the old
  // one; surface the loss instead of waiting forever. Queued query frames
  // die with the connection too: resending one would produce a reply the
  // caller no longer waits for, which would then be mis-paired with the
  // next query sent on the new connection.
  reply_decoder_ = FrameDecoder();
  if (query_outstanding_) {
    // One query can be outstanding at a time, so at most one query frame
    // is in the queue (and only while its query is outstanding) — this is
    // exactly one loss however far the frame got.
    query_outstanding_ = false;
    c_.queries_lost->increment();
    finish_query_span(query_status);
  }
  for (std::size_t i = 0; i < queue_.size();) {
    if (queue_[i].is_batch) {
      ++i;
      continue;
    }
    buffered_bytes_ -= queue_[i].bytes.size();
    queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

bool CollectorClient::ensure_connected() {
  if (stream_ != nullptr && !stream_->closed()) return true;
  if (stream_ != nullptr) drop_connection("lost");  // the connection died
  if (backoff_countdown_ > 0) {
    --backoff_countdown_;
    return false;
  }
  auto stream = factory_();
  if (stream == nullptr || stream->closed()) {
    c_.connect_failures->increment();
    backoff_ = backoff_ == 0 ? kBackoffInitialPumps
                             : std::min(backoff_ * 2, kBackoffMaxPumps);
    backoff_countdown_ = backoff_;
    return false;
  }
  if (ever_connected_) {
    c_.reconnects->increment();
    obs_.trace().record(obs::EventKind::kReconnect, 0, obs_.id());
  } else {
    obs_.trace().record(obs::EventKind::kConnect, 0, obs_.id());
  }
  ever_connected_ = true;
  stream_ = std::move(stream);
  backoff_ = 0;
  backoff_countdown_ = 0;
  return true;
}

std::size_t CollectorClient::pump() {
  if (!ensure_connected()) return 0;
  const std::int64_t t0 = spans_ != nullptr ? obs::SpanRecorder::now_ns() : 0;
  std::size_t written = 0;
  while (!queue_.empty()) {
    // The front frame from its partial-write offset. A short write means the
    // stream is full or died; a died stream is picked up by the next pump's
    // dial.
    auto& front = queue_.front();
    const std::size_t remaining = front.bytes.size() - front_offset_;
    const std::size_t n = stream_->write_some(front.bytes.data() + front_offset_, remaining);
    written += n;
    if (n < remaining) {
      front_offset_ += n;
      break;
    }
    buffered_bytes_ -= front.bytes.size();
    c_.frames_sent->increment();
    queue_.pop_front();
    front_offset_ = 0;
  }
  c_.bytes_sent->add(written);
  c_.buffered_bytes->set(static_cast<std::int64_t>(buffered_bytes_));
  // Only pumps that moved bytes earn a span — an idle pump is the common
  // case in scheduler deployments and would drown the ring.
  if (spans_ != nullptr && written > 0) {
    obs::Span pump_span;
    pump_span.kind = obs::SpanKind::kClientPump;
    pump_span.start_ns = t0;
    pump_span.end_ns = obs::SpanRecorder::now_ns();
    pump_span.label = std::to_string(written) + " bytes";
    spans_->record(std::move(pump_span));
  }
  return written;
}

std::size_t CollectorClient::queued_records() const {
  std::size_t records = coalescing_records_;
  for (const auto& frame : queue_) records += frame.records;
  return records;
}

bool CollectorClient::drain(std::size_t max_pumps) {
  flush();
  for (std::size_t i = 0; i < max_pumps; ++i) {
    if (queue_.empty()) return true;
    pump();
  }
  return queue_.empty();
}

void CollectorClient::send_query(const Query& query) {
  if (query_outstanding_) {
    throw std::logic_error("CollectorClient: a query is already outstanding");
  }
  // Seal first so the reply reflects at least every record submitted before
  // the query (frames are delivered in queue order).
  seal_coalescing();
  Query wire_query = query;
  // Start the round-trip span and splice it into the propagated context, so
  // the agent's answer span parents to THIS hop (not the coordinator leg two
  // hops up). A span pull is the meta-query: never traced, filter untouched.
  if (spans_ != nullptr && query.target != Target::kSpans) {
    query_span_ = obs::Span{};
    query_span_.trace_id =
        query.trace.valid() ? query.trace.trace_id : spans_->new_trace_id();
    query_span_.span_id = spans_->next_span_id();
    query_span_.parent_id = query.trace.span_id;
    query_span_.kind = obs::SpanKind::kClientQuery;
    query_span_.start_ns = obs::SpanRecorder::now_ns();
    query_span_.label = query_name(query);
    query_span_active_ = true;
    wire_query.trace = obs::TraceContext{query_span_.trace_id, query_span_.span_id};
  }
  QueuedFrame frame;
  frame.bytes = encode_frame(FrameType::kQuery, encode_query(wire_query));
  enqueue(std::move(frame));
  query_outstanding_ = true;
  c_.queries_sent->increment();
}

void CollectorClient::finish_query_span(const char* status) {
  if (!query_span_active_) return;
  query_span_active_ = false;
  query_span_.end_ns = obs::SpanRecorder::now_ns();
  if (status != nullptr) {
    query_span_.label += ' ';
    query_span_.label += status;
  }
  spans_->record(std::move(query_span_));
}

std::optional<QueryReply> CollectorClient::poll_reply() {
  if (!query_outstanding_ || stream_ == nullptr) return std::nullopt;
  for (;;) {
    const std::size_t n = stream_->read_some(reply_chunk_.data(), reply_chunk_.size());
    if (n == 0) break;
    reply_decoder_.feed(reply_chunk_.data(), n);
  }
  try {
    const auto frame = reply_decoder_.next_view();
    if (!frame.has_value()) return std::nullopt;
    if (frame->type != FrameType::kQueryReply) {
      throw FrameError("CollectorClient: unexpected frame type from agent");
    }
    // Decoded before it counts: a reply that fails its format is lost.
    QueryReply reply = decode_reply(frame->payload, frame->size);
    query_outstanding_ = false;
    c_.replies_received->increment();
    finish_query_span(nullptr);
    return reply;
  } catch (const std::runtime_error&) {
    // A bad frame, a frame only clients send, or a sound frame whose payload
    // is not a reply: a peer speaking garbage is indistinguishable from
    // corruption. Drop the connection (reconnect machinery takes over) and
    // the query with it, then rethrow.
    obs_.trace().record(obs::EventKind::kCrcPoison, 0, obs_.id());
    drop_connection("abandoned");
    throw;
  }
}

std::optional<QueryReply> CollectorClient::query(const Query& q, std::size_t max_rounds,
                                                 const std::function<void()>& drive) {
  send_query(q);
  for (std::size_t round = 0; round < max_rounds; ++round) {
    pump();
    if (drive) drive();
    std::optional<QueryReply> reply;
    try {
      reply = poll_reply();
    } catch (const std::runtime_error&) {
      // Corrupt/unexpected reply bytes: poll_reply already dropped the
      // connection and counted the query lost.
      return std::nullopt;
    }
    if (reply.has_value()) return reply;
    if (!query_outstanding_) return std::nullopt;  // connection died, query lost
    if (!drive) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  abandon_query();  // else the next send_query would refuse forever
  return std::nullopt;
}

void CollectorClient::abandon_query() {
  if (!query_outstanding_) return;
  // The reply may still be in flight; it must die with the connection (the
  // next pump re-dials). A queued, unsent query frame dies here too.
  drop_connection("abandoned");
}

collect::EpochScheduler::BatchSink CollectorClient::make_sink() {
  return [this](std::uint32_t epoch, const std::vector<collect::EstimateRecord>& batch) {
    submit(epoch, batch);
    pump();
  };
}

}  // namespace rlir::transport
