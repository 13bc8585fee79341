#include "transport/agent.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "collect/estimate_record.h"
#include "obs/exposition.h"

namespace rlir::transport {

namespace {

/// The owned collector reports into the agent's registry/trace under the
/// agent's own instance id (its series are named rlir_collect_*, so the
/// shared id never collides).
collect::CollectorConfig shared_obs_collector(collect::CollectorConfig cfg,
                                              const obs::Instrumented& obs) {
  cfg.instruments = obs.child(obs.id());
  return cfg;
}

}  // namespace

CollectorAgent::CollectorAgent(CollectorAgentConfig config)
    : config_(config),
      obs_(config.instruments),
      collector_(shared_obs_collector(config.collector, obs_)) {
  if (config_.max_outbox_bytes == 0) {
    throw std::invalid_argument("CollectorAgent: zero max_outbox_bytes");
  }
  read_chunk_.resize(kIoChunkBytes);
  auto& r = obs_.registry();
  const obs::Labels base = obs_.labels();
  c_.connections = r.gauge("rlir_agent_connections", base);
  c_.connections_accepted = r.counter("rlir_agent_connections_accepted_total", base);
  c_.connections_closed = r.counter("rlir_agent_connections_closed_total", base);
  c_.frames_received = r.counter("rlir_agent_frames_received_total", base);
  c_.batches_received = r.counter("rlir_agent_batches_received_total", base);
  c_.queries_answered = r.counter("rlir_agent_queries_answered_total", base);
  c_.protocol_errors = r.counter("rlir_agent_protocol_errors_total", base);
  c_.batch_records = r.histogram("rlir_agent_batch_records", base);
  spans_ = obs_.spans();
  if (spans_ != nullptr) spans_->bind_metrics(&r, base);

  if (config_.enable_history) {
    collect::HistoryConfig hc = config_.history;
    // Its gauges/counters belong in this agent's scrape, not a private
    // registry nobody reads.
    hc.instruments = obs_.child(obs_.id());
    history_ = std::make_unique<collect::SketchHistoryStore>(hc);
    collector_.set_history(history_.get());
  }
}

void CollectorAgent::set_listener(std::unique_ptr<Listener> listener) {
  listener_ = std::move(listener);
}

void CollectorAgent::add_connection(std::unique_ptr<ByteStream> stream) {
  auto conn = std::make_unique<Connection>();
  conn->stream = std::move(stream);
  connections_.push_back(std::move(conn));
  c_.connections_accepted->increment();
  c_.connections->set(static_cast<std::int64_t>(connections_.size()));
  obs_.trace().record(obs::EventKind::kConnect, c_.connections_accepted->value(), obs_.id());
}

std::size_t CollectorAgent::poll() {
  if (listener_ != nullptr) {
    while (auto stream = listener_->accept()) add_connection(std::move(stream));
  }
  std::size_t frames = 0;
  for (auto& conn : connections_) {
    if (!conn->dead) frames += service(*conn);
    if (!conn->dead) flush_outbox(*conn);
    // A closed stream with nothing left to send is finished. (Protocol
    // violations set dead directly.)
    if (conn->stream->closed() && conn->outbox.size() == conn->outbox_offset) {
      conn->dead = true;
    }
  }
  const auto alive_end = std::remove_if(
      connections_.begin(), connections_.end(),
      [this](const std::unique_ptr<Connection>& c) {
        if (c->dead) {
          c_.connections_closed->increment();
          obs_.trace().record(obs::EventKind::kDisconnect, c_.connections_closed->value(),
                              obs_.id());
        }
        return c->dead;
      });
  connections_.erase(alive_end, connections_.end());
  c_.connections->set(static_cast<std::int64_t>(connections_.size()));
  return frames;
}

std::size_t CollectorAgent::service(Connection& conn) {
  for (;;) {
    const std::size_t n = conn.stream->read_some(read_chunk_.data(), read_chunk_.size());
    if (n == 0) break;
    conn.decoder.feed(read_chunk_.data(), n);
  }
  std::size_t frames = 0;
  try {
    // Views borrow the decoder's buffer; each is fully consumed by
    // handle_frame before the loop asks for the next (and no feed() happens
    // until the next service call), so the borrow is safe.
    while (auto frame = conn.decoder.next_view()) {
      frames += 1;
      c_.frames_received->increment();
      handle_frame(conn, *frame);
    }
  } catch (const std::runtime_error&) {
    // FrameError (bad magic/version/type/CRC/length: the stream cannot be
    // resynced) or a sound frame whose payload fails its own format checks.
    drop_peer(conn);
  }
  return frames;
}

void CollectorAgent::drop_peer(Connection& conn) {
  c_.protocol_errors->increment();
  obs_.trace().record(obs::EventKind::kCrcPoison, c_.protocol_errors->value(), obs_.id());
  conn.stream->close();
  conn.dead = true;
}

void CollectorAgent::handle_frame(Connection& conn, const FrameView& frame) {
  switch (frame.type) {
    case FrameType::kRecordBatch: {
      // One payload carries coalesced batches back-to-back; the prefix
      // decoder walks them without re-scanning. Records are decoded as
      // zero-copy views over the payload bytes (docs/WIRE.md) and merged
      // straight into collector state — no EstimateRecord materialization
      // on the ingest hot path.
      const std::uint8_t* p = frame.payload;
      std::size_t remaining = frame.size;
      // Stage accounting only when tracing is attached — the untraced hot
      // path keeps its exact instruction stream.
      const std::int64_t t0 = spans_ != nullptr ? obs::SpanRecorder::now_ns() : 0;
      std::int64_t decode_ns = 0;
      std::int64_t ingest_ns = 0;
      std::size_t frame_records = 0;
      obs::TraceContext batch_ctx;
      while (remaining > 0) {
        // A traced client appends one RLTC trailer after the last batch;
        // "RLTC" vs "RLES" at a batch boundary is unambiguous.
        if (is_trace_trailer(p, remaining)) {
          batch_ctx = decode_trace_trailer(p, remaining);
          break;
        }
        view_scratch_.clear();
        std::int64_t t = spans_ != nullptr ? obs::SpanRecorder::now_ns() : 0;
        const std::size_t consumed =
            collect::decode_record_views_prefix(p, remaining, view_scratch_);
        if (spans_ != nullptr) decode_ns += obs::SpanRecorder::now_ns() - t;
        p += consumed;
        remaining -= consumed;
        c_.batches_received->increment();
        frame_records += view_scratch_.size();
        c_.batch_records->observe(static_cast<double>(view_scratch_.size()));
        if (!view_scratch_.empty()) {
          t = spans_ != nullptr ? obs::SpanRecorder::now_ns() : 0;
          collector_.ingest(view_scratch_);
          if (spans_ != nullptr) ingest_ns += obs::SpanRecorder::now_ns() - t;
        }
      }
      if (spans_ != nullptr) {
        // Two adjacent intervals, both children of the client flush that
        // shipped the bytes (a trailer-less frame yields process-local
        // spans: trace_id 0, still feeding the stage histograms).
        obs::Span decode_span;
        decode_span.trace_id = batch_ctx.trace_id;
        decode_span.parent_id = batch_ctx.span_id;
        decode_span.kind = obs::SpanKind::kAgentDecode;
        decode_span.start_ns = t0;
        decode_span.end_ns = t0 + decode_ns;
        decode_span.label = std::to_string(frame_records) + " records";
        spans_->record(std::move(decode_span));
        obs::Span ingest_span;
        ingest_span.trace_id = batch_ctx.trace_id;
        ingest_span.parent_id = batch_ctx.span_id;
        ingest_span.kind = obs::SpanKind::kAgentIngest;
        ingest_span.start_ns = t0 + decode_ns;
        ingest_span.end_ns = t0 + decode_ns + ingest_ns;
        ingest_span.label = std::to_string(frame_records) + " records";
        spans_->record(std::move(ingest_span));
      }
      break;
    }
    case FrameType::kQuery: {
      const auto query = decode_query(frame.payload, frame.size);
      // Counted before building the reply so a scrape includes the query
      // it is answering.
      c_.queries_answered->increment();
      // The answer span parents to whatever context the query carried
      // (client hop, or bare coordinator leg). A span pull is never traced:
      // pulling a trace must not pollute it.
      const bool trace_answer = spans_ != nullptr && query.target != Target::kSpans;
      const std::int64_t answer_t0 = trace_answer ? obs::SpanRecorder::now_ns() : 0;
      const QueryReply reply = answer(query);
      if (trace_answer) {
        obs::Span answer_span;
        answer_span.trace_id = query.trace.trace_id;
        answer_span.parent_id = query.trace.span_id;
        answer_span.kind = obs::SpanKind::kAgentAnswer;
        answer_span.start_ns = answer_t0;
        answer_span.end_ns = obs::SpanRecorder::now_ns();
        answer_span.label = query_name(query);
        spans_->record(std::move(answer_span));
      }
      const auto bytes = encode_frame(FrameType::kQueryReply, encode_reply(reply));
      if (conn.outbox.size() - conn.outbox_offset + bytes.size() > config_.max_outbox_bytes) {
        // The peer queries but never reads: unread replies are the only
        // allocation a client could otherwise grow without bound.
        throw FrameError("CollectorAgent: reply outbox overflow (peer not reading)");
      }
      conn.outbox.insert(conn.outbox.end(), bytes.begin(), bytes.end());
      break;
    }
    case FrameType::kQueryReply:
      // Only agents produce replies; receiving one is a protocol violation.
      throw FrameError("CollectorAgent: unexpected kQueryReply frame");
  }
}

QueryReply CollectorAgent::answer(const Query& query) {
  QueryReply reply;
  // One entry per sketch found; an unseen link or flow adds none.
  const auto add = [&reply](collect::LinkId link, const net::FiveTuple& flow,
                            std::optional<common::LatencySketch> sketch) {
    if (sketch.has_value()) reply.entries.push_back({link, flow, std::move(*sketch)});
  };
  if (query.window.has_value()) {
    // No store attached -> covered=false, no entries: a fleet can mix
    // history-enabled and plain agents and the coordinator's coverage merge
    // reports the truth. The tee rides ingest, which is complete when
    // ingest() returns, so every record received before this query is in
    // the store.
    collect::WindowCoverage cov;
    if (history_ != nullptr) {
      const auto [first, last] = *query.window;
      if (query.target == Target::kFleet) {
        auto sketch = history_->window_fleet(first, last, &cov);
        if (cov.covered) add(0, {}, std::move(sketch));
      } else if (query.target == Target::kLink) {
        add(query.link, {}, history_->window_link(first, last, query.link, &cov));
      } else {  // decode admits a window on fleet, link and flow only
        add(0, query.flow, history_->window_flow(first, last, query.flow, &cov));
      }
    }
    reply.coverage =
        WindowInfo{cov.covered, cov.complete, cov.covered_first, cov.covered_last, cov.records};
    return reply;
  }
  switch (query.target) {
    case Target::kFleet:
      add(0, {}, collector_.fleet());
      break;
    case Target::kLink:
      add(query.link, {}, collector_.link_distribution(query.link));
      break;
    case Target::kLinks:
      for (auto& [link, sketch] : collector_.link_distributions()) add(link, {}, std::move(sketch));
      break;
    case Target::kFlow:
      add(0, query.flow, collector_.flow_sketch(query.flow));
      break;
    case Target::kTopK:
      // Ranked from the live collector's per-shard rank indexes (O(k·shards)),
      // not a state copy; each flow ships its sketch so a higher tier can
      // rank, summarize and merge several agents' answers exactly.
      for (const auto& [rank, flow] : collector_.top_k_ranked(query.k, query.q)) {
        add(0, flow.key, collector_.flow_sketch(flow.key));
      }
      break;
    case Target::kMetrics:
      reply.body = ReplyBody::kScrape;
      reply.scrape = scrape();
      break;
    case Target::kSpans:
      // No recorder attached -> empty ring, honestly: count 0, total 0.
      reply.body = ReplyBody::kSpans;
      if (spans_ != nullptr) reply.spans = spans_->snapshot(query.trace.trace_id);
      break;
  }
  return reply;
}

void CollectorAgent::flush_outbox(Connection& conn) {
  while (conn.outbox_offset < conn.outbox.size()) {
    const std::size_t n = conn.stream->write_some(conn.outbox.data() + conn.outbox_offset,
                                                  conn.outbox.size() - conn.outbox_offset);
    if (n == 0) {
      // Slow reader: compact the written prefix so the buffer's footprint
      // tracks the UNREAD bytes (which max_outbox_bytes bounds), not the
      // connection's lifetime traffic.
      if (conn.outbox_offset >= conn.outbox.size() / 2) {
        conn.outbox.erase(conn.outbox.begin(),
                          conn.outbox.begin() + static_cast<std::ptrdiff_t>(conn.outbox_offset));
        conn.outbox_offset = 0;
      }
      return;
    }
    conn.outbox_offset += n;
  }
  conn.outbox.clear();
  conn.outbox_offset = 0;
}

obs::Scrape CollectorAgent::scrape() {
  obs::Scrape s;
  // The history store defers its cell updates to epoch seals; publish the
  // unsealed tail so the scrape's record counter matches the collector's.
  if (history_ != nullptr) history_->refresh_cells();
  s.metrics = obs_.registry().snapshot();
  // The collector totals live in the collector, not the registry, so this
  // is their only identity — a coordinator merge sums them exactly like
  // registry counters.
  const obs::Labels base = obs_.labels();
  obs::append_counter(s.metrics, "rlir_agent_records_ingested_total", base,
                      collector_.records_ingested());
  obs::append_counter(s.metrics, "rlir_agent_estimates_ingested_total", base,
                      collector_.estimates_ingested());
  obs::append_counter(s.metrics, "rlir_agent_flows_total", base, collector_.flow_count());
  obs::append_counter(s.metrics, "rlir_agent_epochs_total", base, collector_.epoch_count());
  s.events = obs_.trace().snapshot();
  return s;
}

CollectorAgent::Stats CollectorAgent::stats() {
  Stats s;
  s.records_ingested = collector_.records_ingested();
  s.estimates_ingested = collector_.estimates_ingested();
  s.flows = collector_.flow_count();
  s.epochs = collector_.epoch_count();
  s.frames_received = c_.frames_received->value();
  s.batches_received = c_.batches_received->value();
  s.queries_answered = c_.queries_answered->value();
  s.protocol_errors = c_.protocol_errors->value();
  return s;
}

void CollectorAgent::run(const std::atomic<bool>& stop, timebase::Duration idle_sleep) {
  const auto sleep_ns = std::chrono::nanoseconds(idle_sleep.ns());
  while (!stop.load(std::memory_order_relaxed)) {
    if (poll() == 0) std::this_thread::sleep_for(sleep_ns);
  }
  // Final sweep so frames that raced the stop flag still land.
  poll();
}

}  // namespace rlir::transport
