// RLIR receiver: an RLI receiver that serves many senders at once.
//
// "many RLI senders need to associate with a given RLI receiver, and the
// receiver needs a mechanism to distinguish both regular and reference
// packets to isolate the streams" (Section 3.1). Reference packets identify
// their sender explicitly (sender ID); regular packets are attributed by the
// configured Demultiplexer. Each sender gets its own interpolation buffer
// (an rli::RliReceiver); per-flow estimates are kept per stream and can be
// merged.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.h"
#include "rli/flow_stats.h"
#include "rli/receiver.h"
#include "rlir/demux.h"
#include "sim/tap.h"
#include "timebase/clock.h"

namespace rlir::rlir {

class RlirReceiver final : public sim::PacketTap {
 public:
  /// `clock` and `demux` are borrowed and must outlive the receiver.
  /// `per_sender_config` configures each per-sender interpolation stream.
  RlirReceiver(rli::ReceiverConfig per_sender_config, const timebase::Clock* clock,
               const Demultiplexer* demux);

  void on_packet(const net::Packet& packet, timebase::TimePoint arrival) override;

  /// Epoch-boundary flush of every sender stream's interpolation buffer
  /// (rli::RliReceiver::flush). Returns the total packets flushed.
  std::size_t flush();

  /// Per-flow estimates from one sender's stream (nullptr if none seen).
  [[nodiscard]] const rli::RliReceiver* stream(net::SenderId sender) const;

  /// Per-flow estimates merged across all senders. In a correctly
  /// demultiplexed deployment each flow appears in exactly one stream;
  /// duplicated keys are merged by statistic union.
  [[nodiscard]] rli::FlowStatsMap merged_estimates() const;

  /// Per-packet estimate stream across every sender's interpolation stream,
  /// tagged with the stream's sender (the collection tier's export hook).
  /// Applies to streams that already exist and to streams created later.
  using StreamEstimateSink =
      std::function<void(net::SenderId, const rli::RliReceiver::PacketEstimate&)>;
  void add_estimate_sink(StreamEstimateSink sink);

  [[nodiscard]] std::uint64_t unclassified_packets() const { return unclassified_; }
  [[nodiscard]] std::uint64_t classified_packets() const { return classified_; }
  [[nodiscard]] std::size_t stream_count() const { return streams_.size(); }

 private:
  rli::RliReceiver& stream_for(net::SenderId sender);

  rli::ReceiverConfig per_sender_config_;
  const timebase::Clock* clock_;
  const Demultiplexer* demux_;
  /// Sorted by sender, for deterministic flush and merged iteration. A
  /// vantage serves a handful of senders, so a linear scan finds a stream
  /// faster than a tree; the streams live on the heap, so stream() pointers
  /// survive later insertions.
  std::vector<std::pair<net::SenderId, std::unique_ptr<rli::RliReceiver>>> streams_;
  /// Deque: per-stream adapter lambdas hold references to elements, and
  /// deque end-insertion never invalidates them.
  std::deque<StreamEstimateSink> sinks_;
  std::uint64_t unclassified_ = 0;
  std::uint64_t classified_ = 0;
};

}  // namespace rlir::rlir
