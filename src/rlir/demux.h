// Traffic demultiplexing — the heart of RLIR (paper Section 3.1).
//
// Across routers, a receiver sees an interleaving of flows from many origins
// and many ECMP paths. Interpolation is only valid between reference packets
// that shared the regular packet's path, so the receiver must attribute
// every regular packet to the RLI sender whose probes anchored that path.
// The paper proposes three mechanisms, all implemented here behind one
// interface:
//
//   * PrefixDemux      — upstream case: the origin ToR (and hence the
//                        sender at its uplink) is recovered by IP-prefix
//                        matching on the source address;
//   * MarkingDemux     — downstream case, option (i): intermediate (core)
//                        routers stamp the ToS field; the mark identifies
//                        the core whose sender re-anchored the packet;
//   * ReverseEcmpDemux — downstream case, option (ii): the receiver knows
//                        the upstream routers' ECMP hash functions and
//                        recomputes which core the flow was hashed through
//                        ("reverse ECMP computation") — no router firmware
//                        changes needed.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/packet.h"
#include "net/prefix_table.h"
#include "topo/ecmp.h"
#include "topo/fattree.h"

namespace rlir::rlir {

/// Maps a regular packet to the RLI sender whose reference packets anchor
/// its path segment. nullopt = unattributable (the receiver must not
/// interpolate such packets — doing so is exactly the error mode RLIR fixes).
class Demultiplexer {
 public:
  virtual ~Demultiplexer() = default;
  [[nodiscard]] virtual std::optional<net::SenderId> classify(
      const net::Packet& packet) const = 0;
};

/// Upstream demux: source-prefix → sender at the origin ToR's uplink.
/// "the origin of regular packets can be easily identified by IP address
/// block assigned for hosts in each ToR switch".
class PrefixDemux final : public Demultiplexer {
 public:
  void add_origin(const net::Ipv4Prefix& prefix, net::SenderId sender) {
    table_.insert(prefix, sender);
  }

  [[nodiscard]] std::optional<net::SenderId> classify(
      const net::Packet& packet) const override {
    return table_.lookup(packet.key.src);
  }

  [[nodiscard]] std::size_t rule_count() const { return table_.size(); }

 private:
  net::PrefixTable<net::SenderId> table_;
};

/// Downstream demux via packet marking: core routers stamp the ToS field
/// with their identity; the receiver maps marks to the senders at those
/// cores. "requires some native packet marking support from core routers".
class MarkingDemux final : public Demultiplexer {
 public:
  void map_mark(net::TosMark mark, net::SenderId sender) { by_mark_[mark] = sender; }

  [[nodiscard]] std::optional<net::SenderId> classify(
      const net::Packet& packet) const override {
    const auto it = by_mark_.find(packet.tos);
    if (it == by_mark_.end()) return std::nullopt;
    return it->second;
  }

 private:
  std::unordered_map<net::TosMark, net::SenderId> by_mark_;
};

/// Downstream demux via reverse-ECMP computation: knowing the fabric's hash
/// functions, the receiver recomputes which core the flow traversed and
/// attributes the packet to that core's sender. Origin ToRs in the
/// receiver's own pod never cross a core; they are attributed via the
/// optional upstream table (the paper's R3 also handles upstream sender S5).
class ReverseEcmpDemux final : public Demultiplexer {
 public:
  /// `topo` and `hasher` are borrowed and must outlive the demux.
  /// `receiver_tor` is the ToR hosting this receiver.
  ReverseEcmpDemux(const topo::FatTree* topo, const topo::EcmpHasher* hasher,
                   topo::NodeId receiver_tor);

  /// Registers (or replaces) the sender instance at a core switch.
  /// `net::kNoSender` is rejected: it marks a core with no sender.
  void set_sender_at_core(int core_index, net::SenderId sender);
  /// Registers an upstream (same-pod) origin prefix -> sender mapping.
  void add_same_pod_origin(const net::Ipv4Prefix& prefix, net::SenderId sender);

  [[nodiscard]] std::optional<net::SenderId> classify(
      const net::Packet& packet) const override;

 private:
  const topo::FatTree* topo_;
  const topo::EcmpHasher* hasher_;
  topo::NodeId receiver_tor_;
  /// Indexed by core; kNoSender where no sender is registered.
  std::vector<net::SenderId> sender_at_core_;
  net::PrefixTable<net::SenderId> same_pod_origins_;
};

/// Degenerate demux that attributes everything to one sender — the "no
/// demultiplexing" strawman whose failure under traffic multiplexing the
/// ablation bench quantifies ("per-flow latency estimates at the receivers
/// can be totally wrong").
class SingleSenderDemux final : public Demultiplexer {
 public:
  explicit SingleSenderDemux(net::SenderId sender) : sender_(sender) {}

  [[nodiscard]] std::optional<net::SenderId> classify(const net::Packet&) const override {
    return sender_;
  }

 private:
  net::SenderId sender_;
};

}  // namespace rlir::rlir
