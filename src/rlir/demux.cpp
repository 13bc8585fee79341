#include "rlir/demux.h"

#include <stdexcept>

namespace rlir::rlir {

ReverseEcmpDemux::ReverseEcmpDemux(const topo::FatTree* topo, const topo::EcmpHasher* hasher,
                                   topo::NodeId receiver_tor)
    : topo_(topo), hasher_(hasher), receiver_tor_(receiver_tor) {
  if (topo_ == nullptr || hasher_ == nullptr) {
    throw std::invalid_argument("ReverseEcmpDemux: topology and hasher must not be null");
  }
  if (receiver_tor_.tier != topo::Tier::kTor) {
    throw std::invalid_argument("ReverseEcmpDemux: receiver must sit at a ToR switch");
  }
  sender_at_core_.assign(static_cast<std::size_t>(topo_->core_count()), net::kNoSender);
}

void ReverseEcmpDemux::set_sender_at_core(int core_index, net::SenderId sender) {
  if (core_index < 0 || core_index >= topo_->core_count()) {
    throw std::out_of_range("ReverseEcmpDemux::set_sender_at_core: bad core index");
  }
  if (sender == net::kNoSender) {
    throw std::invalid_argument("ReverseEcmpDemux::set_sender_at_core: kNoSender is not a sender");
  }
  sender_at_core_[static_cast<std::size_t>(core_index)] = sender;
}

void ReverseEcmpDemux::add_same_pod_origin(const net::Ipv4Prefix& prefix,
                                           net::SenderId sender) {
  same_pod_origins_.insert(prefix, sender);
}

std::optional<net::SenderId> ReverseEcmpDemux::classify(const net::Packet& packet) const {
  const auto origin = topo_->tor_for_address(packet.key.src);
  if (!origin) return std::nullopt;

  if (origin->pod == receiver_tor_.pod) {
    // Same-pod traffic never crosses a core: upstream prefix rule applies.
    return same_pod_origins_.lookup(packet.key.src);
  }

  // "R3 uses the hash functions of edge routers connected to core routers to
  // determine to which core router a particular packet is forwarded."
  const topo::NodeId core =
      topo::reverse_ecmp_core(*topo_, *hasher_, packet.key, *origin, receiver_tor_);
  const net::SenderId sender = sender_at_core_[core.index];
  if (sender == net::kNoSender) return std::nullopt;
  return sender;
}

}  // namespace rlir::rlir
