#include "topo/ecmp.h"

#include <array>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace rlir::topo {

namespace {

/// Canonical byte representation of a flow key for hashing: fixed layout,
/// little-endian, salted by prepending the router salt.
std::array<std::byte, 21> key_bytes(const net::FiveTuple& key, std::uint64_t salt) {
  std::array<std::byte, 21> buf{};
  const std::uint32_t src = key.src.value();
  const std::uint32_t dst = key.dst.value();
  if constexpr (std::endian::native == std::endian::little) {
    // A field's memory image already is its little-endian encoding, so each
    // field is one store rather than one per byte.
    std::memcpy(&buf[0], &salt, 8);
    std::memcpy(&buf[8], &src, 4);
    std::memcpy(&buf[12], &dst, 4);
    std::memcpy(&buf[16], &key.src_port, 2);
    std::memcpy(&buf[18], &key.dst_port, 2);
  } else {
    auto put = [&](std::size_t at, std::uint64_t v, int bytes) {
      for (int i = 0; i < bytes; ++i) buf[at + i] = static_cast<std::byte>(v >> (8 * i));
    };
    put(0, salt, 8);
    put(8, src, 4);
    put(12, dst, 4);
    put(16, key.src_port, 2);
    put(18, key.dst_port, 2);
  }
  buf[20] = static_cast<std::byte>(key.proto);
  return buf;
}

/// The switch one tier up that `node` (a ToR or an edge switch) hashes `key`
/// to: the one ECMP hop both the forward route and its inversion take.
NodeId uplink(const FatTree& topo, const EcmpHasher& hasher, const net::FiveTuple& key,
              NodeId node) {
  const auto choice = static_cast<int>(
      hasher.select(key, router_salt(topo, node), static_cast<std::uint32_t>(topo.k() / 2)));
  return node.tier == Tier::kTor ? topo.edge(node.pod, choice) : topo.core_for(node.index, choice);
}

}  // namespace

std::uint32_t Crc32EcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  // CRC alone polarizes: CRC is linear, so crc(salt_a || key) and
  // crc(salt_b || key) differ by a key-independent constant and two routers
  // make perfectly correlated ECMP choices (real fabrics hit exactly this).
  // Hardware implementations therefore mix the seed nonlinearly after the
  // CRC stage; we do the same.
  const auto bytes = key_bytes(key, salt);
  const std::uint32_t crc = net::crc32c(bytes);
  return static_cast<std::uint32_t>(net::mix64(static_cast<std::uint64_t>(crc) ^ salt));
}

std::uint32_t JenkinsEcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  const auto bytes = key_bytes(key, salt);
  return net::jenkins_lookup3(bytes);
}

std::uint32_t XorFoldEcmpHasher::hash(const net::FiveTuple& key, std::uint64_t salt) const {
  // Hardware-style: fold addresses and ports, xor with a folded salt.
  const std::uint32_t folded_salt =
      static_cast<std::uint32_t>(salt) ^ static_cast<std::uint32_t>(salt >> 32);
  std::uint32_t h = key.src.value() ^ key.dst.value() ^ folded_salt;
  h ^= (std::uint32_t{key.src_port} << 16) | key.dst_port;
  h ^= key.proto;
  return net::xor_fold16(h);
}

std::uint64_t router_salt(const FatTree& topo, NodeId node) {
  return net::mix64(0x5a175a17ULL ^ topo.flat_index(node));
}

std::vector<NodeId> ecmp_route(const FatTree& topo, const EcmpHasher& hasher,
                               const net::FiveTuple& key, NodeId src_tor, NodeId dst_tor) {
  if (src_tor == dst_tor) return {src_tor};
  const NodeId up_edge = uplink(topo, hasher, key, src_tor);
  if (src_tor.pod == dst_tor.pod) return {src_tor, up_edge, dst_tor};
  const NodeId down_edge = topo.edge(dst_tor.pod, up_edge.index);
  return {src_tor, up_edge, uplink(topo, hasher, key, up_edge), down_edge, dst_tor};
}

NodeId reverse_ecmp_core(const FatTree& topo, const EcmpHasher& hasher,
                         const net::FiveTuple& key, NodeId src_tor, NodeId dst_tor) {
  if (src_tor.pod == dst_tor.pod) {
    throw std::invalid_argument("reverse_ecmp_core: same-pod flows do not cross a core");
  }
  return uplink(topo, hasher, key, uplink(topo, hasher, key, src_tor));
}

}  // namespace rlir::topo
