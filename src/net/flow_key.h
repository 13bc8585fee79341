// The 5-tuple flow key: the unit at which RLI/RLIR report latency statistics
// ("per-flow measurements" throughout the paper).
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "common/wire.h"
#include "net/hash.h"
#include "net/ipv4.h"

namespace rlir::net {

/// IP protocol numbers we care about; stored as the raw wire value so
/// arbitrary protocols survive round-trips.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

/// Canonical 5-tuple. Plain aggregate by design — flows keys are copied by
/// the million in flow tables and trace records.
struct FiveTuple {
  Ipv4Address src;
  Ipv4Address dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t proto = static_cast<std::uint8_t>(IpProto::kTcp);

  friend constexpr auto operator<=>(const FiveTuple&, const FiveTuple&) = default;

  /// Stable 64-bit hash (mixes all five fields).
  [[nodiscard]] std::uint64_t hash() const {
    std::uint64_t h = (std::uint64_t{src.value()} << 32) | dst.value();
    h = mix64(h);
    h ^= mix64((std::uint64_t{src_port} << 32) | (std::uint64_t{dst_port} << 8) | proto);
    return mix64(h);
  }

  [[nodiscard]] std::string to_string() const;
};

/// Bytes of a 5-tuple on every wire and file format: u32 src | u32 dst |
/// u16 src_port | u16 dst_port | u8 proto, little-endian (common/wire.h).
inline constexpr std::size_t kFiveTupleWireSize = 4 + 4 + 2 + 2 + 1;

/// Writes `key` at `p` and advances `p` past it.
inline void put_tuple(std::uint8_t*& p, const FiveTuple& key) {
  common::wire::put<std::uint32_t>(p, key.src.value());
  common::wire::put<std::uint32_t>(p, key.dst.value());
  common::wire::put<std::uint16_t>(p, key.src_port);
  common::wire::put<std::uint16_t>(p, key.dst_port);
  common::wire::put<std::uint8_t>(p, key.proto);
}

/// Reads a 5-tuple at `p` and advances `p` past it; the caller has checked
/// that kFiveTupleWireSize bytes are there.
[[nodiscard]] inline FiveTuple take_tuple(const std::uint8_t*& p) {
  FiveTuple key;
  key.src = Ipv4Address(common::wire::take<std::uint32_t>(p));
  key.dst = Ipv4Address(common::wire::take<std::uint32_t>(p));
  key.src_port = common::wire::take<std::uint16_t>(p);
  key.dst_port = common::wire::take<std::uint16_t>(p);
  key.proto = common::wire::take<std::uint8_t>(p);
  return key;
}

}  // namespace rlir::net

template <>
struct std::hash<rlir::net::FiveTuple> {
  std::size_t operator()(const rlir::net::FiveTuple& k) const noexcept { return k.hash(); }
};
