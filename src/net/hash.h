// Hash functions used across the stack:
//  - FNV-1a and Jenkins lookup3 for flow tables and LDA bucket selection;
//  - CRC-32C for transport-frame integrity (transport/frame, docs/WIRE.md)
//    and, with xor-fold, as stand-ins for vendor ECMP hash functions
//    (Section 3.2: receivers that know the upstream routers' hash functions
//    can "reverse" which next hop a packet was assigned to).
//
// Every function returns the same digest on every platform (deterministic,
// endian-stable). CRC-32C additionally picks, once at startup, the fastest
// implementation the CPU offers — the SSE4.2 `crc32` instruction on x86-64,
// the ARMv8 CRC extension on aarch64 — with a slice-by-8 software table as
// the fallback elsewhere and the cross-check reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace rlir::net {

/// 64-bit FNV-1a over an arbitrary byte span.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::byte> data,
                                    std::uint64_t seed = 0xcbf29ce484222325ULL);

/// Convenience overload hashing a trivially copyable value by representation.
template <typename T>
  requires std::is_trivially_copyable_v<T>
[[nodiscard]] std::uint64_t fnv1a64_value(const T& value, std::uint64_t seed = 0xcbf29ce484222325ULL) {
  return fnv1a64(std::as_bytes(std::span<const T, 1>(&value, 1)), seed);
}

/// Bob Jenkins' lookup3 ("hashlittle") 32-bit hash.
[[nodiscard]] std::uint32_t jenkins_lookup3(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

/// CRC-32C (Castagnoli). Digests chain: crc32c(a+b) == crc32c(b, crc32c(a)).
/// Served by the hardware instruction where the CPU has one, else by
/// crc32c_software; the digest is identical either way.
[[nodiscard]] std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed = 0);

/// The software (slice-by-8, table-driven) implementation — the fallback on
/// CPUs without a CRC instruction and the reference the hardware paths are
/// cross-checked against in tests.
[[nodiscard]] std::uint32_t crc32c_software(std::span<const std::byte> data,
                                            std::uint32_t seed = 0);

/// True when the CPU advertises a CRC-32C instruction this build can use.
[[nodiscard]] bool crc32c_hardware_available();

/// 16-bit xor-fold of a 32-bit word — the simplest hardware ECMP hash.
[[nodiscard]] constexpr std::uint16_t xor_fold16(std::uint32_t x) {
  return static_cast<std::uint16_t>((x >> 16) ^ (x & 0xffff));
}

/// Mixes a 64-bit value (SplitMix64 finalizer); good avalanche for integers.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace rlir::net
