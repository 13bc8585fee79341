#include "net/hash.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RLIR_HW_CRC_X86 1
#include <nmmintrin.h>
#elif defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#define RLIR_HW_CRC_ARM 1
#include <arm_acle.h>
#endif

namespace rlir::net {

std::uint64_t fnv1a64(std::span<const std::byte> data, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (const std::byte b : data) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr std::uint32_t rot(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

// lookup3 mixing steps (Jenkins, public domain).
void lookup3_mix(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c) {
  a -= c; a ^= rot(c, 4);  c += b;
  b -= a; b ^= rot(a, 6);  a += c;
  c -= b; c ^= rot(b, 8);  b += a;
  a -= c; a ^= rot(c, 16); c += b;
  b -= a; b ^= rot(a, 19); a += c;
  c -= b; c ^= rot(b, 4);  b += a;
}

void lookup3_final(std::uint32_t& a, std::uint32_t& b, std::uint32_t& c) {
  c ^= b; c -= rot(b, 14);
  a ^= c; a -= rot(c, 11);
  b ^= a; b -= rot(a, 25);
  c ^= b; c -= rot(b, 16);
  a ^= c; a -= rot(c, 4);
  b ^= a; b -= rot(a, 14);
  c ^= b; c -= rot(b, 24);
}

std::uint32_t load_le32(const std::byte* p, std::size_t n) {
  std::uint32_t v = 0;
  unsigned char raw[4] = {0, 0, 0, 0};
  std::memcpy(raw, p, n);
  v = std::uint32_t{raw[0]} | (std::uint32_t{raw[1]} << 8) | (std::uint32_t{raw[2]} << 16) |
      (std::uint32_t{raw[3]} << 24);
  return v;
}

// Slice-by-8 CRC-32C tables: table[0] is the classic byte table; table[j]
// advances a byte's contribution j extra bytes through the register, so one
// iteration folds 8 input bytes with 8 independent table lookups instead of
// 8 serial byte steps.
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_crc32c_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  constexpr std::uint32_t poly = 0x82f63b78u;  // reflected CRC-32C polynomial
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ poly : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (std::size_t j = 1; j < 8; ++j) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      tables[j][i] = (tables[j - 1][i] >> 8) ^ tables[0][tables[j - 1][i] & 0xffu];
    }
  }
  return tables;
}

constexpr auto kCrc32cTables = make_crc32c_tables();

std::uint32_t crc32c_soft_raw(const std::byte* p, std::size_t len, std::uint32_t crc) {
  const auto& t = kCrc32cTables;
  while (len >= 8) {
    // Byte-composed loads keep the digest endian-stable; compilers fold them
    // into single loads on little-endian hosts.
    const std::uint32_t lo = load_le32(p, 4) ^ crc;
    const std::uint32_t hi = load_le32(p + 4, 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^ t[5][(lo >> 16) & 0xffu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
          t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = (crc >> 8) ^ t[0][(crc ^ static_cast<std::uint32_t>(*p++)) & 0xffu];
  }
  return crc;
}

std::uint32_t crc32c_soft_impl(const std::byte* p, std::size_t len, std::uint32_t seed) {
  return ~crc32c_soft_raw(p, len, ~seed);
}

#if defined(RLIR_HW_CRC_X86)
__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw_impl(const std::byte* p,
                                                               std::size_t len,
                                                               std::uint32_t seed) {
  std::uint64_t crc64 = ~seed;
  while (len >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);  // x86-64 is little-endian; bytes land in stream order
    crc64 = _mm_crc32_u64(crc64, word);
    p += 8;
    len -= 8;
  }
  auto crc = static_cast<std::uint32_t>(crc64);
  while (len-- > 0) {
    crc = _mm_crc32_u8(crc, static_cast<std::uint8_t>(*p++));
  }
  return ~crc;
}

bool crc32c_hw_usable() { return __builtin_cpu_supports("sse4.2") != 0; }
#elif defined(RLIR_HW_CRC_ARM)
std::uint32_t crc32c_hw_impl(const std::byte* p, std::size_t len, std::uint32_t seed) {
  std::uint32_t crc = ~seed;
  while (len >= 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, 8);
    crc = __crc32cd(crc, word);
    p += 8;
    len -= 8;
  }
  while (len-- > 0) {
    crc = __crc32cb(crc, static_cast<std::uint8_t>(*p++));
  }
  return ~crc;
}

// __ARM_FEATURE_CRC32 means the baseline -march already requires the
// extension, so any CPU this binary runs on has it.
bool crc32c_hw_usable() { return true; }
#else
std::uint32_t crc32c_hw_impl(const std::byte* p, std::size_t len, std::uint32_t seed) {
  return crc32c_soft_impl(p, len, seed);
}

bool crc32c_hw_usable() { return false; }
#endif

using CrcFn = std::uint32_t (*)(const std::byte*, std::size_t, std::uint32_t);

/// The implementation behind crc32c(), picked once from the CPU's features.
const CrcFn g_crc32c_fn = crc32c_hw_usable() ? &crc32c_hw_impl : &crc32c_soft_impl;

}  // namespace

std::uint32_t jenkins_lookup3(std::span<const std::byte> data, std::uint32_t seed) {
  std::uint32_t a = 0xdeadbeef + static_cast<std::uint32_t>(data.size()) + seed;
  std::uint32_t b = a;
  std::uint32_t c = a;

  const std::byte* p = data.data();
  std::size_t len = data.size();
  while (len > 12) {
    a += load_le32(p, 4);
    b += load_le32(p + 4, 4);
    c += load_le32(p + 8, 4);
    lookup3_mix(a, b, c);
    p += 12;
    len -= 12;
  }
  if (len == 0) return c;
  if (len > 8) {
    a += load_le32(p, 4);
    b += load_le32(p + 4, 4);
    c += load_le32(p + 8, len - 8);
  } else if (len > 4) {
    a += load_le32(p, 4);
    b += load_le32(p + 4, len - 4);
  } else {
    a += load_le32(p, len);
  }
  lookup3_final(a, b, c);
  return c;
}

std::uint32_t crc32c(std::span<const std::byte> data, std::uint32_t seed) {
  return g_crc32c_fn(data.data(), data.size(), seed);
}

std::uint32_t crc32c_software(std::span<const std::byte> data, std::uint32_t seed) {
  return crc32c_soft_impl(data.data(), data.size(), seed);
}

bool crc32c_hardware_available() { return crc32c_hw_usable(); }

}  // namespace rlir::net
