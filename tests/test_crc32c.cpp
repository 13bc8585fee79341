// CRC-32C: crc32c() (the hardware instruction where the CPU has one) and
// the software fallback must be indistinguishable byte-for-byte — same
// digests on standard vectors, random buffers, and the adversarial shapes
// (empty, unaligned, >64KiB) a transport frame can present — and both must
// match the bit-at-a-time definition.
#include "net/hash.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <span>
#include <string_view>
#include <vector>

namespace rlir::net {
namespace {

std::span<const std::byte> bytes_of(std::string_view text) {
  return std::as_bytes(std::span<const char>(text.data(), text.size()));
}

/// Bit-at-a-time reference (the definition, independent of both shipped
/// implementations).
std::uint32_t crc32c_reference(std::span<const std::byte> data, std::uint32_t seed = 0) {
  constexpr std::uint32_t kPoly = 0x82f63b78u;
  std::uint32_t crc = ~seed;
  for (const std::byte b : data) {
    crc ^= static_cast<std::uint32_t>(b);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
  }
  return ~crc;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::byte> buf(n);
  for (auto& b : buf) b = static_cast<std::byte>(rng() & 0xff);
  return buf;
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / iSCSI test vectors.
  EXPECT_EQ(crc32c_software(bytes_of("123456789")), 0xe3069283u);
  const std::vector<std::byte> zeros(32, std::byte{0});
  EXPECT_EQ(crc32c_software(zeros), 0x8a9136aau);
  const std::vector<std::byte> ones(32, std::byte{0xff});
  EXPECT_EQ(crc32c_software(ones), 0x62a8ab43u);
}

TEST(Crc32c, SoftwareMatchesBitwiseReference) {
  for (const std::size_t n : {0u, 1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 63u, 64u, 255u, 1021u}) {
    const auto buf = random_bytes(n, 0x5eed + n);
    EXPECT_EQ(crc32c_software(buf), crc32c_reference(buf)) << "length " << n;
    EXPECT_EQ(crc32c_software(buf, 0xdeadbeef), crc32c_reference(buf, 0xdeadbeef))
        << "seeded, length " << n;
  }
}

TEST(Crc32c, HardwareMatchesSoftware) {
  if (!crc32c_hardware_available()) {
    GTEST_SKIP() << "no CRC instruction on this CPU/build";
  }
  // Every length around the 8-byte block boundaries, plus bulk sizes.
  for (std::size_t n = 0; n <= 40; ++n) {
    const auto buf = random_bytes(n, 0xc0ffee + n);
    EXPECT_EQ(crc32c(buf), crc32c_software(buf)) << "length " << n;
  }
  for (const std::size_t n : {4096u, 65535u, 65536u, 65537u, 262144u}) {
    const auto buf = random_bytes(n, 0xbade + n);
    EXPECT_EQ(crc32c(buf), crc32c_software(buf)) << "length " << n;
    EXPECT_EQ(crc32c(buf, 0x1234abcd), crc32c_software(buf, 0x1234abcd)) << "length " << n;
  }
}

TEST(Crc32c, HardwareMatchesSoftwareUnaligned) {
  if (!crc32c_hardware_available()) {
    GTEST_SKIP() << "no CRC instruction on this CPU/build";
  }
  const auto buf = random_bytes(4096 + 16, 0xa110d);
  for (std::size_t offset = 0; offset < 9; ++offset) {
    for (const std::size_t n : {0u, 1u, 5u, 8u, 17u, 1000u, 4096u}) {
      const std::span<const std::byte> view(buf.data() + offset, n);
      EXPECT_EQ(crc32c(view), crc32c_software(view)) << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32c, DigestsChain) {
  const auto buf = random_bytes(1000, 7);
  const std::span<const std::byte> whole(buf);
  for (const std::size_t split : {0u, 1u, 8u, 500u, 999u, 1000u}) {
    const auto head = whole.subspan(0, split);
    const auto tail = whole.subspan(split);
    EXPECT_EQ(crc32c_software(tail, crc32c_software(head)), crc32c_software(whole));
    EXPECT_EQ(crc32c(tail, crc32c(head)), crc32c(whole));
  }
}

TEST(Crc32c, MatchesBitwiseReference) {
  // Whichever implementation the CPU got, crc32c() is the definition.
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xe3069283u);
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 63u, 64u, 1021u, 1234u}) {
    const auto buf = random_bytes(n, 99 + n);
    EXPECT_EQ(crc32c(buf), crc32c_reference(buf)) << "length " << n;
    EXPECT_EQ(crc32c(buf, 0xdeadbeef), crc32c_reference(buf, 0xdeadbeef)) << "length " << n;
  }
}

}  // namespace
}  // namespace rlir::net
