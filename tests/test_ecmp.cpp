// Unit tests: topo/ecmp.h — hashing, routing, and reverse-ECMP computation.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <set>

#include "common/rng.h"
#include "topo/ecmp.h"

namespace rlir::topo {
namespace {

net::FiveTuple random_key(common::Xoshiro256& rng) {
  net::FiveTuple key;
  key.src = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.dst = net::Ipv4Address(static_cast<std::uint32_t>(rng.next()));
  key.src_port = static_cast<std::uint16_t>(rng.next());
  key.dst_port = static_cast<std::uint16_t>(rng.next());
  key.proto = 6;
  return key;
}

TEST(EcmpHasher, DeterministicPerKeyAndSalt) {
  const Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(1);
  const auto key = random_key(rng);
  EXPECT_EQ(hasher.hash(key, 42), hasher.hash(key, 42));
  EXPECT_NE(hasher.hash(key, 42), hasher.hash(key, 43));
}

TEST(EcmpHasher, SelectRespectsFanout) {
  const JenkinsEcmpHasher hasher;
  common::Xoshiro256 rng(2);
  for (int i = 0; i < 1000; ++i) {
    const auto choice = hasher.select(random_key(rng), 7, 4);
    EXPECT_LT(choice, 4u);
  }
  EXPECT_EQ(hasher.select(random_key(rng), 7, 0), 0u);
}

// Known answers: the digests every simulated route and recorded workload
// depend on. Comparing against ecmp_route cannot catch a change to the
// hashed key layout (both sides would move together); these constants can.
// Distinct bytes in every field expose any reordering; the salts have both
// 32-bit halves non-zero, so swapping them shows too.
TEST(EcmpHasher, KnownAnswers) {
  struct Case {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t src_port;
    std::uint16_t dst_port;
    std::uint8_t proto;
    std::uint64_t salt;
    std::uint32_t crc32c;
    std::uint32_t jenkins;
  };
  const Case cases[] = {
      {0, 0, 0, 0, 0, 0, 0x42fbbb4cu, 0x584edb8du},
      {0, 0, 0, 0, 0, 0x9e3779b97f4a7c15ull, 0x0e3358abu, 0xbd5e6ab3u},
      {0xffffffffu, 0xffffffffu, 0xffff, 0xffff, 0xff, ~std::uint64_t{0}, 0x46fa9d02u,
       0x3b4896b2u},
      {0x01020304u, 0x05060708u, 0x090a, 0x0b0c, 0x0d, 0x1112131415161718ull, 0x5f184a36u,
       0x03f06229u},
      {0x0a000102u, 0x0a030005u, 40000, 80, 6, 0x0000000100000002ull, 0xbfec1f13u,
       0x0c84005au},
  };
  const Crc32EcmpHasher crc;
  const JenkinsEcmpHasher jenkins;
  for (const Case& c : cases) {
    net::FiveTuple key;
    key.src = net::Ipv4Address(c.src);
    key.dst = net::Ipv4Address(c.dst);
    key.src_port = c.src_port;
    key.dst_port = c.dst_port;
    key.proto = c.proto;
    EXPECT_EQ(crc.hash(key, c.salt), c.crc32c) << key.to_string();
    EXPECT_EQ(jenkins.hash(key, c.salt), c.jenkins) << key.to_string();
  }
}

TEST(EcmpHasher, Names) {
  EXPECT_EQ(Crc32EcmpHasher{}.name(), "crc32c");
  EXPECT_EQ(JenkinsEcmpHasher{}.name(), "jenkins");
  EXPECT_EQ(XorFoldEcmpHasher{}.name(), "xorfold");
}

TEST(RouterSalt, DistinctPerNode) {
  const FatTree topo(4);
  std::set<std::uint64_t> salts;
  for (std::size_t i = 0; i < static_cast<std::size_t>(topo.switch_count()); ++i) {
    salts.insert(router_salt(topo, topo.from_flat_index(i)));
  }
  EXPECT_EQ(salts.size(), static_cast<std::size_t>(topo.switch_count()));
}

TEST(EcmpRoute, SameTorIsTrivial) {
  const FatTree topo(4);
  const Crc32EcmpHasher hasher;
  net::FiveTuple key;
  const auto route = ecmp_route(topo, hasher, key, topo.tor(0, 0), topo.tor(0, 0));
  ASSERT_EQ(route.size(), 1u);
}

TEST(EcmpRoute, SamePodRoutesViaOneEdge) {
  const FatTree topo(4);
  const Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 200; ++i) {
    const auto route =
        ecmp_route(topo, hasher, random_key(rng), topo.tor(1, 0), topo.tor(1, 1));
    ASSERT_EQ(route.size(), 3u);
    EXPECT_EQ(route[1].tier, Tier::kEdge);
    EXPECT_EQ(route[1].pod, 1);
  }
}

TEST(EcmpRoute, CrossPodRoutesAreValidAndDeterministic) {
  const FatTree topo(8);
  const Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(4);
  for (int i = 0; i < 500; ++i) {
    const auto key = random_key(rng);
    const auto route = ecmp_route(topo, hasher, key, topo.tor(0, 1), topo.tor(5, 2));
    ASSERT_EQ(route.size(), 5u);
    for (std::size_t h = 0; h + 1 < route.size(); ++h) {
      EXPECT_TRUE(topo.adjacent(route[h], route[h + 1]));
    }
    // Deterministic: same key gives the same route.
    EXPECT_EQ(ecmp_route(topo, hasher, key, topo.tor(0, 1), topo.tor(5, 2)), route);
  }
}

TEST(EcmpRoute, SpreadsAcrossAllCores) {
  const FatTree topo(4);
  const Crc32EcmpHasher hasher;
  common::Xoshiro256 rng(5);
  std::map<int, int> core_hits;
  constexpr int kN = 4000;
  for (int i = 0; i < kN; ++i) {
    const auto route =
        ecmp_route(topo, hasher, random_key(rng), topo.tor(0, 0), topo.tor(3, 0));
    ++core_hits[route[2].index];
  }
  ASSERT_EQ(core_hits.size(), 4u) << "all cores must carry traffic";
  for (const auto& [core, hits] : core_hits) {
    EXPECT_NEAR(hits, kN / 4, kN / 4 * 0.25) << "core " << core;
  }
}

TEST(EcmpRoute, XorFoldPolarizes) {
  // The deliberately linear hasher: consecutive tiers make correlated
  // choices, so traffic collapses onto a strict subset of cores — the
  // classic polarization pathology the CRC hasher's finalizer avoids.
  const FatTree topo(4);
  const XorFoldEcmpHasher hasher;
  common::Xoshiro256 rng(6);
  std::set<int> cores_used;
  for (int i = 0; i < 4000; ++i) {
    const auto route =
        ecmp_route(topo, hasher, random_key(rng), topo.tor(0, 0), topo.tor(3, 0));
    cores_used.insert(route[2].index);
  }
  EXPECT_LT(cores_used.size(), 4u);
}

TEST(ReverseEcmp, SamePodThrows) {
  const FatTree topo(4);
  const Crc32EcmpHasher hasher;
  net::FiveTuple key;
  EXPECT_THROW((void)reverse_ecmp_core(topo, hasher, key, topo.tor(0, 0), topo.tor(0, 1)),
               std::invalid_argument);
}

// The core property of Section 3.1's downstream demux: the receiver-side
// computation recovers exactly the core the forward route used — for every
// hasher and fabric size.
struct ReverseEcmpCase {
  int k;
  const char* hasher;
};

// Names each case "k<k>_<hasher>". Without it gtest prints the struct's raw
// bytes — padding and the string pointer included — so the discovered test
// names would change from one run to the next.
void PrintTo(const ReverseEcmpCase& c, std::ostream* os) {
  *os << 'k' << c.k << '_' << c.hasher;
}

class ReverseEcmpSweep : public ::testing::TestWithParam<ReverseEcmpCase> {
 protected:
  static std::unique_ptr<EcmpHasher> make_hasher(const std::string& name) {
    if (name == "crc32c") return std::make_unique<Crc32EcmpHasher>();
    if (name == "jenkins") return std::make_unique<JenkinsEcmpHasher>();
    return std::make_unique<XorFoldEcmpHasher>();
  }
};

TEST_P(ReverseEcmpSweep, MatchesForwardRoute) {
  const auto [k, hasher_name] = GetParam();
  const FatTree topo(k);
  const auto hasher = make_hasher(hasher_name);
  common::Xoshiro256 rng(7);
  const auto src = topo.tor(0, 0);
  const auto dst = topo.tor(k - 1, k / 2 - 1);
  for (int i = 0; i < 500; ++i) {
    const auto key = random_key(rng);
    const auto route = ecmp_route(topo, *hasher, key, src, dst);
    const auto inferred = reverse_ecmp_core(topo, *hasher, key, src, dst);
    EXPECT_EQ(route[2], inferred);
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, ReverseEcmpSweep,
                         ::testing::Values(ReverseEcmpCase{4, "crc32c"},
                                           ReverseEcmpCase{4, "jenkins"},
                                           ReverseEcmpCase{4, "xorfold"},
                                           ReverseEcmpCase{8, "crc32c"},
                                           ReverseEcmpCase{16, "crc32c"}));

}  // namespace
}  // namespace rlir::topo
