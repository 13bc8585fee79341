// Unit tests: net/prefix_table.h — longest-prefix-match table.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "common/rng.h"
#include "net/prefix_table.h"

namespace rlir::net {
namespace {

TEST(PrefixTable, EmptyTableMatchesNothing) {
  const PrefixTable<int> table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_FALSE(table.lookup(Ipv4Address(1, 2, 3, 4)));
  EXPECT_EQ(table.lookup_ptr(Ipv4Address(1, 2, 3, 4)), nullptr);
}

TEST(PrefixTable, ExactPrefixMatch) {
  PrefixTable<std::string> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), "tor-a");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 3)), "tor-a");
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 2, 0, 0)));
  EXPECT_EQ(table.size(), 1u);
}

TEST(PrefixTable, LongestPrefixWins) {
  PrefixTable<std::string> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8), "wide");
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), "mid");
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 2, 0), 24), "narrow");

  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 2, 99)), "narrow");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 1, 9, 9)), "mid");
  EXPECT_EQ(table.lookup(Ipv4Address(10, 200, 0, 1)), "wide");
  EXPECT_FALSE(table.lookup(Ipv4Address(11, 0, 0, 1)));
}

TEST(PrefixTable, DefaultRoute) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(0u), 0), -1);
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8), 10);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 5, 5, 5)), 10);
  EXPECT_EQ(table.lookup(Ipv4Address(99, 9, 9, 9)), -1);
}

TEST(PrefixTable, InsertOverwrites) {
  PrefixTable<int> table;
  const Ipv4Prefix p(Ipv4Address(10, 0, 0, 0), 8);
  table.insert(p, 1);
  table.insert(p, 2);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 1)), 2);
}

TEST(PrefixTable, HostRoutes) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 1), 32), 1);
  table.insert(Ipv4Prefix(Ipv4Address(10, 0, 0, 2), 32), 2);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 1)), 1);
  EXPECT_EQ(table.lookup(Ipv4Address(10, 0, 0, 2)), 2);
  EXPECT_FALSE(table.lookup(Ipv4Address(10, 0, 0, 3)));
}

TEST(PrefixTable, FindExact) {
  PrefixTable<int> table;
  table.insert(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16), 7);
  EXPECT_EQ(table.find_exact(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 16)), 7);
  // Covering/covered prefixes are not exact matches.
  EXPECT_FALSE(table.find_exact(Ipv4Prefix(Ipv4Address(10, 1, 0, 0), 24)));
  EXPECT_FALSE(table.find_exact(Ipv4Prefix(Ipv4Address(10, 0, 0, 0), 8)));
}

// Regression: inserting many prefixes reallocates the table's storage; every
// rule must survive (this once hid a use-after-free on vector growth).
TEST(PrefixTable, ManyInsertsSurviveReallocation) {
  PrefixTable<int> table;
  for (int pod = 0; pod < 48; ++pod) {
    for (int tor = 0; tor < 24; ++tor) {
      table.insert(Ipv4Prefix(Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                          static_cast<std::uint8_t>(tor), 0),
                              24),
                   pod * 100 + tor);
    }
  }
  EXPECT_EQ(table.size(), 48u * 24u);
  for (int pod = 0; pod < 48; ++pod) {
    for (int tor = 0; tor < 24; ++tor) {
      const auto hit = table.lookup(Ipv4Address(10, static_cast<std::uint8_t>(pod),
                                                static_cast<std::uint8_t>(tor), 9));
      ASSERT_TRUE(hit);
      EXPECT_EQ(*hit, pod * 100 + tor);
    }
  }
}

// Property: the table agrees with brute-force LPM over random rule sets that
// mix every length, the default route included, and find_exact hits exactly
// the inserted prefixes.
class PrefixTableRandomSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PrefixTableRandomSweep, AgreesWithBruteForce) {
  common::Xoshiro256 rng(GetParam());
  PrefixTable<std::size_t> table;
  std::vector<Ipv4Prefix> rules;
  for (int i = 0; i < 200; ++i) {
    const auto len = static_cast<std::uint8_t>(rng.uniform_u64(33));  // /0../32
    const Ipv4Prefix p(Ipv4Address(static_cast<std::uint32_t>(rng.next())), len);
    // Skip duplicates (insert would overwrite; brute force keeps first).
    bool dup = false;
    for (const auto& r : rules) dup = dup || r == p;
    if (dup) continue;
    table.insert(p, rules.size());
    rules.push_back(p);
  }

  for (int i = 0; i < 2000; ++i) {
    const Ipv4Address addr(static_cast<std::uint32_t>(rng.next()));
    // Brute force: the longest rule containing addr.
    int best = -1;
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r].contains(addr) &&
          (best < 0 || rules[r].length() > rules[static_cast<std::size_t>(best)].length())) {
        best = static_cast<int>(r);
      }
    }
    const auto got = table.lookup(addr);
    if (best < 0) {
      EXPECT_FALSE(got);
    } else {
      ASSERT_TRUE(got);
      EXPECT_EQ(rules[*got].length(), rules[static_cast<std::size_t>(best)].length());
      EXPECT_TRUE(rules[*got].contains(addr));
    }
  }

  const auto inserted = [&](const Ipv4Prefix& p) -> std::optional<std::size_t> {
    for (std::size_t r = 0; r < rules.size(); ++r) {
      if (rules[r] == p) return r;
    }
    return std::nullopt;
  };
  for (std::size_t r = 0; r < rules.size(); ++r) {
    EXPECT_EQ(table.find_exact(rules[r]), r);
    // The same base one bit shorter and one bit longer: a miss unless that
    // prefix was inserted too.
    for (const int delta : {-1, 1}) {
      const int len = rules[r].length() + delta;
      if (len < 0 || len > 32) continue;
      const Ipv4Prefix near(rules[r].base(), static_cast<std::uint8_t>(len));
      EXPECT_EQ(table.find_exact(near), inserted(near)) << near.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrefixTableRandomSweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace rlir::net
