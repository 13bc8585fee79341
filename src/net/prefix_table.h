// Longest-prefix-match table over IPv4 prefixes.
//
// One exact-match hash table per prefix length in use, kept longest first:
// a lookup masks the address to each length in turn and returns the first
// hit, so it costs one probe per distinct length. Demultiplexer tables use
// one or two lengths (a /24 per ToR block, /16 address pools); a table
// spread over many lengths would cost more probes than a bitwise trie's
// 32-step walk.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_hash_map.h"
#include "net/hash.h"
#include "net/ipv4.h"

namespace rlir::net {

template <typename T>
class PrefixTable {
 public:
  /// Inserts or overwrites the value for a prefix.
  void insert(const Ipv4Prefix& prefix, T value) {
    auto& rules = level_for(prefix).rules;
    const std::uint32_t base = prefix.base().value();
    if (const auto it = rules.find(base); it != rules.end()) {
      it->second = std::move(value);
    } else {
      rules.try_emplace(base, std::move(value));
    }
  }

  /// Longest-prefix match; nullopt when no inserted prefix covers `addr`.
  [[nodiscard]] std::optional<T> lookup(Ipv4Address addr) const {
    const T* p = lookup_ptr(addr);
    if (p == nullptr) return std::nullopt;
    return *p;
  }

  /// Pointer form of lookup (no copy); nullptr when there is no match.
  /// The pointer is invalidated by the next insert.
  [[nodiscard]] const T* lookup_ptr(Ipv4Address addr) const {
    for (const Level& level : levels_) {
      const auto it = level.rules.find(addr.value() & level.mask);
      if (it != level.rules.end()) return &it->second;
    }
    return nullptr;
  }

  /// Exact-match retrieval of a previously inserted prefix.
  [[nodiscard]] std::optional<T> find_exact(const Ipv4Prefix& prefix) const {
    const auto level = std::find_if(levels_.begin(), levels_.end(), [&](const Level& l) {
      return l.length == prefix.length();
    });
    if (level == levels_.end()) return std::nullopt;
    const auto it = level->rules.find(prefix.base().value());
    if (it == level->rules.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::size_t size() const {
    std::size_t n = 0;
    for (const Level& level : levels_) n += level.rules.size();
    return n;
  }
  [[nodiscard]] bool empty() const { return levels_.empty(); }

 private:
  /// Masked bases have all-zero low bits and the flat map masks the hash to
  /// a power-of-two slot table, so the hash must mix high bits down.
  struct BaseHash {
    std::size_t operator()(std::uint32_t base) const {
      return static_cast<std::size_t>(mix64(base));
    }
  };

  struct Level {
    std::uint8_t length;
    std::uint32_t mask;
    common::FlatHashMap<std::uint32_t, T, BaseHash> rules;
  };

  /// The level holding `prefix`'s length, created in descending-length
  /// position on first use.
  Level& level_for(const Ipv4Prefix& prefix) {
    const auto at = std::find_if(levels_.begin(), levels_.end(), [&](const Level& level) {
      return level.length <= prefix.length();
    });
    if (at != levels_.end() && at->length == prefix.length()) return *at;
    return *levels_.insert(at, Level{prefix.length(), prefix.mask(), {}});
  }

  /// Non-empty levels, longest prefix length first.
  std::vector<Level> levels_;
};

}  // namespace rlir::net
