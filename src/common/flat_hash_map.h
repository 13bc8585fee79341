// Open-addressing hash map with dense storage, built for the collector's
// per-flow tables. Beyond collect/ (collector, history, exporter), it is
// every per-flow accumulator on the measurement path (rli::FlowStatsMap:
// RLI/RLIR receivers, ground-truth taps, the experiment harness) and each
// prefix length's rule table in net::PrefixTable.
//
// std::unordered_map pays a heap node per entry and a pointer chase per
// lookup; on the ingest hot path (one lookup+insert per record, hundreds of
// thousands of records per second) that is the dominant cache-miss source.
// This map splits the classic flat-map design in two:
//
//   * a dense std::vector of entries — iteration is a linear scan, inserts
//     are a push_back, memory is 1 allocation amortized;
//   * a power-of-two slot table of u32 indexes into the dense vector,
//     linear-probed — lookups touch one cache line of slots, then the entry.
//
// Erase is swap-and-pop on the dense vector (order is NOT preserved; callers
// that need ordered output sort, which the exporter already does). The slot
// table uses tombstones, purged on the next rehash.
//
// API is the std::unordered_map subset those users need: operator[],
// at, find, contains, try_emplace, erase(key), erase(iterator) (returns an
// iterator that REVISITS the erased position — the swapped-in entry — so
// `it = m.erase(it)` loops visit every entry exactly once), begin/end, size,
// empty, clear, reserve. Iterators yield std::pair<Key, Value>&; treat the
// key as const (mutating it corrupts the index, same contract as any flat
// map). Inserting invalidates iterators/references (vector growth); erase
// invalidates only the erased and last entries'.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

namespace rlir::common {

template <typename Key, typename Value, typename Hash = std::hash<Key>,
          typename KeyEqual = std::equal_to<Key>>
class FlatHashMap {
 public:
  using value_type = std::pair<Key, Value>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  FlatHashMap() = default;

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }

  [[nodiscard]] iterator begin() { return entries_.begin(); }
  [[nodiscard]] iterator end() { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const { return entries_.begin(); }
  [[nodiscard]] const_iterator end() const { return entries_.end(); }

  void clear() {
    entries_.clear();
    slots_.assign(slots_.size(), kEmpty);
    tombstones_ = 0;
  }

  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (slot_budget(slots_.size()) < n) rebuild(slot_count_for(n));
  }

  [[nodiscard]] iterator find(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return entries_.end();
    return entries_.begin() + slots_[slot];
  }
  [[nodiscard]] const_iterator find(const Key& key) const {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return entries_.end();
    return entries_.begin() + slots_[slot];
  }
  [[nodiscard]] bool contains(const Key& key) const { return find_slot(key) != kNoSlot; }

  [[nodiscard]] Value& at(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatHashMap::at: key not found");
    return entries_[slots_[slot]].second;
  }
  [[nodiscard]] const Value& at(const Key& key) const {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) throw std::out_of_range("FlatHashMap::at: key not found");
    return entries_[slots_[slot]].second;
  }

  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Key& key, Args&&... args) {
    grow_if_needed();
    const auto [slot, existing] = probe_for_insert(key);
    if (existing) return {entries_.begin() + slots_[slot], false};
    if (slots_[slot] == kTombstone) --tombstones_;
    slots_[slot] = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {entries_.end() - 1, true};
  }

  Value& operator[](const Key& key) { return try_emplace(key).first->second; }

  /// Removes the entry at `pos` by swapping the last entry into its place.
  /// Returns an iterator at the same dense position (now the swapped-in
  /// entry, or end() if `pos` was last).
  iterator erase(const_iterator pos) {
    const auto index = static_cast<std::size_t>(pos - entries_.cbegin());
    const std::size_t slot = find_slot(entries_[index].first);
    slots_[slot] = kTombstone;
    ++tombstones_;
    const std::size_t last = entries_.size() - 1;
    if (index != last) {
      const std::size_t moved_slot = find_slot(entries_[last].first);
      entries_[index] = std::move(entries_[last]);
      slots_[moved_slot] = static_cast<std::uint32_t>(index);
    }
    entries_.pop_back();
    return entries_.begin() + static_cast<std::ptrdiff_t>(index);
  }

  std::size_t erase(const Key& key) {
    const std::size_t slot = find_slot(key);
    if (slot == kNoSlot) return 0;
    erase(entries_.cbegin() + slots_[slot]);
    return 1;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static constexpr std::uint32_t kTombstone = 0xfffffffeu;
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinSlots = 16;

  /// Max entries a slot table of `slots` supports (7/8 load, tombstones
  /// included) — past this, probe chains degrade.
  [[nodiscard]] static std::size_t slot_budget(std::size_t slots) { return slots - slots / 8; }

  [[nodiscard]] static std::size_t slot_count_for(std::size_t entries) {
    std::size_t slots = kMinSlots;
    while (slot_budget(slots) < entries + 1) slots *= 2;
    return slots;
  }

  /// Slot currently mapping `key`, or kNoSlot.
  [[nodiscard]] std::size_t find_slot(const Key& key) const {
    if (slots_.empty()) return kNoSlot;
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = Hash{}(key) & mask;
    for (;;) {
      const std::uint32_t v = slots_[slot];
      if (v == kEmpty) return kNoSlot;
      if (v != kTombstone && KeyEqual{}(entries_[v].first, key)) return slot;
      slot = (slot + 1) & mask;  // a tombstone bridges the probe chain
    }
  }

  /// Slot to insert `key` at (first tombstone on the probe path, else the
  /// terminating empty), or the slot already holding it ({slot, true}).
  [[nodiscard]] std::pair<std::size_t, bool> probe_for_insert(const Key& key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = Hash{}(key) & mask;
    std::size_t first_tombstone = kNoSlot;
    for (;;) {
      const std::uint32_t v = slots_[slot];
      if (v == kEmpty) {
        return {first_tombstone == kNoSlot ? slot : first_tombstone, false};
      }
      if (v == kTombstone) {
        if (first_tombstone == kNoSlot) first_tombstone = slot;
      } else if (KeyEqual{}(entries_[v].first, key)) {
        return {slot, true};
      }
      slot = (slot + 1) & mask;
    }
  }

  void grow_if_needed() {
    if (slots_.empty()) {
      rebuild(kMinSlots);
      return;
    }
    // Count live entries AND tombstones against the budget: a probe chain
    // doesn't care which kind of non-empty slot it crawls over.
    if (entries_.size() + tombstones_ + 1 > slot_budget(slots_.size())) {
      // Grow only if live entries need it; otherwise same size (purges
      // tombstones accumulated by erase-heavy workloads).
      rebuild(slot_count_for(entries_.size()));
    }
  }

  void rebuild(std::size_t slot_count) {
    slots_.assign(slot_count, kEmpty);
    tombstones_ = 0;
    const std::size_t mask = slot_count - 1;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t slot = Hash{}(entries_[i].first) & mask;
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask;
      slots_[slot] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<value_type> entries_;
  std::vector<std::uint32_t> slots_;
  std::size_t tombstones_ = 0;
};

}  // namespace rlir::common
