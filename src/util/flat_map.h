// Flat, insertion-ordered hash map for per-window hot paths.
//
// The incremental modeler and the ingest sanitizer fill per-window tables
// at event rate and empty them at every window close. A node container
// allocates on every insert and frees on every clear; `FlatMap` keeps two
// flat buffers instead (the entries, densely in first-insertion order, and
// an open-addressing probe array of entry positions) and empties them by
// `recycle()`, so a window no larger than one the table has already held
// inserts without allocating.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

namespace flowdiff {

/// Empties `buffer` for the next window, keeping its capacity. The one
/// release rule: a buffer whose capacity exceeds 4x what the closing window
/// used is freed instead, so a single burst window cannot pin its peak.
template <typename T>
void recycle(std::vector<T>& buffer) {
  if (buffer.capacity() > 4 * buffer.size()) {
    std::vector<T>().swap(buffer);
  } else {
    buffer.clear();
  }
}

/// Open-addressing hash map (linear probing, load factor <= 1/2) with no
/// erase: it only grows until clear(). An entry's position is a dense id in
/// first-insertion order, stable until clear(), and iteration visits the
/// entries in that order. Positions are 32-bit. Inserting may move the
/// entries, so hold positions, not references, across inserts.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class FlatMap {
 public:
  struct Entry {
    Key key;
    Value value;
  };
  static constexpr std::uint32_t npos =
      std::numeric_limits<std::uint32_t>::max();

  /// Position of `key`, or npos.
  [[nodiscard]] std::uint32_t find(const Key& key) const {
    if (slots_.empty()) return npos;
    for (std::size_t s = home(key);; s = (s + 1) & mask()) {
      const std::uint32_t pos = slots_[s];
      if (pos == npos || entries_[pos].key == key) return pos;
    }
  }

  /// Position of `key`, appending {key, Value{}} when absent; the flag is
  /// true when it was inserted.
  std::pair<std::uint32_t, bool> insert(const Key& key) {
    if (2 * (entries_.size() + 1) > slots_.size()) {
      rehash(2 * (entries_.size() + 1));
    }
    std::size_t s = home(key);
    for (;; s = (s + 1) & mask()) {
      const std::uint32_t pos = slots_[s];
      if (pos == npos) break;
      if (entries_[pos].key == key) return {pos, false};
    }
    const auto pos = static_cast<std::uint32_t>(entries_.size());
    slots_[s] = pos;
    entries_.push_back(Entry{key, Value{}});
    return {pos, true};
  }

  Value& operator[](const Key& key) {
    return entries_[insert(key).first].value;
  }

  [[nodiscard]] Entry& at(std::uint32_t pos) { return entries_[pos]; }
  [[nodiscard]] const Entry& at(std::uint32_t pos) const {
    return entries_[pos];
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  /// Entries the buffers hold without growing.
  [[nodiscard]] std::size_t capacity() const { return entries_.capacity(); }

  auto begin() { return entries_.begin(); }
  auto end() { return entries_.end(); }
  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// Sizes both buffers for `n` entries.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (2 * n > slots_.size()) rehash(2 * n);
  }

  /// Empties the map; both buffers follow the recycle() rule.
  void clear() {
    recycle(entries_);
    if (entries_.capacity() == 0) {
      std::vector<std::uint32_t>().swap(slots_);
    } else {
      std::fill(slots_.begin(), slots_.end(), npos);
    }
  }

 private:
  [[nodiscard]] std::size_t mask() const { return slots_.size() - 1; }

  /// Fibonacci hashing: the top bits of hash * 2^64/phi pick the home
  /// slot, so integer keys with identity std::hash still spread.
  [[nodiscard]] std::size_t home(const Key& key) const {
    const auto h = static_cast<std::uint64_t>(Hash{}(key));
    return static_cast<std::size_t>((h * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Rebuilds the probe array with at least `min_slots` slots (a power of
  /// two, at least 16).
  void rehash(std::size_t min_slots) {
    const std::size_t count =
        std::bit_ceil(std::max<std::size_t>(min_slots, 16));
    slots_.assign(count, npos);
    shift_ = 64 - std::countr_zero(count);
    for (std::uint32_t pos = 0; pos < entries_.size(); ++pos) {
      std::size_t s = home(entries_[pos].key);
      while (slots_[s] != npos) s = (s + 1) & mask();
      slots_[s] = pos;
    }
  }

  std::vector<Entry> entries_;
  std::vector<std::uint32_t> slots_;
  int shift_ = 64;
};

}  // namespace flowdiff
