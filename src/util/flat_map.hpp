// Flat hash map from 64-bit keys: the per-job tables of the analysis state
// and a Darshan log's record-id -> path map.
//
// Entries live in one vector in insertion order; an open-addressing index
// (linear probing over a power-of-two table of entry positions) finds them.
// Both are contiguous, so a copy is two vector copies and a walk touches
// only live entries.  There is no erase.  Any insertion may invalidate
// references and iterators.  Iteration order is insertion order, so a
// caller that needs canonical bytes sorts what it writes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace mlio::util {

template <class V>
class FlatU64Map {
 public:
  using value_type = std::pair<std::uint64_t, V>;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  /// Room for `n` entries with no further rehash.
  void reserve(std::size_t n) {
    entries_.reserve(n);
    if (2 * n > index_.size()) rehash(2 * n);
  }

  /// Empties the map and keeps its storage for reuse.  The cost follows the
  /// entries, not the index: a map reused per log keeps the index one large
  /// log grew, and the small logs after it must not pay to wipe all of it.
  void clear() {
    if (8 * entries_.size() < index_.size()) {
      // Each entry's slot lies on the probe run from its home; the walk
      // matches positions, so slots already emptied are stepped over.
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        std::size_t s = home(entries_[i].first);
        while (index_[s] != i) s = (s + 1) & mask();
        index_[s] = kEmpty;
      }
    } else {
      std::fill(index_.begin(), index_.end(), kEmpty);
    }
    entries_.clear();
  }

  /// The value under `key`, or null.
  const V* find(std::uint64_t key) const {
    if (index_.empty()) return nullptr;
    for (std::size_t s = home(key); index_[s] != kEmpty; s = (s + 1) & mask()) {
      const value_type& e = entries_[index_[s]];
      if (e.first == key) return &e.second;
    }
    return nullptr;
  }

  /// The value under `key`, constructed from `args` only if `key` is new.
  /// Returns it and whether it was inserted.
  template <class... Args>
  std::pair<V*, bool> try_emplace(std::uint64_t key, Args&&... args) {
    if (2 * (entries_.size() + 1) > index_.size()) rehash(2 * (entries_.size() + 1));
    std::size_t s = home(key);
    for (; index_[s] != kEmpty; s = (s + 1) & mask()) {
      value_type& e = entries_[index_[s]];
      if (e.first == key) return {&e.second, false};
    }
    MLIO_ASSERT(entries_.size() < kEmpty);
    index_[s] = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    return {&entries_.back().second, true};
  }

  V& operator[](std::uint64_t key) { return *try_emplace(key).first; }

  /// Same keys under equal values, whatever the insertion order.
  friend bool operator==(const FlatU64Map& a, const FlatU64Map& b) {
    if (a.size() != b.size()) return false;
    for (const value_type& e : a.entries_) {
      const V* v = b.find(e.first);
      if (v == nullptr || !(*v == e.second)) return false;
    }
    return true;
  }

 private:
  static constexpr std::uint32_t kEmpty = ~std::uint32_t{0};

  std::size_t mask() const { return index_.size() - 1; }
  /// Fibonacci hashing: the top bits of key × 2^64/φ, so sequential job ids
  /// spread over the whole table.
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }

  /// Rebuilds the index with at least `slots` slots (a power of two, >= 16).
  void rehash(std::size_t slots) {
    std::size_t size = 16;
    unsigned bits = 4;
    while (size < slots) {
      size *= 2;
      bits += 1;
    }
    index_.assign(size, kEmpty);
    shift_ = 64 - bits;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::size_t s = home(entries_[i].first);
      while (index_[s] != kEmpty) s = (s + 1) & mask();
      index_[s] = static_cast<std::uint32_t>(i);
    }
  }

  std::vector<value_type> entries_;
  /// Entry positions; kEmpty marks a free slot.  Empty until first insert.
  std::vector<std::uint32_t> index_;
  unsigned shift_ = 64;
};

}  // namespace mlio::util
