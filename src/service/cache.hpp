// Bounded LRU caches of analysis shards and merged answers for the archive
// service.
//
// SnapshotCache keys are (partition id, data generation): a partition
// rewritten by compaction gets a new data generation, so entries for the old
// bytes are simply unreachable — generation-keyed invalidation without any
// epoch bookkeeping.  The writer additionally calls purge() after each
// publish to reclaim the bytes of entries for partitions the new manifest
// dropped.
//
// Both caches keep one rule: one mutex and one LRU list bounded by
// capacity_bytes (the memo also by max_entries).  An insert evicts the
// coldest entries until the new one fits; only an entry larger than the
// whole capacity is rejected (the service then serves it by rebuilding
// every time — correct, just uncached; the cache-bounds test pins that
// degradation).  What stays resident is a function of the request order
// alone, never of measured times.
//
// Values are shared_ptr<const core::Analysis>: readers keep their reference
// across an eviction, so eviction never invalidates an answer in flight.
//
// Counter reconciliation invariant (checked by tests):
//   insertions == entries + evictions + purged
// and hits + misses == lookups.
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/analysis.hpp"

namespace mlio::service {

struct CacheKey {
  std::uint64_t partition_id = 0;
  std::uint64_t data_generation = 0;
  bool operator==(const CacheKey&) const = default;
};

/// Monotonic counters describing the cache's whole life (snapshot taken
/// under the cache's lock, so the reconciliation invariant holds exactly).
struct CacheCounters {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t insertions = 0;
  std::uint64_t evictions = 0;
  std::uint64_t rejected = 0;  ///< entries larger than the whole capacity, never cached
  std::uint64_t purged = 0;    ///< entries dropped by a publish-time purge
  std::uint64_t entries = 0;   ///< resident entries right now
  std::uint64_t bytes_used = 0;
  /// MergedResultCache lookups that missed but returned a shorter resident
  /// prefix to extend (a subset of misses).  Always 0 for SnapshotCache.
  std::uint64_t prefix_hits = 0;
};

class SnapshotCache {
 public:
  struct Options {
    std::uint64_t capacity_bytes = 256ull << 20;
  };

  explicit SnapshotCache(const Options& opts);

  /// nullptr on miss; a hit refreshes the entry's LRU position.
  std::shared_ptr<const core::Analysis> get(const CacheKey& key);

  /// The entry, without counting a lookup or touching recency — the
  /// compaction carry reads its inputs this way.  nullptr on miss.
  std::shared_ptr<const core::Analysis> peek(const CacheKey& key);

  /// Offer an entry; `size_bytes` is its budget charge
  /// (core::serialized_analysis_bytes).  Evicts the coldest entries until it
  /// fits; returns false (rejected) only when it exceeds the whole capacity.
  /// Re-inserting a resident key refreshes its LRU position and returns
  /// true without counting an insertion.
  bool insert(const CacheKey& key, std::shared_ptr<const core::Analysis> value,
              std::uint64_t size_bytes);

  /// Drop every entry for which `stale` returns true (the service passes
  /// "not referenced by the current manifest").  Returns the number dropped.
  std::size_t purge(const std::function<bool(const CacheKey&)>& stale);

  CacheCounters counters() const;
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const;
  };

 private:
  struct Entry {
    CacheKey key;
    std::shared_ptr<const core::Analysis> value;
    std::uint64_t size_bytes = 0;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::unordered_map<CacheKey, std::list<Entry>::iterator, KeyHash> index_;
  std::uint64_t capacity_bytes_;
  std::uint64_t bytes_used_ = 0;
  CacheCounters counters_;
};

/// One memoized answer: the left fold of an ordered run of partitions, its
/// fingerprint, and the identity it folded.
struct MergedResult {
  std::shared_ptr<const core::Analysis> analysis;
  std::uint64_t fingerprint = 0;
  /// (partition id, data generation) in manifest order — exactly the shards
  /// folded, in the order they were folded.  This is the memo key: a whole
  /// get folds the full partition list, a windowed get a suffix of it, and
  /// equal identities are equal answers whatever the manifest generation.
  /// The prefix-validity rule (DESIGN.md §12) matches against it too: a
  /// request whose identity starts with this one can extend the answer
  /// incrementally, because the merge is a left fold.
  std::vector<CacheKey> identity;
};

/// Bounded LRU memo of merged answers keyed by the identity they folded —
/// the service-level generation-delta cache (DESIGN.md §12), shared by
/// whole-archive and windowed gets.  A warm get against an unchanged
/// identity is one lookup here instead of P shard resolutions + P merges;
/// after an append, the lookup hands back the longest resident prefix to
/// extend.  Shares the SnapshotCache's rule (one lock, byte-bounded LRU,
/// publish-time purge, the same counter reconciliation invariants) and is
/// also bounded by an entry count.  Resident answers are few, so a linear
/// scan suffices.
class MergedResultCache {
 public:
  struct Options {
    /// 0 disables the cache entirely (every get merges, linear in the
    /// partition count).
    std::uint64_t capacity_bytes = 64ull << 20;
    /// Resident answers kept (LRU beyond this evicts regardless of bytes);
    /// a handful covers the live whole and windowed answers plus pinned
    /// stragglers.
    std::size_t max_entries = 4;
  };

  explicit MergedResultCache(const Options& opts);

  bool enabled() const { return capacity_bytes_ > 0; }

  /// The resident answer with the LONGEST non-empty identity that is a
  /// prefix of `identity`; a full-length match is an exact hit (an empty
  /// identity matches only exactly).  nullptr when nothing matches.  Counts
  /// one lookup: a hit when exact, else a miss (plus a prefix_hit when a
  /// shorter prefix came back).  A returned entry moves to the LRU front.
  std::shared_ptr<const MergedResult> lookup(std::span<const CacheKey> identity);

  /// Offer an answer.  `size_bytes` is core::serialized_analysis_bytes of
  /// the merged analysis.  `base` is the resident answer `value` extends, if
  /// any: it is superseded, so it is evicted first, then the coldest
  /// entries until `value` fits in bytes and count.  Returns false
  /// (rejected, the base stays) only when `value` exceeds the whole
  /// capacity.  Re-inserting a resident identity refreshes recency only.
  bool insert(std::shared_ptr<const MergedResult> value, std::uint64_t size_bytes,
              const MergedResult* base = nullptr);

  /// Drop every entry whose identity names a key for which `dead` returns
  /// true (the service passes "not in the current manifest").  Returns the
  /// number dropped.
  std::size_t purge(const std::function<bool(const CacheKey&)>& dead);

  CacheCounters counters() const;
  std::uint64_t capacity_bytes() const { return capacity_bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const MergedResult> value;
    std::uint64_t size_bytes = 0;
  };

  mutable std::mutex mu_;
  std::list<Entry> lru_;  ///< front = most recent
  std::uint64_t capacity_bytes_;
  std::size_t max_entries_;
  std::uint64_t bytes_used_ = 0;
  CacheCounters counters_;
};

}  // namespace mlio::service
