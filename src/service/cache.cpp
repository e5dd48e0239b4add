#include "service/cache.hpp"

#include <algorithm>
#include <bit>

#include "util/rng.hpp"

namespace mlio::service {

std::size_t SnapshotCache::KeyHash::operator()(const CacheKey& k) const {
  std::uint64_t state = k.partition_id * 0x9e3779b97f4a7c15ull + k.data_generation;
  return static_cast<std::size_t>(util::splitmix64(state));
}

SnapshotCache::SnapshotCache(const Options& opts)
    : capacity_bytes_(opts.capacity_bytes),
      shard_capacity_(0) {
  const unsigned n = std::bit_ceil(std::max(1u, opts.shards));
  shards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  shard_capacity_ = capacity_bytes_ / n;
}

SnapshotCache::Shard& SnapshotCache::shard_of(const CacheKey& key) {
  // Generation deliberately excluded: all generations of one partition share
  // a shard, so a purge after publish touches exactly one lock per partition.
  std::uint64_t state = key.partition_id ^ 0xa24baed4963ee407ull;
  return *shards_[util::splitmix64(state) & (shards_.size() - 1)];
}

std::shared_ptr<const core::Analysis> SnapshotCache::get(const CacheKey& key) {
  Shard& s = shard_of(key);
  const std::scoped_lock lock(s.mu);
  s.counters.lookups += 1;
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    s.counters.misses += 1;
    return nullptr;
  }
  s.counters.hits += 1;
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // refresh recency
  return it->second->value;
}

std::shared_ptr<const core::Analysis> SnapshotCache::peek(const CacheKey& key,
                                                         std::uint64_t* cost_ns) {
  Shard& s = shard_of(key);
  const std::scoped_lock lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) return nullptr;
  *cost_ns = it->second->cost_ns;
  return it->second->value;
}

bool SnapshotCache::insert(const CacheKey& key, std::shared_ptr<const core::Analysis> value,
                           std::uint64_t size_bytes, std::uint64_t cost_ns) {
  Shard& s = shard_of(key);
  const std::scoped_lock lock(s.mu);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return true;  // concurrent readers raced to fill the same shard
  }
  if (size_bytes > shard_capacity_) {
    s.counters.rejected += 1;
    return false;
  }

  // Admission: walk would-be victims from the cold end; give up (reject the
  // candidate) if their combined recomputation cost exceeds the candidate's.
  std::uint64_t victim_bytes = 0;
  std::uint64_t victim_cost = 0;
  std::size_t victims = 0;
  for (auto it = s.lru.rbegin();
       s.bytes_used - victim_bytes + size_bytes > shard_capacity_; ++it, ++victims) {
    victim_bytes += it->size_bytes;
    victim_cost += it->cost_ns;
    if (victim_cost > cost_ns) {
      s.counters.rejected += 1;
      return false;
    }
  }
  for (std::size_t i = 0; i < victims; ++i) {
    const Entry& victim = s.lru.back();
    s.bytes_used -= victim.size_bytes;
    s.index.erase(victim.key);
    s.lru.pop_back();
    s.counters.evictions += 1;
  }

  s.lru.push_front(Entry{key, std::move(value), size_bytes, cost_ns});
  s.index.emplace(key, s.lru.begin());
  s.bytes_used += size_bytes;
  s.counters.insertions += 1;
  return true;
}

std::size_t SnapshotCache::purge(const std::function<bool(const CacheKey&)>& stale) {
  std::size_t dropped = 0;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mu);
    for (auto it = shard->lru.begin(); it != shard->lru.end();) {
      if (stale(it->key)) {
        shard->bytes_used -= it->size_bytes;
        shard->index.erase(it->key);
        it = shard->lru.erase(it);
        shard->counters.purged += 1;
        dropped += 1;
      } else {
        ++it;
      }
    }
  }
  return dropped;
}

MergedResultCache::MergedResultCache(const Options& opts)
    : capacity_bytes_(opts.capacity_bytes), max_entries_(std::max<std::size_t>(1, opts.max_entries)) {}

std::shared_ptr<const MergedResult> MergedResultCache::lookup(std::span<const CacheKey> identity) {
  if (!enabled()) return nullptr;
  const std::scoped_lock lock(mu_);
  counters_.lookups += 1;
  auto best = lru_.end();
  for (auto it = lru_.begin(); it != lru_.end(); ++it) {
    const std::vector<CacheKey>& id = it->value->identity;
    if (id.size() > identity.size() || (id.empty() && !identity.empty())) continue;
    if (best != lru_.end() && id.size() <= best->value->identity.size()) continue;
    if (std::equal(id.begin(), id.end(), identity.begin())) best = it;
  }
  if (best == lru_.end()) {
    counters_.misses += 1;
    return nullptr;
  }
  if (best->value->identity.size() == identity.size()) {
    counters_.hits += 1;
  } else {
    counters_.misses += 1;
    counters_.prefix_hits += 1;
  }
  lru_.splice(lru_.begin(), lru_, best);
  return best->value;
}

bool MergedResultCache::insert(std::shared_ptr<const MergedResult> value, std::uint64_t size_bytes,
                               const MergedResult* base) {
  if (!enabled()) return false;
  std::vector<Entry> dropped;  // declared first: destroyed after the lock is released
  const std::scoped_lock lock(mu_);
  const auto resident = std::find_if(lru_.begin(), lru_.end(), [&](const Entry& e) {
    return e.value->identity == value->identity;
  });
  if (resident != lru_.end()) {
    lru_.splice(lru_.begin(), lru_, resident);
    return true;  // concurrent readers raced to memoize the same identity
  }
  if (size_bytes > capacity_bytes_) {
    counters_.rejected += 1;
    return false;
  }

  // The superseded base leaves first and for free.  Admission then mirrors
  // SnapshotCache: walk would-be victims from the cold end; reject the
  // candidate if they are costlier to recompute than it is.
  const auto base_it = std::find_if(lru_.begin(), lru_.end(), [&](const Entry& e) {
    return base != nullptr && e.value.get() == base;
  });
  std::vector<std::list<Entry>::iterator> victims;
  std::uint64_t victim_bytes = 0;
  if (base_it != lru_.end()) {
    victims.push_back(base_it);
    victim_bytes = base_it->size_bytes;
  }
  std::uint64_t victim_cost = 0;
  for (auto it = lru_.end(); it != lru_.begin() &&
                             (bytes_used_ - victim_bytes + size_bytes > capacity_bytes_ ||
                              lru_.size() - victims.size() + 1 > max_entries_);) {
    if (--it == base_it) continue;
    victim_bytes += it->size_bytes;
    victim_cost += it->value->cost_ns;
    if (victim_cost > value->cost_ns) {
      counters_.rejected += 1;
      return false;
    }
    victims.push_back(it);
  }
  for (const auto it : victims) {
    bytes_used_ -= it->size_bytes;
    dropped.push_back(std::move(*it));
    lru_.erase(it);
    counters_.evictions += 1;
  }

  lru_.push_front(Entry{std::move(value), size_bytes});
  bytes_used_ += size_bytes;
  counters_.insertions += 1;
  return true;
}

std::size_t MergedResultCache::purge(const std::function<bool(const CacheKey&)>& dead) {
  std::vector<Entry> dropped;  // declared first: destroyed after the lock is released
  const std::scoped_lock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    const std::vector<CacheKey>& id = it->value->identity;
    if (std::any_of(id.begin(), id.end(), dead)) {
      bytes_used_ -= it->size_bytes;
      dropped.push_back(std::move(*it));
      it = lru_.erase(it);
      counters_.purged += 1;
    } else {
      ++it;
    }
  }
  return dropped.size();
}

CacheCounters MergedResultCache::counters() const {
  const std::scoped_lock lock(mu_);
  CacheCounters total = counters_;
  total.entries = lru_.size();
  total.bytes_used = bytes_used_;
  return total;
}

CacheCounters SnapshotCache::counters() const {
  CacheCounters total;
  for (const auto& shard : shards_) {
    const std::scoped_lock lock(shard->mu);
    total.lookups += shard->counters.lookups;
    total.hits += shard->counters.hits;
    total.misses += shard->counters.misses;
    total.insertions += shard->counters.insertions;
    total.evictions += shard->counters.evictions;
    total.rejected += shard->counters.rejected;
    total.purged += shard->counters.purged;
    total.entries += shard->lru.size();
    total.bytes_used += shard->bytes_used;
  }
  return total;
}

}  // namespace mlio::service
