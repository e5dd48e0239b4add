#include "service/cache.hpp"

#include <algorithm>
#include <iterator>

#include "util/rng.hpp"

namespace mlio::service {

std::size_t SnapshotCache::KeyHash::operator()(const CacheKey& k) const {
  std::uint64_t state = k.partition_id * 0x9e3779b97f4a7c15ull + k.data_generation;
  return static_cast<std::size_t>(util::splitmix64(state));
}

SnapshotCache::SnapshotCache(const Options& opts) : capacity_bytes_(opts.capacity_bytes) {}

std::shared_ptr<const core::Analysis> SnapshotCache::get(const CacheKey& key) {
  const std::scoped_lock lock(mu_);
  counters_.lookups += 1;
  const auto it = index_.find(key);
  if (it == index_.end()) {
    counters_.misses += 1;
    return nullptr;
  }
  counters_.hits += 1;
  lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
  return it->second->value;
}

std::shared_ptr<const core::Analysis> SnapshotCache::peek(const CacheKey& key) {
  const std::scoped_lock lock(mu_);
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : it->second->value;
}

bool SnapshotCache::insert(const CacheKey& key, std::shared_ptr<const core::Analysis> value,
                           std::uint64_t size_bytes) {
  std::vector<Entry> dropped;  // declared first: destroyed after the lock is released
  const std::scoped_lock lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return true;  // concurrent readers raced to fill the same shard
  }
  if (size_bytes > capacity_bytes_) {
    counters_.rejected += 1;
    return false;
  }
  while (bytes_used_ + size_bytes > capacity_bytes_) {
    bytes_used_ -= lru_.back().size_bytes;
    index_.erase(lru_.back().key);
    dropped.push_back(std::move(lru_.back()));
    lru_.pop_back();
    counters_.evictions += 1;
  }
  lru_.push_front(Entry{key, std::move(value), size_bytes});
  index_.emplace(key, lru_.begin());
  bytes_used_ += size_bytes;
  counters_.insertions += 1;
  return true;
}

std::size_t SnapshotCache::purge(const std::function<bool(const CacheKey&)>& stale) {
  std::vector<Entry> dropped;  // declared first: destroyed after the lock is released
  const std::scoped_lock lock(mu_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (stale(it->key)) {
      bytes_used_ -= it->size_bytes;
      index_.erase(it->key);
      dropped.push_back(std::move(*it));
      it = lru_.erase(it);
      counters_.purged += 1;
    } else {
      ++it;
    }
  }
  return dropped.size();
}

CacheCounters SnapshotCache::counters() const {
  const std::scoped_lock lock(mu_);
  CacheCounters total = counters_;
  total.entries = lru_.size();
  total.bytes_used = bytes_used_;
  return total;
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

  // The superseded base leaves first, then the coldest entries until the
  // new answer fits in bytes and in count.
  const auto evict = [&](std::list<Entry>::iterator it) {
    bytes_used_ -= it->size_bytes;
    dropped.push_back(std::move(*it));
    lru_.erase(it);
    counters_.evictions += 1;
  };
  if (base != nullptr) {
    const auto base_it = std::find_if(lru_.begin(), lru_.end(),
                                      [&](const Entry& e) { return e.value.get() == base; });
    if (base_it != lru_.end()) evict(base_it);
  }
  while (bytes_used_ + size_bytes > capacity_bytes_ || lru_.size() + 1 > max_entries_) {
    evict(std::prev(lru_.end()));
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

}  // namespace mlio::service
