// Archive service tests: MVCC isolation under concurrent load, the bounded
// shared snapshot cache (LRU eviction, oversize rejection, counter
// reconciliation), the latency histogram, the unified
// QueryStats/ServiceStats aggregation, compaction carrying cached shards
// forward, snapshot write-back, and stale-read recovery when an EXTERNAL
// compactor garbage-collects a pinned generation's files.
//
// The load tests run under TSan in CI (label "tsan"), and the GC-failure
// test injects faults through FaultVfs (label "faults").
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "core/snapshot.hpp"
#include "harness/cold_query.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/latency.hpp"
#include "util/vfs.hpp"

namespace {

using namespace mlio;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Seed an archive with `parts` partitions drawn from the shared frame pool.
void seed_archive(const std::filesystem::path& dir, const std::vector<service::ServiceFrame>& pool,
                  std::size_t parts, util::Vfs& vfs = util::real_vfs()) {
  archive::Archive ar = archive::Archive::create(dir, vfs);
  const std::size_t per = std::max<std::size_t>(1, pool.size() / parts);
  for (std::size_t b = 0; b < parts; ++b) {
    archive::Archive::PartitionWriter w = ar.begin_partition();
    const std::size_t lo = b * per;
    const std::size_t hi = b + 1 == parts ? pool.size() : std::min(pool.size(), lo + per);
    for (std::size_t i = lo; i < hi; ++i) w.append_frame(pool[i].job, pool[i].bytes);
    w.seal();
  }
}

const std::vector<service::ServiceFrame>& shared_pool() {
  static const std::vector<service::ServiceFrame> pool = service::make_frame_pool(18, 71);
  return pool;
}

// ---------------------------------------------------------------------------
// LatencyHistogram

TEST(LatencyHistogram, IndexingIsMonotonicAndBounded) {
  std::size_t prev = 0;
  for (std::uint64_t ns : {0ull, 1ull, 31ull, 32ull, 33ull, 100ull, 1000ull, 123456ull,
                           1ull << 20, 1ull << 40, ~0ull}) {
    const std::size_t idx = util::LatencyHistogram::index_of(ns);
    ASSERT_LT(idx, util::LatencyHistogram::kBucketCount);
    ASSERT_GE(idx, prev);
    prev = idx;
    // The bucket's floor never exceeds the value it indexed.
    ASSERT_LE(util::LatencyHistogram::bucket_floor(idx), ns);
  }
  // ~3% resolution: the bucket floor is within 1/32 of the value.
  for (std::uint64_t ns = 1; ns < (1ull << 30); ns = ns * 3 + 7) {
    const std::uint64_t floor = util::LatencyHistogram::bucket_floor(
        util::LatencyHistogram::index_of(ns));
    ASSERT_LE(ns - floor, ns / 32 + 1) << ns;
  }
}

TEST(LatencyHistogram, QuantilesAndMerge) {
  util::LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.p99_ns(), 0.0);

  for (std::uint64_t v = 1; v <= 1000; ++v) h.record(v * 1000);  // 1..1000 us
  EXPECT_EQ(h.count(), 1000u);
  EXPECT_EQ(h.min_ns(), 1000u);
  EXPECT_EQ(h.max_ns(), 1000000u);
  // Log-linear resolution is ~3%; allow 5%.
  EXPECT_NEAR(h.p50_ns(), 500e3, 0.05 * 500e3);
  EXPECT_NEAR(h.p99_ns(), 990e3, 0.05 * 990e3);
  EXPECT_NEAR(h.mean_ns(), 500.5e3, 1.0);

  // merge == concatenated recording.
  util::LatencyHistogram a, b, both;
  for (std::uint64_t v : {5ull, 50ull, 500ull}) { a.record(v); both.record(v); }
  for (std::uint64_t v : {7ull, 70ull, 700ull}) { b.record(v); both.record(v); }
  a.merge(b);
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.min_ns(), both.min_ns());
  EXPECT_EQ(a.max_ns(), both.max_ns());
  EXPECT_EQ(a.p50_ns(), both.p50_ns());
  EXPECT_EQ(a.p99_ns(), both.p99_ns());
}

// ---------------------------------------------------------------------------
// Unified stats vocabulary (ISSUE 7 satellite: one merge(), one hit rate)

TEST(StatsMerge, QueryStatsSumsEveryFieldAndSharesHitRate) {
  archive::QueryStats a;
  a.partitions = 3; a.snapshot_hits = 1; a.cache_hits = 2; a.partitions_scanned = 1;
  a.logs_scanned = 40; a.snapshots_written = 1; a.total_seconds = 1.0;
  archive::QueryStats b = a;
  b.cache_hits = 4;

  archive::QueryStats m = a;
  m.merge(b);
  EXPECT_EQ(m.partitions, 6u);
  EXPECT_EQ(m.snapshot_hits, 2u);
  EXPECT_EQ(m.cache_hits, 6u);
  EXPECT_EQ(m.partitions_scanned, 2u);
  EXPECT_EQ(m.logs_scanned, 80u);
  EXPECT_EQ(m.snapshots_written, 2u);
  EXPECT_DOUBLE_EQ(m.total_seconds, 2.0);

  // One hit-rate definition for bench and service alike:
  // (cache + snapshot hits) / shards served.
  EXPECT_EQ(m.shards_served(), 10u);  // 6 cache + 2 snapshot + 2 scanned
  EXPECT_DOUBLE_EQ(m.cache_hit_rate(), 8.0 / 10.0);
  EXPECT_DOUBLE_EQ(archive::QueryStats{}.cache_hit_rate(), 0.0);

  // ServiceStats embeds QueryStats and merges both layers.
  service::ServiceStats sa, sb;
  sa.query = a; sa.requests = 1; sa.stale_retries = 1;
  sb.query = b; sb.requests = 2; sb.stale_retries = 2;
  sa.merge(sb);
  EXPECT_EQ(sa.requests, 3u);
  EXPECT_EQ(sa.stale_retries, 3u);
  EXPECT_EQ(sa.query.cache_hits, 6u);
  EXPECT_DOUBLE_EQ(sa.query.total_seconds, a.total_seconds + b.total_seconds);
}

// ---------------------------------------------------------------------------
// SnapshotCache

std::shared_ptr<const core::Analysis> dummy_analysis() {
  return std::make_shared<const core::Analysis>();
}

TEST(SnapshotCache, HitMissLruAndReconciliation) {
  service::SnapshotCache cache({.capacity_bytes = 300});

  EXPECT_EQ(cache.get({1, 1}), nullptr);
  EXPECT_TRUE(cache.insert({1, 1}, dummy_analysis(), 100));
  EXPECT_TRUE(cache.insert({2, 1}, dummy_analysis(), 100));
  EXPECT_TRUE(cache.insert({3, 1}, dummy_analysis(), 100));
  EXPECT_NE(cache.get({1, 1}), nullptr);  // 1 is now most-recent

  // A fourth entry must evict; the LRU victim is 2 (1 was refreshed).
  EXPECT_TRUE(cache.insert({4, 1}, dummy_analysis(), 100));
  EXPECT_EQ(cache.get({2, 1}), nullptr);
  EXPECT_NE(cache.get({1, 1}), nullptr);
  EXPECT_NE(cache.get({3, 1}), nullptr);
  EXPECT_NE(cache.get({4, 1}), nullptr);

  const service::CacheCounters c = cache.counters();
  EXPECT_EQ(c.insertions, 4u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(c.entries, 3u);
  EXPECT_EQ(c.bytes_used, 300u);
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);
}

TEST(SnapshotCache, FullCacheEvictsInLruOrderAndRejectsOnlyOversizedEntries) {
  service::SnapshotCache cache({.capacity_bytes = 200});
  EXPECT_TRUE(cache.insert({1, 1}, dummy_analysis(), 50));
  EXPECT_TRUE(cache.insert({2, 1}, dummy_analysis(), 50));
  EXPECT_TRUE(cache.insert({3, 1}, dummy_analysis(), 100));
  EXPECT_NE(cache.get({1, 1}), nullptr);   // recency: 1, 3, 2
  EXPECT_NE(cache.peek({2, 1}), nullptr);  // a peek leaves 2 the coldest

  // Any entry that fits gets in, evicting from the cold end until it does:
  // 2, then 3, while the refreshed 1 stays.
  EXPECT_TRUE(cache.insert({4, 1}, dummy_analysis(), 100));
  EXPECT_EQ(cache.peek({2, 1}), nullptr);
  EXPECT_EQ(cache.peek({3, 1}), nullptr);
  EXPECT_NE(cache.peek({1, 1}), nullptr);
  EXPECT_NE(cache.peek({4, 1}), nullptr);
  EXPECT_EQ(cache.counters().bytes_used, 150u);
  // An entry the size of the whole capacity evicts everything else.
  EXPECT_TRUE(cache.insert({5, 1}, dummy_analysis(), 200));
  EXPECT_EQ(cache.peek({1, 1}), nullptr);
  EXPECT_EQ(cache.peek({4, 1}), nullptr);
  // Larger than the whole capacity: rejected, and nothing evicted for it.
  EXPECT_FALSE(cache.insert({6, 1}, dummy_analysis(), 201));
  EXPECT_NE(cache.peek({5, 1}), nullptr);

  const service::CacheCounters c = cache.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.bytes_used, 200u);
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);

  // Re-inserting a resident refreshes it without a new insertion.
  EXPECT_TRUE(cache.insert({5, 1}, dummy_analysis(), 200));
  EXPECT_EQ(cache.counters().insertions, c.insertions);
}

TEST(SnapshotCache, PurgeDropsStaleGenerations) {
  service::SnapshotCache cache({.capacity_bytes = 1 << 20});
  for (std::uint64_t id = 1; id <= 6; ++id) {
    ASSERT_TRUE(cache.insert({id, 1}, dummy_analysis(), 10));
  }
  // Entry values survive eviction for readers that hold them.
  const std::shared_ptr<const core::Analysis> held = cache.get({1, 1});
  ASSERT_NE(held, nullptr);

  const std::size_t dropped = cache.purge([](const service::CacheKey& k) {
    return k.partition_id % 2 == 0;
  });
  EXPECT_EQ(dropped, 3u);
  EXPECT_EQ(cache.get({2, 1}), nullptr);
  EXPECT_NE(cache.get({3, 1}), nullptr);
  EXPECT_NE(held, nullptr);

  const service::CacheCounters c = cache.counters();
  EXPECT_EQ(c.purged, 3u);
  EXPECT_EQ(c.entries, 3u);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);
}

// ---------------------------------------------------------------------------
// ArchiveService basics

TEST(ArchiveService, GetMatchesPooledColdQueryAndServesFromCache) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_basic");
  seed_archive(dir, shared_pool(), 3);

  // Reference: a cold query on two merge workers that writes nothing back
  // (`mlio_archive query --threads 2 --no-write-snapshots`).
  archive::Archive ar = archive::Archive::open(dir);
  const std::uint64_t expected =
      harness::cold_get(ar, 0, 2, /*write_back=*/false).analysis->fingerprint();

  service::ArchiveService svc(dir);
  const auto first = svc.get(/*keep_analysis=*/true);
  EXPECT_EQ(first.fingerprint, expected);
  ASSERT_NE(first.analysis, nullptr);
  EXPECT_EQ(first.analysis->fingerprint(), expected);
  EXPECT_EQ(first.stats.query.partitions, 3u);
  EXPECT_EQ(first.stats.query.cache_hits, 0u);
  EXPECT_EQ(first.stats.query.partitions_scanned, 3u);

  // The generation is unchanged, so the second get is one merged-result
  // lookup — no shard resolution at all (DESIGN.md §12).
  const auto second = svc.get();
  EXPECT_EQ(second.fingerprint, expected);
  EXPECT_EQ(second.stats.query.merged_hits, 1u);
  EXPECT_EQ(second.stats.query.cache_hits, 0u);
  EXPECT_EQ(second.stats.query.partitions_scanned, 0u);
  EXPECT_EQ(svc.merged_counters().hits, 1u);

  // The serial-replay oracle agrees with the served answer.
  EXPECT_EQ(svc.replay_serial(second.pin).fingerprint(), expected);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Snapshot write-back (Options::write_snapshots; `mlio_archive query` turns
// it on for whole-archive queries)

archive::Manifest disk_manifest(const std::filesystem::path& dir) {
  return archive::Archive::open(dir).manifest();
}

std::size_t snapshot_files(const std::filesystem::path& dir) {
  std::size_t n = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() == ".snap") n += 1;
  }
  return n;
}

TEST(WriteBack, ColdGetCommitsEveryRescanOnceAndTheNextServiceHitsThem) {
  // Serial resolution and the merge pool write back the same way.
  for (const unsigned threads : {0u, 2u}) {
    SCOPED_TRACE("merge_threads=" + std::to_string(threads));
    const std::filesystem::path dir = fresh_dir("mlio_svc_write_back");
    seed_archive(dir, shared_pool(), 3);
    const std::uint64_t g0 = disk_manifest(dir).generation;
    service::ArchiveService::Options opts;
    opts.merge_threads = threads;
    opts.write_snapshots = true;

    std::uint64_t fingerprint = 0;
    {
      service::ArchiveService svc(dir, opts);
      const auto cold = svc.get();
      EXPECT_EQ(cold.stats.query.partitions_scanned, 3u);
      EXPECT_EQ(cold.stats.query.snapshots_written, 3u);
      EXPECT_EQ(cold.generation, g0);  // the answer is the pinned generation's
      // One manifest commit registered all three, and the service
      // published it.
      EXPECT_EQ(svc.generation(), g0 + 1);
      fingerprint = cold.fingerprint;
    }
    const archive::Manifest m = disk_manifest(dir);
    EXPECT_EQ(m.generation, g0 + 1);
    for (const archive::PartitionInfo& p : m.partitions) {
      EXPECT_TRUE(p.has_snapshot) << "partition " << p.id;
      EXPECT_EQ(p.snapshot_generation, p.data_generation) << "partition " << p.id;
    }
    EXPECT_EQ(snapshot_files(dir), 3u);
    EXPECT_TRUE(archive::Archive::open(dir).verify(true).ok());

    // A second service's cold get is all snapshot hits, with the same
    // answer, and has nothing to write.
    service::ArchiveService svc(dir, opts);
    const auto warm = svc.get();
    EXPECT_EQ(warm.stats.query.snapshot_hits, 3u);
    EXPECT_EQ(warm.stats.query.partitions_scanned, 0u);
    EXPECT_EQ(warm.stats.query.snapshots_written, 0u);
    EXPECT_EQ(warm.fingerprint, fingerprint);
    EXPECT_EQ(svc.generation(), g0 + 1);

    // A prefix merge writes back the one partition it rescans.
    const std::vector<service::ServiceFrame>& pool = shared_pool();
    const std::uint64_t g1 = svc.ingest(std::span(pool).first(4)).generation;
    const auto grown = svc.get();
    EXPECT_EQ(grown.stats.query.prefix_merges, 1u);
    EXPECT_EQ(grown.stats.query.partitions_scanned, 1u);
    EXPECT_EQ(grown.stats.query.snapshots_written, 1u);
    EXPECT_EQ(svc.generation(), g1 + 1);
    EXPECT_EQ(snapshot_files(dir), 4u);
    std::filesystem::remove_all(dir);
  }
}

TEST(WriteBack, OffOrWindowedFromTheCliLeavesTheGenerationAlone) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_no_write_back");
  seed_archive(dir, shared_pool(), 3);
  const std::uint64_t g0 = disk_manifest(dir).generation;
  // `query --no-write-snapshots`, then `query --last-windows 2`: the CLI's
  // options turn write-back off for both.
  for (const auto& [write_back, last_windows] :
       {std::pair{false, std::uint64_t{0}}, std::pair{true, std::uint64_t{2}}}) {
    SCOPED_TRACE("write_back=" + std::to_string(write_back) +
                 " last_windows=" + std::to_string(last_windows));
    const service::ArchiveService::Options opts =
        service::query_options(2, write_back, last_windows);
    EXPECT_FALSE(opts.write_snapshots);
    service::ArchiveService svc(dir, opts);
    const auto cold = svc.get_window(last_windows);
    EXPECT_EQ(cold.stats.query.partitions_scanned, 3u);
    EXPECT_EQ(cold.stats.query.snapshots_written, 0u);
    EXPECT_EQ(svc.generation(), g0);
  }
  EXPECT_EQ(disk_manifest(dir).generation, g0);
  EXPECT_EQ(snapshot_files(dir), 0u);
  EXPECT_TRUE(service::query_options(2, true, 0).write_snapshots);
  std::filesystem::remove_all(dir);
}

TEST(ArchiveService, IngestAndCompactAdvanceGenerationsVisibleToNewGets) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_ingest");
  seed_archive(dir, shared_pool(), 2);

  service::ArchiveService svc(dir);
  const auto before = svc.get();

  const std::span<const service::ServiceFrame> extra(shared_pool().data(), 4);
  const auto ing = svc.ingest(extra);
  EXPECT_GT(ing.generation, before.generation);
  EXPECT_EQ(svc.generation(), ing.generation);

  const auto after = svc.get();
  EXPECT_EQ(after.generation, ing.generation);
  EXPECT_NE(after.fingerprint, before.fingerprint);
  EXPECT_EQ(svc.replay_serial(after.pin).fingerprint(), after.fingerprint);

  // Compaction merges everything into one partition.  The analysis state
  // is cut-invariant, so the answer keeps every bit, and the get before it
  // left every input shard cached: the merged shard is carried forward, not
  // rescanned.
  const auto pre = svc.get(/*keep_analysis=*/true);
  const std::size_t removed = svc.compact(~0ull);
  EXPECT_GT(removed, 0u);
  const auto compacted = svc.get(/*keep_analysis=*/true);
  EXPECT_EQ(compacted.stats.query.partitions, 1u);
  EXPECT_EQ(compacted.stats.query.logs_scanned, 0u);
  EXPECT_EQ(compacted.fingerprint, pre.fingerprint);
  EXPECT_EQ(core::write_snapshot_bytes(*compacted.analysis, 0),
            core::write_snapshot_bytes(*pre.analysis, 0));
  EXPECT_EQ(svc.replay_serial(compacted.pin).fingerprint(), compacted.fingerprint);
  std::filesystem::remove_all(dir);

  // A service that has answered nothing compacts lazily: no input shard is
  // resident, so the compaction scans nothing and the first get scans the
  // merged partition.
  const std::filesystem::path cold_dir = fresh_dir("mlio_svc_compact_cold");
  seed_archive(cold_dir, shared_pool(), 3);
  service::ArchiveService cold(cold_dir);
  service::ServiceStats compact_stats;
  EXPECT_EQ(cold.compact(~0ull, &compact_stats), 2u);
  EXPECT_EQ(compact_stats.query.logs_scanned, 0u);
  const auto first = cold.get();
  EXPECT_EQ(first.stats.query.partitions_scanned, 1u);
  EXPECT_EQ(first.stats.query.logs_scanned, shared_pool().size());
  EXPECT_EQ(first.fingerprint, cold.replay_serial(first.pin).fingerprint());
  std::filesystem::remove_all(cold_dir);
}

// ---------------------------------------------------------------------------
// MVCC under load (runs under TSan in CI)

TEST(ArchiveService, MvccReadersAreBitIdenticalToSerialReplayUnderLoad) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_mvcc");
  seed_archive(dir, shared_pool(), 3);

  service::ArchiveService svc(dir);

  struct Answer {
    std::uint64_t generation;
    std::uint64_t fingerprint;
    service::ArchiveService::Pin pin;
  };
  std::mutex answers_mu;
  std::vector<Answer> answers;

  const auto record = [&](const service::ArchiveService::GetResult& res) {
    const std::scoped_lock lock(answers_mu);
    answers.push_back({res.generation, res.fingerprint, res.pin});
  };

  // Bracket the concurrent phase with main-thread answers so at least two
  // distinct generations are always in evidence, even when the scheduler
  // runs the readers to completion before the writer's first publish.
  record(svc.get());

  constexpr unsigned kReaders = 3;
  std::atomic<bool> writer_done{false};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      std::uint64_t gets = 0;
      // Keep reading until the writer has finished publishing (minimum 8
      // gets so the cache sees traffic even on a fast writer).
      while (!writer_done.load(std::memory_order_acquire) || gets < 8) {
        record(svc.get());
        gets += 1;
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 8; ++i) {
      const std::size_t lo = static_cast<std::size_t>(i) % (shared_pool().size() - 2);
      svc.ingest(std::span<const service::ServiceFrame>(shared_pool().data() + lo, 2));
      if (i % 3 == 2) svc.compact(~0ull);
    }
    writer_done.store(true, std::memory_order_release);
  });
  writer.join();
  for (std::thread& t : readers) t.join();
  record(svc.get());

  // Serial replay once per distinct generation; every concurrent answer at
  // that generation must match bit for bit.
  std::map<std::uint64_t, std::uint64_t> oracle;  // generation -> fingerprint
  for (const Answer& a : answers) {
    ASSERT_TRUE(a.pin.valid());
    if (oracle.find(a.generation) == oracle.end()) {
      oracle[a.generation] = svc.replay_serial(a.pin).fingerprint();
    }
    EXPECT_EQ(a.fingerprint, oracle[a.generation]) << "generation " << a.generation;
  }
  EXPECT_GE(oracle.size(), 2u) << "writer should have published during the reads";

  // Releasing every pin lets deferred GC drain completely.
  answers.clear();
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());

  const service::CacheCounters c = svc.cache_counters();
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);
  std::filesystem::remove_all(dir);
}

TEST(ArchiveService, CompactionCarriesShardsUnderConcurrentReadersAndAppends) {
  // The background compactor hands each merged partition the merge of its
  // inputs' cached shards while readers race it and the feeder streams
  // windows.  Every answer must equal the serial replay of its pin; once the
  // race is over, a compaction over a warm cache must be served entirely
  // from the cache — no rescan.
  const std::filesystem::path dir = fresh_dir("mlio_svc_carry");
  { archive::Archive::create(dir); }
  service::ArchiveService::Options opts;
  opts.stream.window_seconds = 4 * 86400;
  opts.merge_threads = 2;
  service::ArchiveService svc(dir, opts);
  const std::vector<service::ServiceFrame> pool = service::make_frame_pool(60, 13);
  const std::size_t raced = pool.size() * 2 / 3;

  std::mutex answers_mu;
  std::map<std::uint64_t, std::uint64_t> whole;  // generation -> fingerprint
  std::vector<service::ArchiveService::GetResult> answers;
  std::atomic<std::uint64_t> disagreements{0};
  const auto record = [&](service::ArchiveService::GetResult res) {
    const std::scoped_lock lock(answers_mu);
    const auto [it, inserted] = whole.try_emplace(res.generation, res.fingerprint);
    if (!inserted && it->second != res.fingerprint) disagreements.fetch_add(1);
    if (inserted) answers.push_back(std::move(res));
  };

  service::ArchiveService::CompactorOptions copts;
  copts.policy.fanout = 2;
  copts.interval = std::chrono::milliseconds(0);
  svc.start_compactor(copts);
  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      while (!done.load(std::memory_order_acquire)) {
        record(svc.get());
        if (r == 1) (void)svc.get_window(2);
      }
    });
  }
  for (std::size_t i = 0; i < raced; ++i) {
    (void)svc.stream_append(std::span<const service::ServiceFrame>(pool.data() + i, 1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  svc.stop_compactor();
  EXPECT_EQ(svc.compactor_errors(), 0u);
  EXPECT_GT(svc.compactions(), 0u);

  // Deterministic tail: stream the rest, warm the cache with one get, then
  // compact inline.  Every merge's inputs are resident (or carried by the
  // merge before it), so the next get rescans nothing and serves every
  // partition — the carried ones included — from the shard cache.
  for (std::size_t i = raced; i < pool.size(); ++i) {
    (void)svc.stream_append(std::span<const service::ServiceFrame>(pool.data() + i, 1));
  }
  (void)svc.stream_flush();
  record(svc.get());
  std::size_t merges = 0;
  while (svc.compact_step(copts.policy).has_value()) merges += 1;
  ASSERT_GT(merges, 0u);
  const service::ArchiveService::GetResult after = svc.get(/*keep_analysis=*/true);
  EXPECT_EQ(after.stats.query.full_merges, 1u);
  EXPECT_EQ(after.stats.query.logs_scanned, 0u);
  EXPECT_EQ(after.stats.query.partitions_scanned, 0u);
  EXPECT_EQ(after.stats.query.cache_hits, after.pin.manifest().partitions.size());
  const core::Analysis replay = svc.replay_serial(after.pin);
  EXPECT_EQ(after.fingerprint, replay.fingerprint());
  ASSERT_NE(after.analysis, nullptr);
  EXPECT_EQ(core::write_snapshot_bytes(*after.analysis, 0), core::write_snapshot_bytes(replay, 0));

  // Every generation any reader saw equals the serial replay of its pin.
  EXPECT_EQ(disagreements.load(), 0u);
  EXPECT_GE(answers.size(), 2u);
  for (const service::ArchiveService::GetResult& a : answers) {
    EXPECT_EQ(a.fingerprint, svc.replay_serial(a.pin).fingerprint())
        << "generation " << a.generation;
  }
  answers.clear();
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());
  std::filesystem::remove_all(dir);
}

TEST(ArchiveService, ClosedLoopDriverVerifiesAndScales) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_driver");
  seed_archive(dir, shared_pool(), 3);

  service::ArchiveService svc(dir);
  service::WorkloadConfig cfg;
  cfg.clients = 3;
  cfg.requests_per_client = 16;
  cfg.warmup_per_client = 2;
  cfg.weight_get = 80;
  cfg.weight_ingest = 15;
  cfg.weight_compact = 5;
  cfg.logs_per_ingest = 2;
  cfg.compact_max_logs = ~0ull;
  const service::WorkloadReport rep = service::run_closed_loop(svc, cfg, shared_pool());

  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.requests, 48u);
  EXPECT_EQ(rep.requests, rep.gets + rep.ingests + rep.compacts);
  EXPECT_EQ(rep.get_latency.count(), rep.gets);
  EXPECT_GT(rep.throughput_rps(), 0.0);
  EXPECT_EQ(rep.verified_generations, rep.generations_observed);
  // With memoization on, repeated gets at a settled generation are merged
  // hits, not per-shard cache hits.
  EXPECT_GT(svc.merged_counters().hits, 0u);
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Cache bounds (ISSUE 7 satellite: tiny cache degrades to rebuild)

TEST(ArchiveService, CacheSmallerThanOneShardStillAnswersCorrectly) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_tiny_cache");
  seed_archive(dir, shared_pool(), 3);

  service::ArchiveService::Options opts;
  opts.cache.capacity_bytes = 64;  // far below one serialized shard
  opts.merged.capacity_bytes = 0;  // whole-answer memo off: every get rebuilds
  service::ArchiveService svc(dir, opts);

  const std::uint64_t expected = svc.replay_serial(svc.pin()).fingerprint();
  std::vector<std::thread> readers;
  std::atomic<bool> wrong{false};
  for (unsigned r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      for (int i = 0; i < 6; ++i) {
        if (svc.get().fingerprint != expected) wrong = true;
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_FALSE(wrong);

  // Every shard was larger than the whole capacity and rejected: the
  // service degraded to rebuilding on every get, never caching, never
  // deadlocking.
  const service::CacheCounters c = svc.cache_counters();
  EXPECT_EQ(c.insertions, 0u);
  EXPECT_EQ(c.entries, 0u);
  EXPECT_GT(c.rejected, 0u);
  EXPECT_EQ(c.bytes_used, 0u);
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Stale reads: an EXTERNAL compactor GCs a pinned generation's segments

TEST(StaleRead, ServiceRecoversByRefreshingFromDisk) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_stale_recover");
  seed_archive(dir, shared_pool(), 3);

  // Zero-capacity caches (shard AND merged-result): every get touches disk,
  // so the external GC is guaranteed to be observed.  (A memoized answer
  // would be served without noticing — MVCC-consistent for its generation,
  // but not what this test wants to see.)
  service::ArchiveService::Options opts;
  opts.cache.capacity_bytes = 0;
  opts.merged.capacity_bytes = 0;
  service::ArchiveService svc(dir, opts);
  const auto before = svc.get(/*keep_analysis=*/true);

  archive::Archive compactor = archive::Archive::open(dir);
  ASSERT_FALSE(compactor.compact(archive::plan_small_runs(compactor.manifest(), ~0ull)).empty());

  const auto after = svc.get(/*keep_analysis=*/true);
  EXPECT_GT(after.generation, before.generation);
  EXPECT_GE(after.stats.stale_retries, 1u);
  // Same logs, new layout: integer censuses carry over; the recovered
  // answer still matches the serial replay of ITS generation bit for bit.
  EXPECT_EQ(after.analysis->summary().logs(), before.analysis->summary().logs());
  EXPECT_EQ(after.analysis->summary().jobs(), before.analysis->summary().jobs());
  EXPECT_EQ(svc.replay_serial(after.pin).fingerprint(), after.fingerprint);
  std::filesystem::remove_all(dir);
}

TEST(StaleRead, ServiceOwnCompactionNeverStalesItsPinnedReaders) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_pin_gc");
  seed_archive(dir, shared_pool(), 3);

  service::ArchiveService::Options opts;
  opts.cache.capacity_bytes = 0;  // force disk reads through the pin
  service::ArchiveService svc(dir, opts);
  service::ArchiveService::Pin pin = svc.pin();
  const std::uint64_t expected = svc.get_pinned(pin).fingerprint;

  ASSERT_GT(svc.compact(~0ull), 0u);
  // The pin holds the pre-compaction generation: its files are deferred,
  // not deleted, so the pinned query still answers — bit-identically.
  EXPECT_GT(svc.deferred_gc_pending(), 0u);
  EXPECT_EQ(svc.get_pinned(pin).fingerprint, expected);
  EXPECT_EQ(svc.get_pinned(pin).stats.stale_retries, 0u);

  pin = service::ArchiveService::Pin();  // release -> sweep
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Deferred GC under fault injection (runs under the "faults" CI job)

TEST(ArchiveServiceFaults, FailedDeferredRemovalIsSurfacedNotFatal) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_gc_fault");
  util::FaultVfs vfs(util::FaultPlan::parse("fail-remove@0:*.seg"));
  seed_archive(dir, shared_pool(), 3, vfs);

  service::ArchiveService::Options opts;
  service::ArchiveService svc(dir, opts, vfs);
  // Keep only the census: a held GetResult would pin the generation and
  // defer the GC this test wants to see fail.
  const std::uint64_t logs_before = svc.get(/*keep_analysis=*/true).analysis->summary().logs();
  ASSERT_GT(svc.compact(~0ull), 0u);

  // Every segment removal failed; the errors are recorded, the service
  // keeps serving the new generation correctly.
  EXPECT_FALSE(svc.gc_errors().empty());
  const auto after = svc.get(/*keep_analysis=*/true);
  EXPECT_EQ(after.analysis->summary().logs(), logs_before);
  EXPECT_EQ(svc.replay_serial(after.pin).fingerprint(), after.fingerprint);
  std::filesystem::remove_all(dir);
}

// A persistent write fault fails every background merge.  Each failure is
// counted and its message kept, and the doubling backoff bounds the number
// of attempts: the waits reach kMaxCompactorBackoff after about
// log2(cap / 1 ms) failures, and from then on one attempt per cap — not one
// per 2 ms idle interval.  Stopping interrupts a backoff wait.
TEST(ArchiveServiceFaults, PersistentCompactorFaultIsKeptAndBackedOff) {
  const std::filesystem::path dir = fresh_dir("mlio_svc_compactor_fault");
  seed_archive(dir, shared_pool(), 4);
  util::FaultVfs vfs(util::FaultPlan::parse("fail-write@0:*.seg*"));
  service::ArchiveService svc(dir, {}, vfs);

  service::ArchiveService::CompactorOptions copts;
  copts.policy.fanout = 2;
  const auto cap = service::ArchiveService::kMaxCompactorBackoff;
  const double cap_s = std::chrono::duration<double>(cap).count();
  const auto seconds_since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t).count();
  };
  const auto t_start = std::chrono::steady_clock::now();
  svc.start_compactor(copts);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));

  // The attempts a doubling backoff allows: the first, one per doubling up
  // to the cap, then one per cap interval.  The bound grows with the
  // measured time, so a slow host loosens it instead of failing.
  const std::uint64_t errors = svc.compactor_errors();
  const double doublings = std::ceil(std::log2(static_cast<double>(cap.count())));
  EXPECT_GE(errors, 2u);
  EXPECT_LE(static_cast<double>(errors), 2 + doublings + seconds_since(t_start) / cap_s);

  // Stop just after the next failure, when the loop has begun a wait that
  // has doubled to about the cap: returning in well under the cap proves
  // the wait is interrupted.
  const auto deadline = std::chrono::steady_clock::now() + 10 * cap;
  while (svc.compactor_errors() == errors && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GT(svc.compactor_errors(), errors);
  const auto t_stop = std::chrono::steady_clock::now();
  svc.stop_compactor();
  EXPECT_LT(seconds_since(t_stop), cap_s / 2);
  EXPECT_EQ(svc.compactions(), 0u);
  EXPECT_NE(svc.compactor_last_error().find("simulated write failure"), std::string::npos)
      << svc.compactor_last_error();
  EXPECT_EQ(svc.pin().manifest().partitions.size(), 4u);  // nothing was published
  std::filesystem::remove_all(dir);
}

}  // namespace
