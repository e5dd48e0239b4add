// Generation-delta differential tests (DESIGN.md §12): drive a service
// through a RANDOMIZED ingest/compact sequence and, at every generation,
// confront the memoized / incrementally-merged answer with the cache-free
// serial replay oracle — fingerprint AND full canonical state bytes (which
// serialize the Table 2 census and the Table 3 access-pattern histograms
// verbatim).  The sequence is chosen so every serving tier is exercised:
// tier-1 merged hits, tier-2 prefix extensions after appends, and the
// full merge after a compaction invalidates every cached prefix — served
// without a rescan, because the compaction carried the merged partitions'
// shards forward.
//
// The memo is keyed by the identity it folded, so whole-archive and
// windowed gets share it: the live-mode tests stream time windows through
// leveled compaction and check each serving tier, the publish-time purge,
// and every answer against the serial replay of its pin.
//
// The closed-loop variant runs the same engine under concurrent clients
// with the parallel merge pool — it carries the "tsan" label so CI replays
// it under ThreadSanitizer.
#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/stream.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace {

using namespace mlio;

std::filesystem::path fresh_dir(const std::string& name) {
  const std::filesystem::path dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  return dir;
}

const std::vector<service::ServiceFrame>& frame_pool() {
  static const std::vector<service::ServiceFrame> pool = service::make_frame_pool(24, 97);
  return pool;
}

void seed_archive(const std::filesystem::path& dir, std::size_t parts) {
  archive::Archive ar = archive::Archive::create(dir);
  const auto& pool = frame_pool();
  const std::size_t per = std::max<std::size_t>(1, pool.size() / 2 / parts);
  for (std::size_t b = 0; b < parts; ++b) {
    archive::Archive::PartitionWriter w = ar.begin_partition();
    for (std::size_t i = b * per; i < (b + 1) * per; ++i) w.append_frame(pool[i].job, pool[i].bytes);
    w.seal();
  }
}

/// Canonical state bytes — equality here is stronger than fingerprint
/// equality (every accumulator byte, bottom-k samples included).
std::vector<std::byte> state(const core::Analysis& a) {
  return core::write_snapshot_bytes(a, 0);
}

TEST(GenerationDelta, RandomizedSequenceIsBitIdenticalToSerialReplayEveryGeneration) {
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta");
  seed_archive(dir, 3);

  service::ArchiveService::Options opts;
  opts.merge_threads = 2;  // parallel shard loads + tree merge in the full path
  service::ArchiveService svc(dir, opts);  // merged-result memo on by default
  util::Rng rng = util::Rng::stream(2026, 0x6de1ull);

  std::uint64_t prefix_merges = 0;
  std::uint64_t full_merges = 0;
  std::uint64_t merged_hits = 0;
  std::uint64_t compactions = 0;

  for (int step = 0; step < 24; ++step) {
    // Mutate: mostly appends, occasionally a compaction that rewrites the
    // partition list and invalidates every memoized prefix.
    const std::uint64_t draw = rng.uniform_u64(0, 99);
    bool compacted = false;
    if (draw < 75 || compactions >= 3) {
      const std::uint64_t n = 1 + rng.uniform_u64(0, 2);
      const std::uint64_t lo = rng.uniform_u64(0, frame_pool().size() - n);
      svc.ingest(std::span<const service::ServiceFrame>(
          frame_pool().data() + lo, static_cast<std::size_t>(n)));
    } else {
      compacted = svc.compact(~0ull) > 0;
      compactions += compacted ? 1 : 0;
    }

    // First get at the new generation: prefix extension after an append.
    // After a compaction every input shard was cached by the previous get,
    // so the merged partitions' shards were carried forward: the get
    // rescans nothing.
    const auto first = svc.get(/*keep_analysis=*/true);
    prefix_merges += first.stats.query.prefix_merges;
    full_merges += first.stats.query.full_merges;
    if (compacted) {
      EXPECT_EQ(first.stats.query.logs_scanned, 0u) << "step " << step;
      EXPECT_EQ(first.stats.query.partitions_scanned, 0u) << "step " << step;
    }

    // The oracle: cache-free, snapshot-free, serial replay of the SAME
    // pinned generation.  Full state bytes, not just the digest.
    const core::Analysis replay = svc.replay_serial(first.pin);
    ASSERT_EQ(first.fingerprint, replay.fingerprint()) << "step " << step;
    ASSERT_NE(first.analysis, nullptr);
    ASSERT_EQ(state(*first.analysis), state(replay)) << "step " << step;

    // Second get at the unchanged generation: a tier-1 memo hit serving the
    // very same answer.
    const auto second = svc.get(/*keep_analysis=*/true);
    EXPECT_EQ(second.generation, first.generation);
    EXPECT_EQ(second.stats.query.merged_hits, 1u) << "step " << step;
    EXPECT_EQ(second.fingerprint, first.fingerprint);
    EXPECT_EQ(second.analysis.get(), first.analysis.get());  // shared, not recomputed
    merged_hits += second.stats.query.merged_hits;
  }

  // The sequence must have exercised every serving tier.
  EXPECT_GT(merged_hits, 0u);
  EXPECT_GT(prefix_merges, 0u);
  EXPECT_GT(full_merges, 0u);
  EXPECT_GT(compactions, 0u);

  const service::CacheCounters mc = svc.merged_counters();
  EXPECT_EQ(mc.hits + mc.misses, mc.lookups);
  EXPECT_EQ(mc.insertions, mc.entries + mc.evictions + mc.purged);
  std::filesystem::remove_all(dir);
}

TEST(GenerationDelta, ClosedLoopDriverWithMemoAndMergePoolStaysBitIdentical) {
  // The concurrency variant (runs under TSan in CI): concurrent clients
  // against the memoized + prefix-merging + pooled-merge service, every
  // observed generation serially replayed.
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta_loop");
  seed_archive(dir, 3);

  service::ArchiveService::Options opts;
  opts.merge_threads = 2;
  service::ArchiveService svc(dir, opts);

  service::WorkloadConfig cfg;
  cfg.clients = 3;
  cfg.requests_per_client = 16;
  cfg.warmup_per_client = 2;
  cfg.weight_get = 70;
  cfg.weight_ingest = 22;
  cfg.weight_compact = 8;
  cfg.logs_per_ingest = 2;
  cfg.compact_max_logs = ~0ull;
  const service::WorkloadReport rep = service::run_closed_loop(svc, cfg, frame_pool());

  EXPECT_TRUE(rep.ok()) << rep.divergent << " divergent answers";
  EXPECT_EQ(rep.verified_generations, rep.generations_observed);
  EXPECT_GT(svc.merged_counters().hits, 0u);
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The identity-keyed memo, unit level

service::CacheKey key(std::uint64_t id) { return service::CacheKey{id, 1}; }

/// A memo entry over partitions `ids` (data generation 1).
std::shared_ptr<const service::MergedResult> answer(std::vector<std::uint64_t> ids) {
  auto m = std::make_shared<service::MergedResult>();
  m->analysis = std::make_shared<const core::Analysis>();
  m->fingerprint = ids.empty() ? 0 : ids.back();
  for (const std::uint64_t id : ids) m->identity.push_back(key(id));
  return m;
}

std::vector<service::CacheKey> keys(std::vector<std::uint64_t> ids) {
  std::vector<service::CacheKey> out;
  for (const std::uint64_t id : ids) out.push_back(key(id));
  return out;
}

void expect_reconciled(const service::CacheCounters& c) {
  EXPECT_EQ(c.hits + c.misses, c.lookups);
  EXPECT_EQ(c.insertions, c.entries + c.evictions + c.purged);
}

TEST(GenerationDelta, MemoServesExactHitsThenLongestPrefixAndPurgesDeadIdentities) {
  service::MergedResultCache memo({});
  const auto whole = answer({1, 2, 3});
  const auto window = answer({2, 3});
  ASSERT_TRUE(memo.insert(whole, 100));
  ASSERT_TRUE(memo.insert(window, 100));

  // Exact hits, for a whole and a windowed identity side by side.
  EXPECT_EQ(memo.lookup(keys({1, 2, 3})), whole);
  EXPECT_EQ(memo.lookup(keys({2, 3})), window);
  // Longest resident prefix: {2, 3} for {2, 3, 4}; nothing for {3, 4}.
  EXPECT_EQ(memo.lookup(keys({2, 3, 4})), window);
  EXPECT_EQ(memo.lookup(keys({3, 4})), nullptr);
  service::CacheCounters c = memo.counters();
  EXPECT_EQ(c.lookups, 4u);
  EXPECT_EQ(c.hits, 2u);
  EXPECT_EQ(c.misses, 2u);
  EXPECT_EQ(c.prefix_hits, 1u);

  // The answer that extends a base evicts it; the other entry stays.
  ASSERT_TRUE(memo.insert(answer({2, 3, 4}), 100, window.get()));
  c = memo.counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 1u);
  EXPECT_EQ(memo.lookup(keys({2, 3})), nullptr);  // retired: {2, 3, 4} is longer
  EXPECT_EQ(memo.lookup(keys({1, 2, 3}))->identity.size(), 3u);

  // Purge drops exactly the entries naming a dead partition.
  EXPECT_EQ(memo.purge([](const service::CacheKey& k) { return k.partition_id == 4; }), 1u);
  EXPECT_NE(memo.lookup(keys({1, 2, 3})), nullptr);
  EXPECT_EQ(memo.purge([](const service::CacheKey& k) { return k == key(1); }), 1u);
  c = memo.counters();
  EXPECT_EQ(c.entries, 0u);
  EXPECT_EQ(c.purged, 2u);
  expect_reconciled(c);
}

TEST(GenerationDelta, MemoEvictsItsColdestEntryAndEmptyIdentityMatchesOnlyExactly) {
  service::MergedResultCache::Options opts;
  opts.max_entries = 2;
  service::MergedResultCache memo(opts);
  ASSERT_TRUE(memo.insert(answer({}), 8));
  ASSERT_TRUE(memo.insert(answer({7}), 8));
  // An empty identity never stands in as a prefix.
  EXPECT_EQ(memo.lookup(keys({8})), nullptr);
  EXPECT_NE(memo.lookup(keys({})), nullptr);  // {7} is now the coldest
  // Over the count cap, the coldest entry goes, whatever the newcomer.
  EXPECT_TRUE(memo.insert(answer({9}), 8));
  EXPECT_EQ(memo.lookup(keys({7})), nullptr);
  EXPECT_NE(memo.lookup(keys({})), nullptr);  // {9} is now the coldest
  EXPECT_TRUE(memo.insert(answer({10}), 8));
  EXPECT_EQ(memo.lookup(keys({9})), nullptr);
  EXPECT_NE(memo.lookup(keys({10})), nullptr);
  service::CacheCounters c = memo.counters();
  EXPECT_EQ(c.rejected, 0u);
  EXPECT_EQ(c.evictions, 2u);
  EXPECT_EQ(c.entries, 2u);
  expect_reconciled(c);
}

TEST(GenerationDelta, MemoEvictsByBytesAndRejectsOnlyAnswersLargerThanItsCapacity) {
  service::MergedResultCache::Options opts;
  opts.capacity_bytes = 100;
  opts.max_entries = 8;
  service::MergedResultCache memo(opts);
  const auto one = answer({1});
  ASSERT_TRUE(memo.insert(one, 40));
  ASSERT_TRUE(memo.insert(answer({2}), 40));
  ASSERT_TRUE(memo.insert(answer({3}), 20));
  EXPECT_NE(memo.lookup(keys({1})), nullptr);  // recency: {1}, {3}, {2}
  // 50 bytes fit once the two coldest, {2} and {3}, have gone.
  ASSERT_TRUE(memo.insert(answer({4}), 50));
  EXPECT_EQ(memo.lookup(keys({2})), nullptr);
  EXPECT_EQ(memo.lookup(keys({3})), nullptr);
  EXPECT_NE(memo.lookup(keys({1})), nullptr);
  // Larger than the whole capacity: rejected, and the base it extends stays.
  EXPECT_FALSE(memo.insert(answer({1, 5}), 101, one.get()));
  EXPECT_EQ(memo.lookup(keys({1})), one);
  // The whole capacity fits: the base retires first, then the rest.
  ASSERT_TRUE(memo.insert(answer({1, 5}), 100, one.get()));
  EXPECT_EQ(memo.lookup(keys({1})), nullptr);
  EXPECT_EQ(memo.lookup(keys({4})), nullptr);
  const service::CacheCounters c = memo.counters();
  EXPECT_EQ(c.rejected, 1u);
  EXPECT_EQ(c.evictions, 4u);
  EXPECT_EQ(c.entries, 1u);
  EXPECT_EQ(c.bytes_used, 100u);
  expect_reconciled(c);
}

// ---------------------------------------------------------------------------
// Live mode: windowed and whole gets through one memo

constexpr std::int64_t kWindowSeconds = 100;
constexpr std::uint64_t kLastWindows = 3;

/// One small log starting inside window `window` (1-based).
service::ServiceFrame window_frame(std::uint64_t window, std::uint64_t job_id) {
  darshan::JobRecord job;
  job.job_id = job_id;
  job.nprocs = 2;
  job.nnodes = 1;
  darshan::Runtime rt(job, {{"/gpfs", "gpfs"}, {"/mnt/bb", "xfs"}});
  util::Rng rng(job_id * 0x9e37u + 3);
  const auto h = rt.open_file(darshan::ModuleId::kPosix, 0, "/gpfs/f" + std::to_string(job_id % 5),
                              0.0);
  rt.record_reads(h, 0, rng.log_uniform_u64(256, 1 << 16), rng.uniform_u64(1, 20), 0.0, 0.5);
  rt.record_writes(h, 0, rng.log_uniform_u64(256, 1 << 16), rng.uniform_u64(1, 20), 0.5, 0.4);
  const std::int64_t start = static_cast<std::int64_t>(window - 1) * kWindowSeconds + 10;
  const darshan::LogData log = rt.finalize(start, start + 30);
  return service::ServiceFrame{log.job, darshan::write_log_bytes(log)};
}

/// A live service over an empty archive: 100 s windows, inline fanout-4
/// leveled compaction.  The memo has room for every answer the test makes,
/// so what stays resident is a pure function of the request sequence.
class LiveMemo {
 public:
  explicit LiveMemo(const std::filesystem::path& dir) : dir_(dir) {
    { archive::Archive::create(dir_); }
    service::ArchiveService::Options opts;
    opts.stream.window_seconds = kWindowSeconds;
    opts.merged.max_entries = 8;
    svc_.emplace(dir_, opts);
  }
  ~LiveMemo() {
    svc_.reset();
    std::filesystem::remove_all(dir_);
  }

  service::ArchiveService& svc() { return *svc_; }

  /// Stream two logs into `window`, which cuts (publishes) the window
  /// before it, then compact until nothing merges.
  void stream_window(std::uint64_t window) {
    for (int i = 0; i < 2; ++i) {
      const service::ServiceFrame f = window_frame(window, next_job_++);
      svc_->stream_append(std::span<const service::ServiceFrame>(&f, 1));
    }
    while (svc_->compact_step(archive::LeveledPolicy{4}).has_value()) {
    }
  }

 private:
  std::filesystem::path dir_;
  std::optional<service::ArchiveService> svc_;
  std::uint64_t next_job_ = 1;
};

/// The get equals the serial replay of its own pin, state bytes included.
void expect_replayed(service::ArchiveService& svc, const service::ArchiveService::GetResult& r,
                     std::uint64_t last_windows, const std::string& what) {
  const core::Analysis replay = last_windows == 0
                                    ? svc.replay_serial(r.pin)
                                    : svc.replay_serial_window(r.pin, last_windows);
  EXPECT_EQ(r.fingerprint, replay.fingerprint()) << what;
  ASSERT_NE(r.analysis, nullptr) << what;
  EXPECT_EQ(state(*r.analysis), state(replay)) << what;
}

TEST(GenerationDelta, WindowedAndWholeGetsShareTheIdentityKeyedMemo) {
  LiveMemo live(fresh_dir("mlio_gen_delta_live"));
  service::ArchiveService& svc = live.svc();
  // Windows 1..8 published and compacted into two level-1 partitions,
  // [1,4] and [5,8]; window 9 is open.
  for (std::uint64_t w = 1; w <= 9; ++w) live.stream_window(w);
  ASSERT_EQ(svc.pin().manifest().partitions.size(), 2u);

  // Cold: the last 3 windows select [5,8] alone; both gets fold in full.
  const auto window1 = svc.get_window(kLastWindows, true);
  const auto whole1 = svc.get(true);
  EXPECT_EQ(window1.windows.first, 1u);
  EXPECT_EQ(window1.stats.query.full_merges, 1u);
  EXPECT_EQ(whole1.stats.query.full_merges, 1u);
  expect_replayed(svc, window1, kLastWindows, "cold window");
  expect_replayed(svc, whole1, 0, "cold whole");

  // Same generation: both answers are resident side by side, and a repeat
  // of either is an exact hit serving the very same analysis.
  const auto window2 = svc.get_window(kLastWindows, true);
  const auto whole2 = svc.get(true);
  EXPECT_EQ(window2.stats.query.merged_hits, 1u);
  EXPECT_EQ(whole2.stats.query.merged_hits, 1u);
  EXPECT_EQ(window2.fingerprint, window1.fingerprint);
  EXPECT_EQ(whole2.fingerprint, whole1.fingerprint);
  EXPECT_EQ(window2.analysis.get(), window1.analysis.get());
  EXPECT_EQ(whole2.analysis.get(), whole1.analysis.get());
  EXPECT_EQ(svc.merged_counters().entries, 2u);
  const service::ArchiveService::Pin old = whole1.pin;

  // Window 9 publishes; the suffix still starts at [5,8], so both gets
  // extend their previous answer and retire it.
  live.stream_window(10);
  const auto window3 = svc.get_window(kLastWindows, true);
  const auto whole3 = svc.get(true);
  EXPECT_GT(window3.generation, old.generation());
  EXPECT_EQ(window3.windows.first, 1u);
  EXPECT_EQ(window3.stats.query.prefix_merges, 1u);
  EXPECT_EQ(window3.stats.query.partitions_reused, 1u);
  EXPECT_EQ(whole3.stats.query.prefix_merges, 1u);
  EXPECT_EQ(whole3.stats.query.partitions_reused, 2u);
  expect_replayed(svc, window3, kLastWindows, "extended window");
  expect_replayed(svc, whole3, 0, "extended whole");
  service::CacheCounters c = svc.merged_counters();
  EXPECT_EQ(c.entries, 2u);
  EXPECT_EQ(c.evictions, 2u);

  // A reader still pinned at the older generation gets that generation's
  // answers, bit for bit, whatever the memo holds now.
  const auto old_window = svc.get_window_pinned(old, kLastWindows, true);
  const auto old_whole = svc.get_pinned(old, true);
  EXPECT_EQ(old_window.generation, old.generation());
  EXPECT_EQ(old_window.fingerprint, window1.fingerprint);
  EXPECT_EQ(old_whole.fingerprint, whole1.fingerprint);
  expect_replayed(svc, old_window, kLastWindows, "old pin window");
  expect_replayed(svc, old_whole, 0, "old pin whole");

  // The old pin's answers ([5,8] and [1,4][5,8]) are resident again.
  EXPECT_EQ(svc.merged_counters().entries, 4u);

  // Windows 10 and 11 publish: appends purge nothing.  Window 10 keeps the
  // suffix start; window 11 moves it past [5,8], a full fold.
  for (std::uint64_t w = 11; w <= 12; ++w) {
    live.stream_window(w);
    const auto window = svc.get_window(kLastWindows, true);
    const auto whole = svc.get(true);
    expect_replayed(svc, window, kLastWindows, "window " + std::to_string(w));
    expect_replayed(svc, whole, 0, "whole " + std::to_string(w));
    EXPECT_EQ(window.stats.query.prefix_merges, w == 11 ? 1u : 0u);
    EXPECT_EQ(window.stats.query.full_merges, w == 11 ? 0u : 1u);
    EXPECT_EQ(whole.stats.query.prefix_merges, 1u);
  }
  c = svc.merged_counters();
  EXPECT_EQ(c.purged, 0u);
  EXPECT_EQ(c.entries, 5u);

  // Window 12 publishes and the fourth level-0 window merges windows 9..12.
  // The three entries naming one of those partitions go; the old pin's two
  // name only live partitions and stay.
  live.stream_window(13);
  ASSERT_EQ(svc.pin().manifest().partitions.size(), 3u);
  c = svc.merged_counters();
  EXPECT_EQ(c.purged, 3u);
  EXPECT_EQ(c.entries, 2u);
  // Windows 9..11 were resident, so the compaction resolved window 12 and
  // carried the merged shard forward: the full fold over [9,12] and the
  // whole get that extends the old pin's answer scan nothing.
  const auto window4 = svc.get_window(kLastWindows, true);
  const auto whole4 = svc.get(true);
  EXPECT_EQ(window4.windows.first, 2u);
  EXPECT_EQ(window4.stats.query.full_merges, 1u);
  EXPECT_EQ(window4.stats.query.logs_scanned, 0u);
  EXPECT_EQ(window4.stats.query.cache_hits, 1u);
  EXPECT_EQ(whole4.stats.query.prefix_merges, 1u);  // extends the old pin's answer
  EXPECT_EQ(whole4.stats.query.partitions_reused, 2u);
  EXPECT_EQ(whole4.stats.query.logs_scanned, 0u);
  expect_replayed(svc, window4, kLastWindows, "window after compaction");
  expect_replayed(svc, whole4, 0, "whole after compaction");

  // Old pins stay answerable after the compaction too.
  expect_replayed(svc, svc.get_window_pinned(old, kLastWindows, true), kLastWindows,
                  "old pin window after compaction");
  expect_replayed(svc, svc.get_pinned(old, true), 0, "old pin whole after compaction");

  c = svc.merged_counters();
  expect_reconciled(c);
  EXPECT_GT(c.hits, 0u);
  EXPECT_GT(c.prefix_hits, 0u);
  EXPECT_GT(c.purged, 0u);
}

TEST(GenerationDelta, SerializedSizeOfAWholeArchiveAnswerMatchesSave) {
  const std::filesystem::path dir = fresh_dir("mlio_gen_delta_size");
  seed_archive(dir, 3);
  service::ArchiveService svc(dir);
  const auto r = svc.get(/*keep_analysis=*/true);
  ASSERT_NE(r.analysis, nullptr);
  util::ByteWriter w;
  r.analysis->save(w);
  EXPECT_EQ(core::serialized_analysis_bytes(*r.analysis), w.size());
  std::filesystem::remove_all(dir);
}

}  // namespace
