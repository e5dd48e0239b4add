// The archive as a live system, race-tested (DESIGN.md §14): a streaming
// feeder cutting time windows, MVCC-pinned readers issuing windowed gets,
// and the BACKGROUND leveled compactor merging history under both — all
// three racing through the service's writer-lock / pin / deferred-GC
// machinery.  Every windowed answer must be bit-identical to a serial
// replay of its pinned generation's selected suffix (0 divergences), the
// deferred-GC list must drain to zero once the pins drop, and the leveled
// policy must hold the live partition count sub-linear in windows.
//
// Carries the "tsan" label: CI replays this whole file under
// ThreadSanitizer, where the compactor/ingest/reader interlock is the prime
// target.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "archive/archive.hpp"
#include "archive/stream.hpp"
#include "service/driver.hpp"
#include "service/service.hpp"
#include "util/error.hpp"

namespace mlio::service {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Generator frames span about a year of start times; four-day windows give
/// the soak a healthy number of window cuts without one window per log.
ArchiveService::Options live_options() {
  ArchiveService::Options opts;
  opts.stream.window_seconds = 4 * 86400;
  return opts;
}

TEST(StreamLive, SoakEveryWindowedAnswerMatchesSerialReplay) {
  const fs::path dir = fresh_dir("mlio_live_soak");
  { archive::Archive::create(dir); }
  ArchiveService svc(dir, live_options());

  LiveConfig cfg;
  cfg.readers = 3;
  cfg.logs_per_append = 3;
  cfg.last_windows = 6;
  cfg.compactor.policy.fanout = 3;
  cfg.compactor.interval = std::chrono::milliseconds(1);
  const std::vector<ServiceFrame> pool = make_frame_pool(140, 11);
  const LiveReport rep = run_live_soak(svc, cfg, pool);

  EXPECT_EQ(rep.divergent, 0u) << "a windowed answer contradicted its serial replay";
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.logs_streamed, pool.size());
  EXPECT_GT(rep.windows_published, 4u);
  EXPECT_GT(rep.window_gets, 0u);
  EXPECT_GT(rep.verified_generations, 0u);
  EXPECT_EQ(rep.compactor_errors, 0u);
  EXPECT_EQ(rep.gc_pending_after, 0u) << "deferred GC leaked files";
  EXPECT_FALSE(svc.compactor_running());

  // Nothing buffered was lost: the final archive holds every streamed log.
  const ArchiveService::Pin final_pin = svc.pin();
  std::uint64_t logs = 0;
  for (const archive::PartitionInfo& p : final_pin.manifest().partitions) logs += p.log_count;
  EXPECT_EQ(logs, pool.size());

  // And the final whole-archive answer matches its own serial replay.
  const ArchiveService::GetResult whole = svc.get_window(0);
  EXPECT_EQ(whole.fingerprint, svc.replay_serial(whole.pin).fingerprint());
}

// Readers racing the feeder and the compactor memoize answers for many
// generations at once.  Every answer fits the memo, so the LRU rule takes
// each one in (evicting the coldest) and none is rejected: a generation's
// hot windowed answer is folded once, not again on every get.
TEST(StreamLive, SoakWithReadersMemoizesEveryAnswer) {
  const fs::path dir = fresh_dir("mlio_live_memo");
  { archive::Archive::create(dir); }
  ArchiveService::Options opts;
  opts.stream.window_seconds = 86400;
  ArchiveService svc(dir, opts);

  LiveConfig cfg;
  cfg.readers = 3;
  cfg.compactor.interval = std::chrono::milliseconds(1);
  const std::vector<ServiceFrame> pool = make_frame_pool(150, 7);
  const LiveReport rep = run_live_soak(svc, cfg, pool);
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.window_gets, 0u);

  const CacheCounters memo = svc.merged_counters();
  EXPECT_GT(memo.insertions, 0u);
  EXPECT_EQ(memo.rejected, 0u);
  EXPECT_EQ(memo.hits + memo.misses, memo.lookups);
  EXPECT_EQ(memo.insertions, memo.entries + memo.evictions + memo.purged);
  EXPECT_EQ(svc.cache_counters().rejected, 0u);
}

TEST(StreamLive, CompactorBoundsLivePartitionsSubLinearInWindows) {
  const fs::path dir = fresh_dir("mlio_live_bound");
  { archive::Archive::create(dir); }
  ArchiveService::Options opts;
  opts.stream.window_seconds = 86400;  // ~1 window per generator day: many cuts
  ArchiveService svc(dir, opts);

  LiveConfig cfg;
  cfg.readers = 2;
  cfg.logs_per_append = 2;
  cfg.last_windows = 4;
  cfg.compactor.policy.fanout = 3;
  cfg.compactor.interval = std::chrono::milliseconds(1);
  const std::vector<ServiceFrame> pool = make_frame_pool(160, 23);
  const LiveReport rep = run_live_soak(svc, cfg, pool);
  EXPECT_TRUE(rep.ok());

  // The soak drains whatever the background thread had not reached when the
  // feed ended, so its count is the policy's fixed point — the ceiling the
  // claim is about — and nothing is left to merge.
  const archive::Manifest final_manifest = svc.pin().manifest();
  EXPECT_TRUE(archive::plan_leveled(final_manifest, cfg.compactor.policy).empty());
  const std::uint64_t live = final_manifest.partitions.size();
  EXPECT_EQ(rep.final_partitions, live);
  EXPECT_GT(rep.windows_published, 20u) << "soak too small to claim sub-linearity";
  EXPECT_LE(live, rep.windows_published / 2)
      << "leveled policy failed to keep live partitions sub-linear in windows";
  EXPECT_LE(live, 24u);  // ~fanout per level across log_3(windows) levels
}

TEST(StreamLive, BackgroundCompactorLifecycle) {
  const fs::path dir = fresh_dir("mlio_live_lifecycle");
  { archive::Archive::create(dir); }
  ArchiveService svc(dir, live_options());
  EXPECT_FALSE(svc.compactor_running());

  svc.start_compactor();
  EXPECT_TRUE(svc.compactor_running());
  EXPECT_THROW(svc.start_compactor(), util::ConfigError);  // already running

  svc.stop_compactor();
  EXPECT_FALSE(svc.compactor_running());
  svc.stop_compactor();  // idempotent

  // Restart works, and the destructor stops a still-running compactor.
  svc.start_compactor();
  EXPECT_TRUE(svc.compactor_running());
}

TEST(StreamLive, StreamAppendPublishesOnlyWholeWindows) {
  const fs::path dir = fresh_dir("mlio_live_append");
  { archive::Archive::create(dir); }
  ArchiveService svc(dir, live_options());
  const std::vector<ServiceFrame> pool = make_frame_pool(40, 5);

  std::uint64_t published = 0;
  for (std::size_t lo = 0; lo < pool.size(); lo += 4) {
    const std::size_t n = std::min<std::size_t>(4, pool.size() - lo);
    const ArchiveService::StreamResult r =
        svc.stream_append(std::span<const ServiceFrame>(pool.data() + lo, n));
    published += r.published.size();
    // Readers see exactly the published windows — open-window logs stay
    // invisible until their cut.
    const ArchiveService::Pin p = svc.pin();
    std::uint64_t durable = 0;
    for (const archive::PartitionInfo& part : p.manifest().partitions) {
      durable += part.log_count;
    }
    EXPECT_EQ(durable + r.open_logs, lo + n);
    EXPECT_EQ(p.manifest().partitions.size(), published);
  }
  const ArchiveService::StreamResult fin = svc.stream_flush();
  published += fin.published.size();
  EXPECT_EQ(fin.open_logs, 0u);
  EXPECT_EQ(svc.stream_stats().windows_published, published);
  EXPECT_EQ(svc.stream_stats().logs, pool.size());

  // Windowed and whole-archive gets agree with their oracles on the final
  // state.
  const ArchiveService::GetResult last = svc.get_window(3);
  EXPECT_EQ(last.fingerprint, svc.replay_serial_window(last.pin, 3).fingerprint());
  EXPECT_GT(last.windows.newest_window, 0u);
  const ArchiveService::GetResult whole = svc.get_window(0);
  EXPECT_TRUE(whole.windows.whole_archive());
  EXPECT_EQ(whole.fingerprint, svc.replay_serial(whole.pin).fingerprint());
}

// The direct three-way race, without the driver's pacing: one feeder
// thread, two windowed readers pinning and verifying INSIDE the race (not
// post-run), and the background compactor at full tilt.  TSan's main course.
TEST(StreamLive, RacingReadersVerifyAgainstPinnedReplayInFlight) {
  const fs::path dir = fresh_dir("mlio_live_inflight");
  { archive::Archive::create(dir); }
  ArchiveService svc(dir, live_options());
  const std::vector<ServiceFrame> pool = make_frame_pool(90, 31);

  ArchiveService::CompactorOptions copts;
  copts.policy.fanout = 2;  // merge as aggressively as possible
  copts.interval = std::chrono::milliseconds(0);
  svc.start_compactor(copts);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> divergences{0};
  std::atomic<std::uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (unsigned c = 0; c < 2; ++c) {
    readers.emplace_back([&, c] {
      const std::uint64_t n = c + 2;  // different window spans per reader
      while (!done.load(std::memory_order_acquire)) {
        const ArchiveService::GetResult r = svc.get_window(n);
        // Replay the SAME pin while the writer races ahead: the pinned
        // suffix is frozen, so the answer must reproduce exactly.
        if (r.fingerprint != svc.replay_serial_window(r.pin, n).fingerprint()) {
          divergences.fetch_add(1, std::memory_order_relaxed);
        }
        checks.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    (void)svc.stream_append(std::span<const ServiceFrame>(pool.data() + i, 1));
  }
  (void)svc.stream_flush();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();
  svc.stop_compactor();

  EXPECT_EQ(divergences.load(), 0u);
  EXPECT_GT(checks.load(), 0u);
  EXPECT_EQ(svc.compactor_errors(), 0u);
  EXPECT_TRUE(svc.gc_errors().empty());
  EXPECT_EQ(svc.deferred_gc_pending(), 0u);
}

}  // namespace
}  // namespace mlio::service
