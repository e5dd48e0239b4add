// Continuous-mode unit tests (DESIGN.md §14): window-id arithmetic, the
// StreamIngester's cut rules (boundary, log cap, byte cap, late arrivals),
// manifest v2 window-metadata round-trips, the leveled and size-based
// compaction planners and the Archive::compact executor — plus the bounded-growth property the policy promises:
// live partitions stay sub-linear in windows while every query answer stays
// bit-identical across the merges ("fixed cuts → fixed bits").
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/stream.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/cold_query.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Window id arithmetic.

TEST(WindowIdFor, OneBasedFloorDivision) {
  EXPECT_EQ(window_id_for(0, 3600), 1u);
  EXPECT_EQ(window_id_for(3599, 3600), 1u);
  EXPECT_EQ(window_id_for(3600, 3600), 2u);
  EXPECT_EQ(window_id_for(7200, 3600), 3u);
  EXPECT_EQ(window_id_for(1, 1), 2u);
}

TEST(WindowIdFor, PreEpochClampsToFirstWindow) {
  EXPECT_EQ(window_id_for(-1, 3600), 1u);
  EXPECT_EQ(window_id_for(-3600, 3600), 1u);
  EXPECT_EQ(window_id_for(std::numeric_limits<std::int64_t>::min(), 3600), 1u);
}

TEST(WindowIdFor, HugeTimesDoNotOverflow) {
  const std::int64_t huge = std::numeric_limits<std::int64_t>::max();
  EXPECT_GE(window_id_for(huge, 1), 1u);  // no wrap to 0
  EXPECT_EQ(window_id_for(huge, huge), 2u);
}

TEST(WindowIdFor, RejectsNonPositiveWindow) {
  EXPECT_THROW((void)window_id_for(0, 0), util::ConfigError);
  EXPECT_THROW((void)window_id_for(0, -3600), util::ConfigError);
}

// ---------------------------------------------------------------------------
// Manifest v2 round-trip of the window metadata.

TEST(ManifestWindows, WindowMetadataRoundTrips) {
  Manifest m;
  m.generation = 9;
  m.next_partition_id = 4;
  PartitionInfo a;
  a.id = 1;
  a.window_min = 3;
  a.window_max = 7;
  a.level = 2;
  PartitionInfo b;  // batch partition: unwindowed, level 0
  b.id = 2;
  m.partitions = {a, b};

  const Manifest back = read_manifest_bytes(write_manifest_bytes(m));
  ASSERT_EQ(back.partitions.size(), 2u);
  EXPECT_EQ(back.partitions[0].window_min, 3u);
  EXPECT_EQ(back.partitions[0].window_max, 7u);
  EXPECT_EQ(back.partitions[0].level, 2u);
  EXPECT_EQ(back.partitions[1].window_min, 0u);
  EXPECT_EQ(back.partitions[1].window_max, 0u);
  EXPECT_EQ(back.partitions[1].level, 0u);
}

TEST(ManifestWindows, MergedIntoUnwindowedHistoryRoundTrips) {
  // window_min 0 with window_max nonzero is LEGAL: a leveled merge that
  // swallowed a batch partition extends into unwindowed history.
  Manifest m;
  PartitionInfo p;
  p.id = 1;
  p.window_min = 0;
  p.window_max = 12;
  p.level = 1;
  m.partitions = {p};
  const Manifest back = read_manifest_bytes(write_manifest_bytes(m));
  EXPECT_EQ(back.partitions[0].window_min, 0u);
  EXPECT_EQ(back.partitions[0].window_max, 12u);
}

// ---------------------------------------------------------------------------
// StreamIngester cut rules, on frames with controlled start times.

struct Frame {
  darshan::JobRecord job;
  std::vector<std::byte> bytes;
};

/// One small log whose job runs [start, start + 10): window placement is
/// fully controlled by the caller.
Frame make_frame(std::uint64_t job_id, std::int64_t start) {
  darshan::JobRecord job;
  job.job_id = job_id;
  job.nprocs = 2;
  job.nnodes = 1;
  darshan::Runtime rt(job, {{"/gpfs", "gpfs"}, {"/mnt/bb", "xfs"}});
  const auto h = rt.open_file(darshan::ModuleId::kPosix, 0, "/gpfs/f" + std::to_string(job_id), 0.0);
  rt.record_reads(h, 0, 4096 + job_id * 17, 3, 0.0, 0.5);
  rt.record_writes(h, 0, 1024 + job_id * 13, 2, 0.5, 0.4);
  const darshan::LogData log = rt.finalize(start, start + 10);
  Frame f;
  f.job = log.job;
  f.bytes = darshan::write_log_bytes(log);
  return f;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::byte> state(Archive& ar) {
  return core::write_snapshot_bytes(
      *harness::cold_get(ar, 0, 1, /*write_back=*/false).analysis, 0);
}

TEST(StreamIngester, CutsOnWindowBoundary) {
  const fs::path dir = fresh_dir("mlio_stream_boundary");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);

  const Frame f1 = make_frame(1, 10);   // window 1
  const Frame f2 = make_frame(2, 50);   // window 1
  const Frame f3 = make_frame(3, 150);  // window 2 -> cuts window 1
  EXPECT_FALSE(ing.append(f1.job, f1.bytes).has_value());
  EXPECT_FALSE(ing.append(f2.job, f2.bytes).has_value());
  EXPECT_EQ(ing.open_logs(), 2u);
  EXPECT_EQ(ing.open_window(), 1u);

  const std::optional<PartitionInfo> cut = ing.append(f3.job, f3.bytes);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->log_count, 2u);
  EXPECT_EQ(cut->window_min, 1u);
  EXPECT_EQ(cut->window_max, 1u);
  EXPECT_EQ(cut->level, 0u);
  EXPECT_EQ(ing.open_logs(), 1u);  // f3 buffered in the new open window
  EXPECT_EQ(ing.open_window(), 2u);

  const std::optional<PartitionInfo> tail = ing.flush();
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->window_min, 2u);
  EXPECT_EQ(tail->window_max, 2u);
  EXPECT_FALSE(ing.flush().has_value());  // nothing buffered now

  EXPECT_EQ(ing.stats().logs, 3u);
  EXPECT_EQ(ing.stats().windows_published, 2u);
  EXPECT_EQ(ing.stats().boundary_cuts, 1u);
  EXPECT_EQ(ing.stats().cap_cuts, 0u);
  EXPECT_EQ(ing.stats().late_logs, 0u);
  EXPECT_EQ(ar.manifest().partitions.size(), 2u);
  EXPECT_TRUE(ar.verify(true).ok());
}

TEST(StreamIngester, LateArrivalWidensOpenWindowDownward) {
  const fs::path dir = fresh_dir("mlio_stream_late");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);

  const Frame f1 = make_frame(1, 250);  // window 3
  const Frame f2 = make_frame(2, 120);  // window 2: LATE, no cut
  EXPECT_FALSE(ing.append(f1.job, f1.bytes).has_value());
  EXPECT_FALSE(ing.append(f2.job, f2.bytes).has_value());
  EXPECT_EQ(ing.stats().late_logs, 1u);

  const std::optional<PartitionInfo> cut = ing.flush();
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->window_min, 2u);  // honestly widened down to the straggler
  EXPECT_EQ(cut->window_max, 3u);
  EXPECT_EQ(cut->log_count, 2u);
}

TEST(StreamIngester, CutsOnLogCap) {
  const fs::path dir = fresh_dir("mlio_stream_logcap");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 1'000'000;  // one giant window: only the cap cuts
  opts.max_window_logs = 2;
  StreamIngester ing(ar, opts);

  std::optional<PartitionInfo> cut;
  for (std::uint64_t i = 0; i < 5; ++i) {
    const Frame f = make_frame(i + 1, static_cast<std::int64_t>(i) * 10);
    cut = ing.append(f.job, f.bytes);
    EXPECT_EQ(cut.has_value(), i == 2 || i == 4) << "log " << i;
  }
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(cut->log_count, 2u);
  EXPECT_EQ(cut->window_min, 1u);  // same window on both sides of the cap cut
  EXPECT_EQ(cut->window_max, 1u);
  EXPECT_EQ(ing.stats().cap_cuts, 2u);
  EXPECT_EQ(ing.stats().boundary_cuts, 0u);
  EXPECT_EQ(ing.open_logs(), 1u);
}

TEST(StreamIngester, CutsOnByteCapButNeverSplitsAFrame) {
  const fs::path dir = fresh_dir("mlio_stream_bytecap");
  Archive ar = Archive::create(dir);
  const Frame probe = make_frame(1, 0);
  StreamOptions opts;
  opts.window_seconds = 1'000'000;
  opts.max_window_bytes = probe.bytes.size() + 1;  // two frames overflow
  StreamIngester ing(ar, opts);

  EXPECT_FALSE(ing.append(probe.job, probe.bytes).has_value());
  const Frame f2 = make_frame(2, 10);
  const std::optional<PartitionInfo> cut = ing.append(f2.job, f2.bytes);
  ASSERT_TRUE(cut.has_value());  // cap cut BEFORE the append: 1-log window
  EXPECT_EQ(cut->log_count, 1u);
  EXPECT_EQ(ing.open_logs(), 1u);
  EXPECT_EQ(ing.stats().cap_cuts, 1u);
}

TEST(StreamIngester, SnapshotRidesTheWindowCommit) {
  const fs::path dir = fresh_dir("mlio_stream_snap");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  opts.write_snapshots = true;
  StreamIngester ing(ar, opts);

  const Frame f1 = make_frame(1, 10);
  const Frame f2 = make_frame(2, 20);
  (void)ing.append(f1.job, f1.bytes);
  (void)ing.append(f2.job, f2.bytes);
  const std::optional<PartitionInfo> cut = ing.flush();
  ASSERT_TRUE(cut.has_value());
  EXPECT_TRUE(cut->has_snapshot);
  EXPECT_EQ(cut->snapshot_generation, cut->data_generation);

  // The snapshot is valid AND bit-identical to a rescan: a windowed query
  // hits it, and the answer matches the snapshot-free state.
  const std::vector<std::byte> with_snap = state(ar);
  const std::optional<core::Analysis> snap = ar.load_snapshot(ar.manifest().partitions[0]);
  ASSERT_TRUE(snap.has_value());
  EXPECT_EQ(core::write_snapshot_bytes(*snap, 0), with_snap);
  EXPECT_TRUE(ar.verify(true).ok());
}

TEST(StreamIngester, EmptyFlushPublishesNothingAndConfigIsValidated) {
  const fs::path dir = fresh_dir("mlio_stream_empty");
  Archive ar = Archive::create(dir);
  StreamOptions bad;
  bad.window_seconds = 0;
  EXPECT_THROW((void)StreamIngester(ar, bad), util::ConfigError);

  StreamOptions opts;
  StreamIngester ing(ar, opts);
  const std::uint64_t gen_before = ar.manifest().generation;
  EXPECT_FALSE(ing.flush().has_value());
  EXPECT_EQ(ar.manifest().partitions.size(), 0u);
  EXPECT_EQ(ar.manifest().generation, gen_before);  // no commit without a cut
}

// ---------------------------------------------------------------------------
// The leveled planner: pure function of the manifest.

Manifest levels(std::initializer_list<std::uint32_t> ls) {
  Manifest m;
  std::uint64_t id = 1;
  for (const std::uint32_t l : ls) {
    PartitionInfo p;
    p.id = id++;
    p.level = l;
    m.partitions.push_back(p);
  }
  return m;
}

TEST(PlanLeveled, MergesLeftmostFullRunAtLowestLevel) {
  const LeveledPolicy pol{3};
  EXPECT_TRUE(plan_leveled(levels({}), pol).empty());
  EXPECT_TRUE(plan_leveled(levels({0, 0}), pol).empty());
  EXPECT_TRUE(plan_leveled(levels({0, 0, 1, 0}), pol).empty());  // runs broken

  const auto exact = plan_leveled(levels({0, 0, 0}), pol);
  ASSERT_EQ(exact.size(), 1u);
  EXPECT_EQ(exact[0].first, 0u);
  EXPECT_EQ(exact[0].count, 3u);
  EXPECT_EQ(exact[0].target_level, 1u);

  // Oldest `fanout` of a longer run: time order is preserved.
  const auto oldest = plan_leveled(levels({0, 0, 0, 0, 0}), pol);
  ASSERT_EQ(oldest.size(), 1u);
  EXPECT_EQ(oldest[0].first, 0u);
  EXPECT_EQ(oldest[0].count, 3u);

  // Lowest level wins even when a higher-level run comes first.
  const auto lowest = plan_leveled(levels({1, 1, 1, 0, 0, 0}), pol);
  ASSERT_EQ(lowest.size(), 1u);
  EXPECT_EQ(lowest[0].first, 3u);
  EXPECT_EQ(lowest[0].target_level, 1u);

  // Leftmost among equal-level runs.
  const auto leftmost = plan_leveled(levels({0, 0, 0, 1, 0, 0, 0}), pol);
  ASSERT_EQ(leftmost.size(), 1u);
  EXPECT_EQ(leftmost[0].first, 0u);
}

TEST(PlanLeveled, HostileLevelClampsInsteadOfWrapping) {
  const std::uint32_t top = std::numeric_limits<std::uint32_t>::max();
  const auto plan = plan_leveled(levels({top, top}), LeveledPolicy{2});
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].target_level, top);  // clamped, not wrapped to 0
}

TEST(PlanLeveled, RejectsDegenerateFanout) {
  EXPECT_THROW((void)plan_leveled(levels({0, 0}), LeveledPolicy{1}), util::ConfigError);
  EXPECT_THROW((void)plan_leveled(levels({0, 0}), LeveledPolicy{0}), util::ConfigError);
}

// ---------------------------------------------------------------------------
// The size-based planner: every maximal run of small neighbors.

/// A manifest of partitions holding `counts` logs, at level 0 unless
/// `lvls` says otherwise.
Manifest sizes(std::initializer_list<std::uint64_t> counts,
               std::initializer_list<std::uint32_t> lvls = {}) {
  Manifest m;
  std::uint64_t id = 1;
  for (const std::uint64_t c : counts) {
    PartitionInfo p;
    p.id = id++;
    p.log_count = c;
    m.partitions.push_back(p);
  }
  std::size_t i = 0;
  for (const std::uint32_t l : lvls) m.partitions[i++].level = l;
  return m;
}

TEST(PlanSmallRuns, MergesEveryMaximalRunOfSmallNeighbors) {
  // [s, s, B, s, s]: the big partition splits two runs.
  const auto two = plan_small_runs(sizes({1, 2, 50, 3, 4}), 10);
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0].first, 0u);
  EXPECT_EQ(two[0].count, 2u);
  EXPECT_EQ(two[0].target_level, 1u);
  EXPECT_EQ(two[1].first, 3u);
  EXPECT_EQ(two[1].count, 2u);
  EXPECT_EQ(two[1].target_level, 1u);

  // Maximal: a run takes every small neighbor, and a run ends at the
  // threshold (log_count == max_logs is not small).
  const auto whole = plan_small_runs(sizes({1, 2, 3, 10, 9}), 10);
  ASSERT_EQ(whole.size(), 1u);
  EXPECT_EQ(whole[0].first, 0u);
  EXPECT_EQ(whole[0].count, 3u);

  // A run's target is one above its highest level.
  const auto climbs = plan_small_runs(sizes({1, 1, 1}, {0, 2, 1}), 10);
  ASSERT_EQ(climbs.size(), 1u);
  EXPECT_EQ(climbs[0].target_level, 3u);
}

TEST(PlanSmallRuns, LoneSmallPartitionsAndZeroThresholdPlanNothing) {
  EXPECT_TRUE(plan_small_runs(sizes({}), 10).empty());
  EXPECT_TRUE(plan_small_runs(sizes({1}), 10).empty());
  EXPECT_TRUE(plan_small_runs(sizes({50, 1, 50}), 10).empty());  // [B, s, B]
  EXPECT_TRUE(plan_small_runs(sizes({0, 0, 0}), 0).empty());     // nothing is < 0
}

TEST(PlanSmallRuns, HostileLevelClampsInsteadOfWrapping) {
  const std::uint32_t top = std::numeric_limits<std::uint32_t>::max();
  const auto plan = plan_small_runs(sizes({1, 1, 1}, {0, top, 3}), 10);
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].target_level, top);  // clamped, not wrapped to 0
}

// ---------------------------------------------------------------------------
// The compaction executor, Archive::compact, against a real archive.

/// An archive of `n` one-log, one-window partitions.
Archive windows_archive(const fs::path& dir, std::uint64_t n) {
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Frame f = make_frame(i + 1, static_cast<std::int64_t>(i) * 100);
    (void)ing.append(f.job, f.bytes);
  }
  (void)ing.flush();
  EXPECT_EQ(ar.manifest().partitions.size(), n);
  return ar;
}

std::vector<std::string> listing(const fs::path& dir) {
  std::vector<std::string> names;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    names.push_back(e.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(CompactExecutor, TwoPlansCommitUnderOneGeneration) {
  const fs::path dir = fresh_dir("mlio_compact_two_plans");
  Archive ar = windows_archive(dir, 5);
  const std::vector<PartitionInfo> parts = ar.manifest().partitions;
  const std::uint64_t gen = ar.manifest().generation;
  const std::vector<std::byte> before = state(ar);

  const std::vector<CompactionPlan> plans = {{0, 2, 1}, {3, 2, 4}};
  const std::vector<Archive::CompactedRun> runs = ar.compact(plans);
  EXPECT_EQ(ar.manifest().generation, gen + 1);  // one manifest write for both
  ASSERT_EQ(runs.size(), 2u);
  const std::vector<PartitionInfo>& now = ar.manifest().partitions;
  ASSERT_EQ(now.size(), 3u);
  EXPECT_EQ(now[0].id, runs[0].merged.id);
  EXPECT_EQ(now[1].id, parts[2].id);  // untouched partition keeps its place
  EXPECT_EQ(now[2].id, runs[1].merged.id);
  EXPECT_LT(runs[0].merged.id, runs[1].merged.id);  // ids allocated in plan order
  EXPECT_EQ(runs[0].merged.level, 1u);
  EXPECT_EQ(runs[1].merged.level, 4u);
  EXPECT_EQ(runs[1].merged.data_generation, gen + 1);
  ASSERT_EQ(runs[0].inputs.size(), 2u);
  EXPECT_EQ(runs[0].inputs[0].id, parts[0].id);
  EXPECT_EQ(runs[0].inputs[1].id, parts[1].id);
  ASSERT_EQ(runs[1].inputs.size(), 2u);
  EXPECT_EQ(runs[1].inputs[0].id, parts[3].id);
  EXPECT_EQ(runs[1].inputs[1].id, parts[4].id);
  EXPECT_EQ(runs[1].merged.window_min, 4u);
  EXPECT_EQ(runs[1].merged.window_max, 5u);
  EXPECT_EQ(state(ar), before);
  EXPECT_TRUE(ar.verify(true).ok());
  EXPECT_FALSE(fs::exists(ar.segment_path(parts[0].id)));  // sources collected
  EXPECT_TRUE(fs::exists(ar.segment_path(parts[2].id)));

  // An empty plan list writes nothing.
  EXPECT_TRUE(ar.compact(std::vector<CompactionPlan>{}).empty());
  EXPECT_EQ(ar.manifest().generation, gen + 1);
}

TEST(CompactExecutor, RejectsBadPlanListsBeforeStagingAnything) {
  const fs::path dir = fresh_dir("mlio_compact_bad_plans");
  Archive ar = windows_archive(dir, 4);
  const std::vector<std::string> files = listing(dir);
  const std::uint64_t gen = ar.manifest().generation;
  const std::uint64_t next_id = ar.manifest().next_partition_id;

  const std::vector<std::vector<CompactionPlan>> bad = {
      {{0, 2, 1}, {1, 2, 1}},  // overlapping
      {{2, 2, 1}, {0, 2, 1}},  // unsorted
      {{0, 1, 1}},             // count < 2
      {{0, 0, 1}},             // empty run
      {{3, 2, 1}},             // runs past the end
      {{5, 2, 1}},             // first out of range
      {{0, 2, 1}, {2, 3, 1}},  // a good plan ahead of a bad one stages nothing
  };
  for (const std::vector<CompactionPlan>& plans : bad) {
    EXPECT_THROW((void)ar.compact(plans), util::ConfigError);
    EXPECT_EQ(listing(dir), files);
    EXPECT_EQ(ar.manifest().generation, gen);
    EXPECT_EQ(ar.manifest().next_partition_id, next_id);
  }
  EXPECT_EQ(Archive::open(dir).manifest().generation, gen);
  EXPECT_TRUE(ar.verify(true).ok());
}

TEST(CompactLeveled, MergeUnionsWindowsBumpsLevelAndKeepsBitsFixed) {
  const fs::path dir = fresh_dir("mlio_compact_leveled");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);
  for (std::uint64_t i = 0; i < 4; ++i) {  // four 1-window partitions
    const Frame f = make_frame(i + 1, static_cast<std::int64_t>(i) * 100);
    (void)ing.append(f.job, f.bytes);
  }
  (void)ing.flush();
  ASSERT_EQ(ar.manifest().partitions.size(), 4u);
  const std::vector<std::byte> before = state(ar);

  const std::vector<Archive::CompactedRun> runs =
      ar.compact(plan_leveled(ar.manifest(), LeveledPolicy{2}));
  ASSERT_EQ(runs.size(), 1u);
  const PartitionInfo& merged = runs[0].merged;
  EXPECT_EQ(merged.window_min, 1u);
  EXPECT_EQ(merged.window_max, 2u);  // union of the two oldest windows
  EXPECT_EQ(merged.level, 1u);
  EXPECT_EQ(merged.log_count, 2u);
  ASSERT_EQ(ar.manifest().partitions.size(), 3u);
  EXPECT_EQ(state(ar), before);  // fixed cuts -> fixed bits, across the merge
  EXPECT_TRUE(ar.verify(true).ok());

  // Drain to the fixed point: every further merge preserves the bits.
  while (!ar.compact(plan_leveled(ar.manifest(), LeveledPolicy{2})).empty()) {
    EXPECT_EQ(state(ar), before);
    EXPECT_TRUE(ar.verify(true).ok());
  }
}

TEST(CompactLeveled, MergeSwallowingBatchPartitionExtendsIntoUnwindowedHistory) {
  const fs::path dir = fresh_dir("mlio_compact_batch_union");
  Archive ar = Archive::create(dir);
  {
    const Frame f = make_frame(1, 10);
    Archive::PartitionWriter w = ar.begin_partition();  // batch: window 0/0
    w.append_frame(f.job, f.bytes);
    w.seal();
  }
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);
  const Frame f2 = make_frame(2, 250);  // window 3
  (void)ing.append(f2.job, f2.bytes);
  (void)ing.flush();

  const std::vector<std::byte> before = state(ar);
  const std::vector<Archive::CompactedRun> runs =
      ar.compact(plan_leveled(ar.manifest(), LeveledPolicy{2}));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].merged.window_min, 0u);  // 0 dominates: reaches into batch history
  EXPECT_EQ(runs[0].merged.window_max, 3u);
  EXPECT_EQ(state(ar), before);
}

TEST(CompactLeveled, LivePartitionCountStaysSubLinearInWindows) {
  const fs::path dir = fresh_dir("mlio_compact_bound");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  StreamIngester ing(ar, opts);
  const LeveledPolicy pol{4};

  constexpr std::uint64_t kWindows = 64;
  std::vector<std::byte> expected;
  for (std::uint64_t i = 0; i < kWindows; ++i) {
    const Frame f = make_frame(i + 1, static_cast<std::int64_t>(i) * 100);
    (void)ing.append(f.job, f.bytes);
    // Compact to the fixed point after every publish, like the background
    // compactor drains cascades.
    while (!ar.compact(plan_leveled(ar.manifest(), pol)).empty()) {
    }
  }
  (void)ing.flush();
  while (!ar.compact(plan_leveled(ar.manifest(), pol)).empty()) {
  }

  // 64 windows at fanout 4: <= (fanout - 1) partitions per level across
  // log_4(64) = 3 levels, plus the level the cascade tops out at — far
  // below one partition per window.
  EXPECT_LE(ar.manifest().partitions.size(), 16u);
  EXPECT_GE(ar.manifest().partitions.size(), 1u);
  EXPECT_TRUE(ar.verify(true).ok());

  // Every log survived the merge cascade.
  std::uint64_t logs = 0;
  for (const PartitionInfo& p : ar.manifest().partitions) logs += p.log_count;
  EXPECT_EQ(logs, kWindows);
}

}  // namespace
}  // namespace mlio::archive
