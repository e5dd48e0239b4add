// Windowed-query property tests (DESIGN.md §14): at aligned window cuts,
// "Table 2 for the last N windows" must equal a whole-archive rebuild
// restricted to exactly those partitions — bit-identical canonical state
// bytes, not just fingerprints — for every N, and that identity must
// survive a leveled compaction that rewrites the very partitions the
// selection walks.  The oracle is built straight from the raw frames (the
// arrival sequence restricted to the covered window span), so it shares no
// code with the partition-suffix walk it checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/query.hpp"
#include "archive/stream.hpp"
#include "core/analysis.hpp"
#include "core/load_timeline.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/cold_query.hpp"
#include "service/service.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;

struct Frame {
  darshan::JobRecord job;
  std::vector<std::byte> bytes;
};

Frame make_frame(std::uint64_t job_id, std::int64_t start, std::uint64_t salt) {
  darshan::JobRecord job;
  job.job_id = job_id;
  job.nprocs = 2;
  job.nnodes = 1;
  darshan::Runtime rt(job, {{"/gpfs", "gpfs"}, {"/mnt/bb", "xfs"}});
  util::Rng rng(salt * 0x9e37u + job_id);
  const auto h =
      rt.open_file(darshan::ModuleId::kPosix, 0, "/gpfs/f" + std::to_string(job_id % 5), 0.0);
  rt.record_reads(h, 0, rng.log_uniform_u64(256, 1 << 16), rng.uniform_u64(1, 20), 0.0, 0.5);
  rt.record_writes(h, 0, rng.log_uniform_u64(256, 1 << 16), rng.uniform_u64(1, 20), 0.5, 0.4);
  const darshan::LogData log = rt.finalize(start, start + 30);
  Frame f;
  f.job = log.job;
  f.bytes = darshan::write_log_bytes(log);
  return f;
}

/// The last `n` windows of `ar` (0 = the whole archive), answered cold on
/// `threads` merge workers (0 = every core), with nothing written back.
service::ArchiveService::GetResult window_get(Archive& ar, std::uint64_t n,
                                              unsigned threads = 0) {
  return harness::cold_get(ar, n, threads, /*write_back=*/false);
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir;
}

std::vector<std::byte> state_bytes(const core::Analysis& a) {
  return core::write_snapshot_bytes(a, 0);
}

constexpr std::int64_t kWindowSeconds = 100;

/// The frame-level oracle: one flat fold, in arrival order, of every frame
/// whose window a selected partition declares.  The analysis state is
/// cut-invariant, so no shard boundaries are needed to reproduce the
/// answer bit for bit.  Built entirely from frames and the manifest's
/// window stamps, it independently verifies that every selected partition
/// holds exactly its declared windows — before AND after a leveled merge
/// rewrites the cuts.
core::Analysis oracle(const std::vector<Frame>& frames, const Manifest& m,
                      const WindowSelection& sel) {
  core::Analysis a;
  for (const Frame& f : frames) {
    const std::uint64_t w = window_id_for(f.job.start_time, kWindowSeconds);
    const bool selected = std::any_of(
        m.partitions.begin() + static_cast<std::ptrdiff_t>(sel.first), m.partitions.end(),
        [&](const PartitionInfo& p) {
          return w >= std::max<std::uint64_t>(p.window_min, 1) && w <= p.window_max;
        });
    if (selected) a.add(darshan::read_log_bytes(f.bytes));
  }
  return a;
}

/// For every requested N (including out-of-range clamps), the windowed
/// answer must be bit-identical to the frame oracle over the cuts the
/// selection names.  Valid both at aligned cuts (covered == requested)
/// and after a merge coarsened history (covered >= requested, honestly
/// reported via windows_covered).
void check_all_windows(Archive& ar, const std::vector<Frame>& frames,
                       std::uint64_t newest_window) {
  for (const unsigned threads : {1u, 4u}) {
    for (std::uint64_t n = 0; n <= newest_window + 2; ++n) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " n=" + std::to_string(n));
      const auto q = window_get(ar, n, threads);
      const WindowSelection& sel = q.windows;
      EXPECT_EQ(sel.newest_window, newest_window);
      EXPECT_EQ(state_bytes(*q.analysis), state_bytes(oracle(frames, ar.manifest(), sel)));
      if (n > 0 && !sel.whole_archive()) {
        EXPECT_GE(sel.windows_covered, n) << "selection must never silently truncate";
        EXPECT_EQ(sel.cutoff, newest_window - n + 1);
      }
    }
  }
}

/// Streams `windows` windows of 1-3 logs each (aligned cuts, one partition
/// per window) into a fresh archive at `dir`; returns the frames.
std::vector<Frame> stream_windows(const fs::path& dir, std::uint64_t windows) {
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = kWindowSeconds;
  StreamIngester ing(ar, opts);
  std::vector<Frame> frames;
  std::uint64_t job = 1;
  for (std::uint64_t w = 0; w < windows; ++w) {
    for (std::uint64_t l = 0; l < 1 + (w % 3); ++l) {
      frames.push_back(make_frame(job, static_cast<std::int64_t>(w) * kWindowSeconds +
                                           static_cast<std::int64_t>(l) * 7,
                                  job));
      (void)ing.append(frames.back().job, frames.back().bytes);
      ++job;
    }
  }
  (void)ing.flush();
  return frames;
}

TEST(WindowQuery, AlignedCutsAreBitIdenticalToFrameOracleForEveryN) {
  const fs::path dir = fresh_dir("mlio_window_aligned");
  // 8 windows, 1-3 logs each, all cuts on window boundaries (aligned).
  const std::vector<Frame> frames = stream_windows(dir, 8);
  Archive ar = Archive::open(dir);
  ASSERT_EQ(ar.manifest().partitions.size(), 8u);

  check_all_windows(ar, frames, 8);

  // At aligned cuts the selection covers EXACTLY the requested windows.
  const WindowSelection sel = window_get(ar, 3).windows;
  EXPECT_EQ(sel.windows_covered, 3u);
  EXPECT_EQ(sel.count, 3u);
}

TEST(WindowQuery, IdentityHoldsAcrossLeveledCompactionThatRewritesWindows) {
  const fs::path dir = fresh_dir("mlio_window_compacted");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = kWindowSeconds;
  StreamIngester ing(ar, opts);

  std::vector<Frame> frames;
  for (std::uint64_t w = 0; w < 9; ++w) {
    frames.push_back(
        make_frame(w + 1, static_cast<std::int64_t>(w) * kWindowSeconds + 5, w * 31));
    const Frame& f = frames.back();
    (void)ing.append(f.job, f.bytes);
  }
  (void)ing.flush();
  ASSERT_EQ(ar.manifest().partitions.size(), 9u);
  check_all_windows(ar, frames, 9);

  // Merge step by step; after EVERY merge the identity must still hold for
  // every N — suffixes the merge coarsened honestly widen to the merged
  // span, and every answer is the flat fold of the logs it covers.
  while (!ar.compact(plan_leveled(ar.manifest(), LeveledPolicy{3})).empty()) {
    check_all_windows(ar, frames, 9);
  }
  EXPECT_LT(ar.manifest().partitions.size(), 9u);  // compaction actually ran
}

TEST(WindowQuery, SnapshotAndRescanAnswersAreBitIdentical) {
  const fs::path dir = fresh_dir("mlio_window_snap");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = kWindowSeconds;
  opts.write_snapshots = true;  // windows publish with their shard snapshot
  StreamIngester ing(ar, opts);

  std::vector<Frame> frames;
  for (std::uint64_t w = 0; w < 5; ++w) {
    frames.push_back(
        make_frame(w + 1, static_cast<std::int64_t>(w) * kWindowSeconds + 3, w * 17));
    const Frame& f = frames.back();
    (void)ing.append(f.job, f.bytes);
  }
  (void)ing.flush();

  const auto from_snap = window_get(ar, 2);
  EXPECT_EQ(from_snap.stats.query.snapshot_hits, from_snap.windows.count);
  EXPECT_EQ(from_snap.stats.query.partitions_scanned, 0u);

  // Drop the snapshots: the rescan path must produce the same bits.
  for (const PartitionInfo& p : ar.manifest().partitions) {
    fs::remove(ar.snapshot_path(p.id));
  }
  ar.reload();
  const auto rescanned = window_get(ar, 2);
  EXPECT_GT(rescanned.stats.query.partitions_scanned, 0u);
  EXPECT_EQ(state_bytes(*rescanned.analysis), state_bytes(*from_snap.analysis));
}

TEST(WindowQuery, OneResolverAgreesAcrossQueryServiceAndReplay) {
  // Every other window carries a snapshot (built straight from its frames),
  // so each suffix mixes snapshot hits and rescans.  Cold gets on 1 and 4
  // merge workers, one service cold (snapshot or rescan) then warm (shard
  // cache), and the serial replay must all give the same state bytes, and
  // every resolving path must split its shards exactly by which windows
  // have snapshots.
  const fs::path dir = fresh_dir("mlio_window_resolver");
  const std::vector<Frame> frames = stream_windows(dir, 8);
  {
    Archive ar = Archive::open(dir);
    ASSERT_EQ(ar.manifest().partitions.size(), 8u);
    for (std::size_t i = 1; i < 8; i += 2) {
      core::Analysis shard;
      for (const Frame& f : frames) {
        if (window_id_for(f.job.start_time, kWindowSeconds) == i + 1) {
          shard.add(darshan::read_log_bytes(f.bytes));
        }
      }
      const Archive::SnapshotReceipt receipt =
          ar.write_snapshot_file(ar.manifest().partitions[i], shard);
      (void)ar.commit_snapshots({&receipt, 1});
    }
  }

  Archive ar = Archive::open(dir);
  const std::uint64_t generation = ar.manifest().generation;
  const std::vector<PartitionInfo>& parts = ar.manifest().partitions;
  for (std::uint64_t n = 0; n <= 10; ++n) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const auto q1 = window_get(ar, n, 1);
    const auto q4 = window_get(ar, n, 4);
    const WindowSelection& sel = q1.windows;

    std::uint64_t snapshots = 0, rescans = 0, rescanned_logs = 0;
    for (std::size_t i = sel.first; i < parts.size(); ++i) {
      if (parts[i].has_snapshot) {
        snapshots += 1;
      } else {
        rescans += 1;
        rescanned_logs += parts[i].log_count;
      }
    }
    EXPECT_EQ(snapshots + rescans, sel.count);
    for (const auto* q : {&q1, &q4}) {
      EXPECT_EQ(q->stats.query.snapshot_hits, snapshots);
      EXPECT_EQ(q->stats.query.partitions_scanned, rescans);
      EXPECT_EQ(q->stats.query.logs_scanned, rescanned_logs);
      EXPECT_EQ(q->stats.query.snapshots_written, 0u);
    }

    service::ArchiveService::Options so;
    so.merge_threads = 2;
    so.merged.capacity_bytes = 0;  // no answer memo: the warm get resolves from the shard cache
    service::ArchiveService svc(dir, so);
    const service::ArchiveService::GetResult cold = svc.get_window(n, true);
    EXPECT_EQ(cold.stats.query.cache_hits, 0u);
    EXPECT_EQ(cold.stats.query.snapshot_hits, snapshots);
    EXPECT_EQ(cold.stats.query.partitions_scanned, rescans);
    EXPECT_EQ(cold.stats.query.logs_scanned, rescanned_logs);
    const service::ArchiveService::GetResult warm = svc.get_window(n, true);
    EXPECT_EQ(warm.stats.query.cache_hits, sel.count);
    EXPECT_EQ(warm.stats.query.snapshot_hits, 0u);
    EXPECT_EQ(warm.stats.query.partitions_scanned, 0u);

    const std::vector<std::byte> expected = state_bytes(svc.replay_serial_window(cold.pin, n));
    EXPECT_EQ(state_bytes(*q1.analysis), expected);
    EXPECT_EQ(state_bytes(*q4.analysis), expected);
    EXPECT_EQ(state_bytes(*cold.analysis), expected);
    EXPECT_EQ(state_bytes(*warm.analysis), expected);
  }
  // The windowed gets wrote nothing back: the manifest never moved.
  EXPECT_EQ(Archive::open(dir).manifest().generation, generation);
}

TEST(WindowQuery, CorruptSegmentInWindowFailsTheSameAtAnyThreadCount) {
  // Two damaged segments inside the window: every thread count reports the
  // same typed error, naming the lower-indexed partition.
  const fs::path dir = fresh_dir("mlio_window_corrupt");
  (void)stream_windows(dir, 8);
  Archive ar = Archive::open(dir);
  const std::vector<PartitionInfo>& parts = ar.manifest().partitions;
  ASSERT_EQ(parts.size(), 8u);
  for (const std::size_t i : {4u, 6u}) {
    const fs::path seg = ar.segment_path(parts[i].id);
    std::vector<char> bytes(static_cast<std::size_t>(fs::file_size(seg)));
    std::ifstream(seg, std::ios::binary)
        .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x5a);
    std::ofstream(seg, std::ios::binary | std::ios::trunc)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  const std::string lower = ar.segment_path(parts[4].id).string();
  for (const unsigned threads : {1u, 4u, 4u, 4u, 4u}) {
    try {
      (void)window_get(ar, 4, threads);
      ADD_FAILURE() << "threads=" << threads << ": corrupt window answered";
    } catch (const util::FormatError& e) {
      EXPECT_NE(std::string(e.what()).find(lower), std::string::npos)
          << "threads=" << threads << ": " << e.what();
    }
  }
  // A window past the damaged partitions still answers.
  EXPECT_NO_THROW((void)window_get(ar, 1));
}

TEST(WindowQuery, SelectionEdgeCases) {
  // Empty manifest.
  Manifest empty;
  const WindowSelection none = select_last_windows(empty, 3);
  EXPECT_TRUE(none.whole_archive());
  EXPECT_EQ(none.count, 0u);
  EXPECT_EQ(none.windows_covered, 0u);

  // Batch-only archive: no windowed partitions -> whole archive.
  Manifest batch;
  batch.partitions.resize(3);
  const WindowSelection all = select_last_windows(batch, 2);
  EXPECT_TRUE(all.whole_archive());
  EXPECT_EQ(all.count, 3u);

  // A batch partition STOPS the backward walk: only the windowed tail is
  // ever selected by a bounded request.
  Manifest mixed;
  mixed.partitions.resize(3);
  mixed.partitions[1].window_min = mixed.partitions[1].window_max = 4;
  mixed.partitions[2].window_min = mixed.partitions[2].window_max = 5;
  const WindowSelection tail = select_last_windows(mixed, 2);
  EXPECT_EQ(tail.first, 1u);
  EXPECT_EQ(tail.count, 2u);
  EXPECT_EQ(tail.windows_covered, 2u);

  // Requests beyond the archive's span clamp to the whole archive; huge N
  // must not overflow the cutoff arithmetic.
  const WindowSelection clamped =
      select_last_windows(mixed, std::numeric_limits<std::uint64_t>::max());
  EXPECT_TRUE(clamped.whole_archive());
  EXPECT_EQ(clamped.count, 3u);

  // Hostile window ids at the top of the range: selection stays in bounds.
  Manifest hostile;
  hostile.partitions.resize(2);
  hostile.partitions[1].window_min = std::numeric_limits<std::uint64_t>::max();
  hostile.partitions[1].window_max = std::numeric_limits<std::uint64_t>::max();
  const WindowSelection top = select_last_windows(hostile, 1);
  EXPECT_EQ(top.first, 1u);
  EXPECT_EQ(top.count, 1u);
  EXPECT_EQ(top.cutoff, std::numeric_limits<std::uint64_t>::max());
}

TEST(WindowQuery, TimelineCoversExactlyTheSelectedSuffix) {
  const fs::path dir = fresh_dir("mlio_window_timeline");
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = kWindowSeconds;
  StreamIngester ing(ar, opts);
  std::vector<Frame> frames;
  for (std::uint64_t w = 0; w < 4; ++w) {
    frames.push_back(
        make_frame(w + 1, static_cast<std::int64_t>(w) * kWindowSeconds + 2, w * 7));
    const Frame& f = frames.back();
    (void)ing.append(f.job, f.bytes);
  }
  (void)ing.flush();

  const WindowSelection sel = window_get(ar, 2).windows;
  ASSERT_EQ(sel.count, 2u);  // windows 3 and 4 -> the last two partitions
  const core::LoadTimeline tl = window_timeline(ar, ar.manifest(), sel, 500, 50);

  // Reference: feed the SAME selected logs straight into a timeline — the
  // suffix replay must match it bucket for bucket, and the unselected
  // early-window logs must leave no trace.
  core::LoadTimeline ref(500, 50);
  ref.add_log(darshan::read_log_bytes(frames[2].bytes));
  ref.add_log(darshan::read_log_bytes(frames[3].bytes));
  ASSERT_EQ(tl.buckets(), ref.buckets());
  for (std::size_t b = 0; b < tl.buckets(); ++b) {
    EXPECT_EQ(tl.bucket(b).active_logs, ref.bucket(b).active_logs) << "bucket " << b;
    EXPECT_EQ(tl.bucket(b).read_bytes[1], ref.bucket(b).read_bytes[1]) << "bucket " << b;
  }
  EXPECT_EQ(tl.busy_fraction(), ref.busy_fraction());
  EXPECT_GT(tl.peak_concurrency(), 0u);
}

}  // namespace
}  // namespace mlio::archive
