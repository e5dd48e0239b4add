// Crash-consistency for the LIVE archive (DESIGN.md §14): the PR 5 crash
// sweep pointed at a streaming workload — window cuts publishing through
// the group commit while leveled compaction rewrites the very partitions
// the stream just appended.  The sweep kills the process at EVERY
// file-system op; a reopened archive must verify --deep, answer queries
// with a committed *window state* only (never a half-published window,
// never a half-merged run), and `.tmp` litter must be inert.
//
// The harness requires a deterministic single-threaded op sequence, so the
// workload interleaves StreamIngester appends and leveled compaction steps on
// one thread through the injected vfs; the true three-thread race is
// covered by test_stream_live under TSan.  Carries the "faults" label.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/stream.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/cold_query.hpp"
#include "harness/crash_sweep.hpp"
#include "util/rng.hpp"
#include "util/vfs.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kWindowSeconds = 100;

struct Frame {
  darshan::JobRecord job;
  std::vector<std::byte> bytes;
};

/// Fixed start times -> fixed window cuts -> the exact same op sequence on
/// every replay, which is the harness's whole contract.
std::vector<Frame> capture_frames(std::uint64_t n, std::uint64_t seed) {
  std::vector<Frame> frames;
  for (std::uint64_t i = 0; i < n; ++i) {
    darshan::JobRecord job;
    job.job_id = i + 1;
    job.nprocs = 2;
    job.nnodes = 1;
    darshan::Runtime rt(job, {{"/gpfs", "gpfs"}, {"/mnt/bb", "xfs"}});
    util::Rng rng(seed * 0x51edu + i);
    const auto h =
        rt.open_file(darshan::ModuleId::kPosix, 0, "/gpfs/f" + std::to_string(i % 3), 0.0);
    rt.record_reads(h, 0, rng.log_uniform_u64(256, 1 << 14), rng.uniform_u64(1, 16), 0.0, 0.4);
    rt.record_writes(h, 0, rng.log_uniform_u64(256, 1 << 14), rng.uniform_u64(1, 16), 0.4, 0.4);
    // Two logs per window, strictly increasing start times.
    const std::int64_t start = static_cast<std::int64_t>(i / 2) * kWindowSeconds +
                               static_cast<std::int64_t>(i % 2) * 11;
    const darshan::LogData log = rt.finalize(start, start + 20);
    frames.push_back({log.job, darshan::write_log_bytes(log)});
  }
  return frames;
}

class StreamFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "mlio_stream_faults" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

/// The live workload: stream 6 windows of frames, and after every window
/// cut give the leveled compactor one step — exactly the interleaving the
/// background thread produces, serialized for determinism.
harness::CrashWorkload live_workload(const std::vector<Frame>& frames, bool snapshots) {
  return [&frames, snapshots](const fs::path& dir, util::Vfs& vfs) {
    Archive ar = Archive::create(dir, vfs);
    StreamOptions opts;
    opts.window_seconds = kWindowSeconds;
    opts.write_snapshots = snapshots;
    StreamIngester ing(ar, opts);
    const LeveledPolicy policy{2};  // smallest fanout: merges fire early and often
    for (const Frame& f : frames) {
      if (ing.append(f.job, f.bytes)) {
        (void)ar.compact(plan_leveled(ar.manifest(), policy));  // racing merge between window commits
      }
    }
    (void)ing.flush();
    (void)ar.compact(plan_leveled(ar.manifest(), policy));
  };
}

// The satellite's core claim: crash at EVERY file op of the streaming +
// compacting lifecycle and only committed window states are ever visible.
TEST_F(StreamFaultsTest, CrashSweepStreamingIngestVsLeveledCompaction) {
  const std::vector<Frame> frames = capture_frames(12, 3);  // 6 windows x 2 logs
  harness::CrashSweepOptions opts;
  opts.seed = 29;
  const harness::CrashSweepReport rep =
      harness::crash_sweep(dir_, live_workload(frames, /*snapshots=*/false), opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.total_ops, 40u);  // covered the full stream + merges
  EXPECT_EQ(rep.crash_points, rep.total_ops);
  // create + 6 window publishes + merges each publish a manifest; distinct
  // query states are at least empty + several window frontiers.
  EXPECT_GE(rep.committed_states, 4u);
  EXPECT_GT(rep.replays_checked, 0u);
}

// Same sweep with per-window snapshots riding each commit: a crash between
// the shard write and the manifest rename must never expose a torn
// snapshot, and snapshot bytes must survive the merges they are folded into.
TEST_F(StreamFaultsTest, CrashSweepWindowSnapshotsRideTheCommit) {
  const std::vector<Frame> frames = capture_frames(10, 5);  // 5 windows x 2 logs
  harness::CrashSweepOptions opts;
  opts.seed = 53;
  opts.replay_stride = 7;
  const harness::CrashSweepReport rep =
      harness::crash_sweep(dir_, live_workload(frames, /*snapshots=*/true), opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_EQ(rep.crash_points, rep.total_ops);
  EXPECT_GE(rep.committed_states, 4u);
}

// Window metadata is part of the durability contract: after every committed
// state of the fault-free run, the manifest's window ranges are sane
// (non-inverted, non-overlapping frontier, level-0 tail), so a crashed-and-
// reopened archive can always answer "last N windows" from what it finds.
TEST_F(StreamFaultsTest, ReopenedArchivesAnswerWindowedQueries) {
  const std::vector<Frame> frames = capture_frames(12, 7);
  util::FaultVfs vfs;  // fault-free; we only want the committed frontier
  const fs::path dir = dir_ / "live";
  fs::create_directories(dir);

  std::uint64_t checked = 0;
  vfs.after_op = [&](std::uint64_t, util::VfsOp op, const fs::path& path) {
    if (op != util::VfsOp::kRename || path.filename() != "manifest.bin") return;
    // Reopen on the REAL filesystem, exactly like a post-crash restart.
    Archive ar = Archive::open(dir);
    std::uint64_t newest = 0;
    std::uint64_t prev_max = 0;
    for (const PartitionInfo& p : ar.manifest().partitions) {
      ASSERT_LE(p.window_min, p.window_max);
      if (p.window_max != 0) {
        ASSERT_GE(p.window_max, prev_max) << "window frontier went backwards";
        prev_max = p.window_max;
      }
      newest = std::max(newest, p.window_max);
    }
    const auto q = harness::cold_get(ar, 2);
    ASSERT_EQ(q.windows.newest_window, newest);
    checked += 1;
  };
  live_workload(frames, /*snapshots=*/false)(dir, vfs);
  EXPECT_GT(checked, 5u);  // every window publish and every merge was checked
}

}  // namespace
}  // namespace mlio::archive
