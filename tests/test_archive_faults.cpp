// Crash-consistency and fault-injection coverage for the archive layer:
// an exhaustive crash sweep over the full ingest -> snapshot -> compact
// workload, compact source-lifetime checks, a pinned reader racing a
// crashing writer, both compact GC branches, and the FaultVfs under the
// parallel shard rebuild.  Every failure message carries the (seed,
// crash-at) pair needed to replay it with `mlio_archive --fault-spec`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <filesystem>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "archive/stream.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "harness/cold_query.hpp"
#include "harness/crash_sweep.hpp"
#include "service/service.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/vfs.hpp"
#include "workload/pipeline.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;

/// One pre-serialized log: the frame bytes plus the job header the
/// PartitionWriter needs.  Captured once so crash workloads replay the
/// exact same bytes on every run.
struct Frame {
  darshan::JobRecord job;
  std::vector<std::byte> bytes;
};

std::vector<Frame> capture_frames(std::uint64_t n_jobs, std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  std::vector<Frame> frames;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, n_jobs, /*workers=*/0,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       frames.push_back({job, {frame.begin(), frame.end()}});
                     });
  return frames;
}

core::Analysis shard_of(const std::vector<Frame>& frames, std::size_t lo, std::size_t hi) {
  core::Analysis shard;
  for (std::size_t i = lo; i < hi; ++i) shard.add(darshan::read_log_bytes(frames[i].bytes));
  return shard;
}

std::vector<std::byte> state(Archive& ar, unsigned threads = 1) {
  return core::write_snapshot_bytes(
      *harness::cold_get(ar, 0, threads, /*write_back=*/false).analysis, 0);
}

class ArchiveFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "mlio_archive_faults" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The tentpole: crash at EVERY file-system op of a full archive lifecycle
// (create, three-partition ingest, two snapshot stores, compact) and require
// that every reopened state verifies --deep, answers queries with a
// committed state only, and that .tmp litter is inert.
TEST_F(ArchiveFaultsTest, CrashSweepIngestSnapshotCompact) {
  const std::vector<Frame> frames = capture_frames(12, 9);
  ASSERT_GE(frames.size(), 3u);
  const std::size_t cut1 = frames.size() / 3;
  const std::size_t cut2 = 2 * frames.size() / 3;
  const core::Analysis shard0 = shard_of(frames, 0, cut1);
  const core::Analysis shard1 = shard_of(frames, cut1, cut2);

  const harness::CrashWorkload workload = [&](const fs::path& dir, util::Vfs& vfs) {
    Archive ar = Archive::create(dir, vfs);
    const std::size_t cuts[4] = {0, cut1, cut2, frames.size()};
    const core::Analysis* shards[3] = {&shard0, &shard1, nullptr};
    for (std::size_t p = 0; p < 3; ++p) {
      Archive::PartitionWriter w = ar.begin_partition();
      for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
        w.append_frame(frames[i].job, frames[i].bytes);
      }
      const PartitionInfo info = w.seal();
      if (shards[p] != nullptr) {
        const Archive::SnapshotReceipt receipt = ar.write_snapshot_file(info, *shards[p]);
        (void)ar.commit_snapshots({&receipt, 1});
      }
    }
    (void)ar.compact(plan_small_runs(ar.manifest(), 1'000'000));
  };

  harness::CrashSweepOptions opts;
  opts.seed = 7;
  const harness::CrashSweepReport rep = harness::crash_sweep(dir_, workload, opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  // Sanity: the sweep actually covered the whole lifecycle.
  EXPECT_GT(rep.total_ops, 40u);
  EXPECT_EQ(rep.crash_points, rep.total_ops);
  // Empty archive, 3 ingests, 2 snapshot stores, 1 compact = 7 manifest
  // publishes; distinct query states: empty + after each ingest + compacted.
  EXPECT_GE(rep.committed_states, 4u);
  EXPECT_GT(rep.replays_checked, 0u);
}

// Parallel group ingest under the same exhaustive sweep: three build
// workers race the committer while the crash fires at EVERY file op.  All
// VFS I/O stays on the committing thread in cut order, so the sweep's pass-1
// op recording is deterministic; the crash-visibility invariant says a
// reopened archive exposes whole committed groups only — so across two
// ingest calls the committed states are exactly {empty, group1,
// group1+group2}, never a partial batch, snapshots included.
TEST_F(ArchiveFaultsTest, CrashSweepParallelGroupIngest) {
  wl::GeneratorConfig cfg;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  cfg.seed = 13;
  cfg.n_jobs = 6;
  const wl::WorkloadGenerator gen1(wl::SystemProfile::cori_2019(), cfg);
  cfg.seed = 14;
  cfg.n_jobs = 5;
  const wl::WorkloadGenerator gen2(wl::SystemProfile::cori_2019(), cfg);

  const harness::CrashWorkload workload = [&](const fs::path& dir, util::Vfs& vfs) {
    Archive ar = Archive::create(dir, vfs);
    IngestOptions opts;
    opts.batches = 3;
    opts.include_huge = false;
    opts.write_snapshots = true;
    opts.ingest_threads = 3;  // workers race the committer on every replay
    ingest_generated(ar, gen1, opts);
    ingest_generated(ar, gen2, opts);
  };

  harness::CrashSweepOptions opts;
  opts.seed = 19;
  const harness::CrashSweepReport rep = harness::crash_sweep(dir_, workload, opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
  EXPECT_GT(rep.total_ops, 40u);
  EXPECT_EQ(rep.crash_points, rep.total_ops);
  // create + 2 group commits = 3 manifest publishes; with 3 partitions and
  // 3 snapshots per group riding each commit, the distinct committed states
  // are exactly empty / group1 / group1+group2 — a partial group is a bug.
  EXPECT_EQ(rep.committed_states, 3u);
  EXPECT_GT(rep.replays_checked, 0u);
}

// A second seed must also pass — and drive the rename/dirsync coins down
// different branches.
TEST_F(ArchiveFaultsTest, CrashSweepSecondSeed) {
  const std::vector<Frame> frames = capture_frames(6, 31);
  const harness::CrashWorkload workload = [&](const fs::path& dir, util::Vfs& vfs) {
    Archive ar = Archive::create(dir, vfs);
    Archive::PartitionWriter w = ar.begin_partition();
    for (const Frame& f : frames) w.append_frame(f.job, f.bytes);
    const PartitionInfo info = w.seal();
    const Archive::SnapshotReceipt receipt =
        ar.write_snapshot_file(info, shard_of(frames, 0, frames.size()));
    (void)ar.commit_snapshots({&receipt, 1});
  };
  harness::CrashSweepOptions opts;
  opts.seed = 1234;
  opts.replay_stride = 5;
  const harness::CrashSweepReport rep = harness::crash_sweep(dir_, workload, opts);
  EXPECT_TRUE(rep.ok()) << rep.summary();
}

// ---------------------------------------------------------------------------
// Compact source lifetime: sources are deleted only after the merged
// segment AND the new manifest are durably committed.  Crash before the
// manifest publish -> the old partitions are all still there and the
// archive answers exactly as before compact.  Crash after -> the compacted
// archive is live, with at worst unreferenced garbage on disk.
TEST_F(ArchiveFaultsTest, CompactSourcesOutliveCrashUntilCommit) {
  const std::vector<Frame> frames = capture_frames(9, 17);
  const std::size_t cut1 = frames.size() / 3;
  const std::size_t cut2 = 2 * frames.size() / 3;

  // Golden pre-compact archive on the real filesystem.
  const fs::path golden = dir_ / "golden";
  {
    Archive ar = Archive::create(golden);
    const std::size_t cuts[4] = {0, cut1, cut2, frames.size()};
    for (std::size_t p = 0; p < 3; ++p) {
      Archive::PartitionWriter w = ar.begin_partition();
      for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
        w.append_frame(frames[i].job, frames[i].bytes);
      }
      w.seal();
    }
  }
  std::vector<std::byte> before_state;
  std::vector<std::byte> after_state;
  {
    Archive ar = Archive::open(golden);
    before_state = state(ar);
  }

  // Count the compact-only op sequence and find its manifest publish.
  std::int64_t manifest_rename = -1;
  std::uint64_t compact_ops = 0;
  const auto run_compact = [&](const fs::path& work, util::Vfs& vfs) {
    Archive ar = Archive::open(work, vfs);
    (void)ar.compact(plan_small_runs(ar.manifest(), 1'000'000));
  };
  {
    const fs::path work = dir_ / "count";
    fs::copy(golden, work);
    util::FaultVfs vfs;
    vfs.after_op = [&](std::uint64_t idx, util::VfsOp op, const fs::path& path) {
      if (op == util::VfsOp::kRename && path.filename() == "manifest.bin") {
        manifest_rename = static_cast<std::int64_t>(idx);
      }
    };
    run_compact(work, vfs);
    compact_ops = vfs.op_count();
    Archive ar = Archive::open(work);
    after_state = state(ar);
  }
  ASSERT_GE(manifest_rename, 0);
  ASSERT_GT(compact_ops, static_cast<std::uint64_t>(manifest_rename) + 1);

  for (std::uint64_t at = 0; at < compact_ops; ++at) {
    SCOPED_TRACE("crash-at=" + std::to_string(at));
    const fs::path work = dir_ / ("crash" + std::to_string(at));
    fs::copy(golden, work);
    util::FaultPlan plan;
    plan.seed = 3;
    plan.crash_at = static_cast<std::int64_t>(at);
    util::FaultVfs vfs(plan);
    EXPECT_THROW(run_compact(work, vfs), util::SimulatedCrash);

    Archive ar = Archive::open(work);
    EXPECT_TRUE(ar.verify(true).ok());
    if (at <= static_cast<std::uint64_t>(manifest_rename)) {
      // Commit not durable yet: every source partition must still exist.
      EXPECT_EQ(ar.manifest().partitions.size(), 3u);
      for (std::uint64_t id = 1; id <= 3; ++id) {
        EXPECT_TRUE(fs::exists(work / ("p" + std::string(5, '0') + std::to_string(id) + ".seg")))
            << "compact deleted a source before the manifest commit";
      }
      EXPECT_EQ(state(ar), before_state);
    } else {
      // After the publish rename the outcome is either state; whichever the
      // coin picked, it must be exactly one of the two committed states.
      const std::vector<std::byte> got = state(ar);
      EXPECT_TRUE(got == before_state || got == after_state);
      if (ar.manifest().partitions.size() == 1u) {
        // Compact landed: the merged partition is self-contained even if
        // GC never ran — deleting every leftover source file changes nothing.
        for (std::uint64_t id = 1; id <= 3; ++id) {
          for (const char* ext : {".seg", ".idx", ".snap"}) {
            fs::remove(work / ("p" + std::string(5, '0') + std::to_string(id) + ext));
          }
        }
        Archive pruned = Archive::open(work);
        EXPECT_TRUE(pruned.verify(true).ok());
        EXPECT_EQ(state(pruned), got);
      }
    }
    fs::remove_all(work);
  }
}

// ---------------------------------------------------------------------------
// A reader that opened the archive before the writer started must be
// completely unaffected by the writer crashing at ANY point of an append:
// its pinned manifest only references immutable, already-durable files.
TEST_F(ArchiveFaultsTest, ConcurrentReaderVsCrashedWriter) {
  const std::vector<Frame> frames = capture_frames(8, 23);
  const std::size_t half = frames.size() / 2;

  {
    Archive setup = Archive::create(dir_);
    Archive::PartitionWriter w = setup.begin_partition();
    for (std::size_t i = 0; i < half; ++i) w.append_frame(frames[i].job, frames[i].bytes);
    w.seal();
  }
  Archive reader = Archive::open(dir_);  // pinned at generation G, real vfs
  const std::vector<std::byte> baseline = state(reader);

  // Remember the committed directory so each crashed writer can be undone.
  const std::vector<std::byte> manifest_bytes = util::read_file_bytes(dir_ / "manifest.bin");
  std::vector<std::string> committed_files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
    committed_files.push_back(e.path().filename().string());
  }
  const auto restore = [&] {
    for (const fs::directory_entry& e : fs::directory_iterator(dir_)) {
      const std::string name = e.path().filename().string();
      if (std::find(committed_files.begin(), committed_files.end(), name) ==
          committed_files.end()) {
        fs::remove(e.path());
      }
    }
    util::write_file_atomic(dir_ / "manifest.bin", manifest_bytes);
  };

  const auto writer_run = [&](util::Vfs& vfs) {
    Archive w = Archive::open(dir_, vfs);
    Archive::PartitionWriter pw = w.begin_partition();
    for (std::size_t i = half; i < frames.size(); ++i) {
      pw.append_frame(frames[i].job, frames[i].bytes);
    }
    pw.seal();
  };

  std::uint64_t writer_ops = 0;
  {
    util::FaultVfs vfs;
    writer_run(vfs);
    writer_ops = vfs.op_count();
    restore();
  }
  ASSERT_GT(writer_ops, 10u);

  for (std::uint64_t at = 0; at < writer_ops; ++at) {
    SCOPED_TRACE("writer crash-at=" + std::to_string(at));
    util::FaultPlan plan;
    plan.seed = 11;
    plan.crash_at = static_cast<std::int64_t>(at);
    util::FaultVfs vfs(plan);
    EXPECT_THROW(writer_run(vfs), util::SimulatedCrash);
    // The pinned reader sees the exact pre-writer result, byte for byte.
    EXPECT_EQ(state(reader), baseline);
    restore();
  }
}

// ---------------------------------------------------------------------------
// Satellite (b): both compact GC branches.  Failed removals surface in
// gc_errors() and on stderr but never fail the (already committed) compact;
// the clean path leaves no trace of the sources.
TEST_F(ArchiveFaultsTest, CompactGcErrorBranches) {
  const std::vector<Frame> frames = capture_frames(6, 41);
  const auto build = [&](const fs::path& dir, util::Vfs& vfs) {
    Archive ar = Archive::create(dir, vfs);
    for (std::size_t p = 0; p < 3; ++p) {
      Archive::PartitionWriter w = ar.begin_partition();
      for (std::size_t i = 2 * p; i < 2 * p + 2; ++i) {
        w.append_frame(frames[i].job, frames[i].bytes);
      }
      w.seal();
    }
  };

  // Branch 1: every .seg removal fails.  Compact still succeeds and the
  // archive is sound; the three failures are recorded, and the orphaned
  // source segments are still on disk.
  {
    const fs::path d = dir_ / "gcfail";
    util::FaultVfs vfs(util::FaultPlan::parse("fail-remove@0:*.seg"));
    build(d, vfs);
    Archive ar = Archive::open(d, vfs);
    const std::vector<Archive::CompactedRun> runs =
        ar.compact(plan_small_runs(ar.manifest(), 1'000'000));
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].inputs.size(), 3u);
    EXPECT_EQ(ar.gc_errors().size(), 3u);
    for (const std::string& e : ar.gc_errors()) {
      EXPECT_NE(e.find(".seg"), std::string::npos) << e;
    }
    EXPECT_TRUE(ar.verify(true).ok());
    EXPECT_TRUE(fs::exists(d / "p000001.seg"));
    EXPECT_FALSE(fs::exists(d / "p000001.idx"));  // only .seg removals failed

    // gc_errors is per-compact: a no-op compact clears it.
    EXPECT_TRUE(ar.compact(plan_small_runs(ar.manifest(), 1'000'000)).empty());
    EXPECT_TRUE(ar.gc_errors().empty());
  }

  // Branch 2: clean GC — no errors, sources gone.
  {
    const fs::path d = dir_ / "gcok";
    build(d, util::real_vfs());
    Archive ar = Archive::open(d);
    const std::vector<Archive::CompactedRun> runs =
        ar.compact(plan_small_runs(ar.manifest(), 1'000'000));
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].inputs.size(), 3u);
    EXPECT_TRUE(ar.gc_errors().empty());
    EXPECT_FALSE(fs::exists(d / "p000001.seg"));
    EXPECT_FALSE(fs::exists(d / "p000002.seg"));
    EXPECT_TRUE(ar.verify(true).ok());
  }
}

// ---------------------------------------------------------------------------
// A compaction that fails before its manifest write lands must leave the
// in-memory manifest untouched: the retry allocates the same partition id
// and leaves the archive byte-identical to a run that never failed.  Two
// failure points: staging the merged segment, and the manifest write.
TEST_F(ArchiveFaultsTest, FailedCompactStepRetriesToTheFaultFreeBytes) {
  const std::vector<Frame> frames = capture_frames(8, 23);
  ASSERT_GE(frames.size(), 8u);
  const auto build = [&](const fs::path& dir) {
    Archive ar = Archive::create(dir);
    for (std::size_t p = 0; p < 4; ++p) {
      Archive::PartitionWriter w = ar.begin_partition();
      for (std::size_t i = 2 * p; i < 2 * p + 2; ++i) {
        w.append_frame(frames[i].job, frames[i].bytes);
      }
      w.seal();
    }
  };
  const auto files_of = [](const fs::path& dir) {
    std::map<std::string, std::vector<std::byte>> files;
    for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
      files[e.path().filename().string()] = util::read_file_bytes(e.path());
    }
    return files;
  };
  const LeveledPolicy policy;  // fanout 4: p000001..p000004 -> p000005

  const fs::path clean = dir_ / "clean";
  build(clean);
  {
    service::ArchiveService svc(clean, {});
    const std::optional<PartitionInfo> merged = svc.compact_step(policy);
    ASSERT_TRUE(merged.has_value());
    EXPECT_EQ(merged->id, 5u);
  }
  const auto expected = files_of(clean);
  ASSERT_TRUE(expected.contains("p000005.seg"));

  for (const char* spec : {"fail-write@1:*.seg*", "fail-write@1:manifest.bin*"}) {
    SCOPED_TRACE(spec);
    const fs::path d = dir_ / "faulted";
    fs::remove_all(d);
    build(d);
    util::FaultVfs vfs(util::FaultPlan::parse(spec));
    {
      service::ArchiveService svc(d, {}, vfs);
      EXPECT_THROW((void)svc.compact_step(policy), util::IoError);
      const std::optional<PartitionInfo> merged = svc.compact_step(policy);
      ASSERT_TRUE(merged.has_value());
      EXPECT_EQ(merged->id, 5u);
    }
    const auto got = files_of(d);
    std::vector<std::string> got_names;
    std::vector<std::string> expected_names;
    for (const auto& [name, bytes] : got) got_names.push_back(name);
    for (const auto& [name, bytes] : expected) expected_names.push_back(name);
    EXPECT_EQ(got_names, expected_names);
    for (const auto& [name, bytes] : expected) {
      EXPECT_TRUE(got.contains(name) && got.at(name) == bytes) << name << " differs";
    }
    Archive reopened = Archive::open(d);
    EXPECT_TRUE(reopened.verify(true).ok());
  }
}

// ---------------------------------------------------------------------------
// The FaultVfs under the parallel shard rebuild: a truncating read fault
// must surface as a clean FormatError out of the worker pool, and a
// fault-free FaultVfs under 4 threads must agree with the real filesystem
// bit for bit.  (Runs under TSan in CI: op bookkeeping is shared state.)
TEST_F(ArchiveFaultsTest, ParallelRebuildThroughFaultVfs) {
  const std::vector<Frame> frames = capture_frames(8, 57);
  {
    Archive ar = Archive::create(dir_);
    for (std::size_t p = 0; p < 4; ++p) {
      Archive::PartitionWriter w = ar.begin_partition();
      for (std::size_t i = 2 * p; i < 2 * p + 2; ++i) {
        w.append_frame(frames[i].job, frames[i].bytes);
      }
      w.seal();
    }
  }
  std::vector<std::byte> reference;
  {
    Archive ar = Archive::open(dir_);
    reference = state(ar, 4);
  }

  {
    util::FaultVfs vfs;  // no faults: pure passthrough under contention
    Archive ar = Archive::open(dir_, vfs);
    EXPECT_EQ(state(ar, 4), reference);
    EXPECT_GT(vfs.op_count(), 8u);  // manifest + 4x(seg+idx) reads at least
  }
  {
    util::FaultVfs vfs(util::FaultPlan::parse("seed=2;read-truncate@1:*.seg"));
    Archive ar = Archive::open(dir_, vfs);
    EXPECT_THROW(state(ar, 4), util::FormatError);
  }
  {
    util::FaultVfs vfs(util::FaultPlan::parse("seed=2;bit-flip@2:*.idx"));
    Archive ar = Archive::open(dir_, vfs);
    EXPECT_THROW(state(ar, 4), util::FormatError);
  }
}

}  // namespace
}  // namespace mlio::archive
