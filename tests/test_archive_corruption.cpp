// Corruption robustness: a damaged archive must never be silently wrong.
// Truncated segments, bit-flipped manifests, and stale snapshot generations
// must each fail `verify` and either throw FormatError or fall back to a
// rescan — never return corrupted analysis results.
#include <gtest/gtest.h>

#include <filesystem>
#include <limits>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "archive/stream.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/cold_query.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/pipeline.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;
using harness::cold_get;

class ArchiveCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "mlio_archive_corruption" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_.parent_path());

    wl::GeneratorConfig cfg;
    cfg.seed = 23;
    cfg.n_jobs = 16;
    cfg.logs_per_job_scale = 0.2;
    cfg.files_per_log_scale = 0.2;
    const wl::WorkloadGenerator gen(wl::SystemProfile::summit_2020(), cfg);
    Archive ar = Archive::create(dir_);
    IngestOptions iopts;
    iopts.batches = 2;
    iopts.include_huge = false;
    iopts.write_snapshots = true;
    ingest_generated(ar, gen, iopts);
    clean_state_ = core::write_snapshot_bytes(*cold_get(ar).analysis, 0);
    ASSERT_TRUE(ar.verify(true).ok());
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Path of the file for partition `i` (0-based) with the given extension.
  fs::path part_file(std::size_t i, const std::string& ext) {
    Archive ar = Archive::open(dir_);
    const std::uint64_t id = ar.manifest().partitions.at(i).id;
    char name[32];
    std::snprintf(name, sizeof name, "p%06llu.%s", static_cast<unsigned long long>(id),
                  ext.c_str());
    return dir_ / name;
  }

  static void flip_byte(const fs::path& path, std::size_t pos) {
    std::vector<std::byte> bytes = util::read_file_bytes(path);
    ASSERT_LT(pos, bytes.size());
    bytes[pos] ^= std::byte{0x41};
    util::write_file_atomic(path, bytes);
  }

  static void truncate_file(const fs::path& path, std::size_t drop) {
    std::vector<std::byte> bytes = util::read_file_bytes(path);
    ASSERT_LT(drop, bytes.size());
    bytes.resize(bytes.size() - drop);
    util::write_file_atomic(path, bytes);
  }

  fs::path dir_;
  std::vector<std::byte> clean_state_;
};

TEST_F(ArchiveCorruption, TruncatedSegmentFailsVerifyAndScan) {
  truncate_file(part_file(0, "seg"), 5);
  Archive ar = Archive::open(dir_);
  const Archive::VerifyReport rep = ar.verify(false);
  EXPECT_FALSE(rep.ok());
  EXPECT_FALSE(rep.issues.empty());

  // The snapshot is still valid, so a query legitimately serves the cache...
  const auto cached = cold_get(ar);
  EXPECT_EQ(cached.stats.query.snapshot_hits, 2u);
  EXPECT_EQ(core::write_snapshot_bytes(*cached.analysis, 0), clean_state_);

  // ...but a forced rescan of the damaged partition must throw, not return
  // a partial analysis.
  fs::remove(part_file(0, "snap"));
  Archive reopened = Archive::open(dir_);
  EXPECT_THROW(cold_get(reopened), util::FormatError);
}

TEST_F(ArchiveCorruption, BitFlippedManifestFailsOpen) {
  const fs::path manifest = dir_ / "manifest.bin";
  const std::vector<std::byte> bytes = util::read_file_bytes(manifest);
  util::Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    auto corrupted = bytes;
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(0, corrupted.size() - 1));
    corrupted[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
    util::write_file_atomic(manifest, corrupted);
    try {
      Archive ar = Archive::open(dir_);
      // CRC collision or a flip in ignorable bits: whatever opened must
      // still verify clean or report issues — never crash.
      ar.verify(false);
    } catch (const util::FormatError&) {
      // expected for nearly every flip
    }
  }
  util::write_file_atomic(manifest, bytes);
  EXPECT_TRUE(Archive::open(dir_).verify(true).ok());
}

TEST_F(ArchiveCorruption, BitFlippedSegmentBodyIsNeverSilentlyWrong) {
  // Flip a byte in the middle of a log frame: segment CRC catches it on both
  // verify and rescan.
  const fs::path seg = part_file(1, "seg");
  flip_byte(seg, util::read_file_bytes(seg).size() / 2);
  Archive ar = Archive::open(dir_);
  EXPECT_FALSE(ar.verify(true).ok());

  fs::remove(part_file(1, "snap"));
  Archive reopened = Archive::open(dir_);
  EXPECT_THROW(cold_get(reopened), util::FormatError);
}

TEST_F(ArchiveCorruption, CorruptSnapshotFallsBackToRescan) {
  flip_byte(part_file(0, "snap"), 20);
  Archive ar = Archive::open(dir_);

  // verify reports the bad snapshot as an issue...
  const Archive::VerifyReport rep = ar.verify(false);
  EXPECT_FALSE(rep.ok());
  EXPECT_EQ(rep.snapshots_valid, 1u);

  // ...and the query transparently rescans that partition, reproducing the
  // clean result bit for bit (and healing the cache).
  const auto q = cold_get(ar);
  EXPECT_EQ(q.stats.query.snapshot_hits, 1u);
  EXPECT_EQ(q.stats.query.partitions_scanned, 1u);
  EXPECT_EQ(q.stats.query.snapshots_written, 1u);
  EXPECT_EQ(core::write_snapshot_bytes(*q.analysis, 0), clean_state_);

  Archive healed = Archive::open(dir_);
  EXPECT_TRUE(healed.verify(true).ok());
  const auto warm = cold_get(healed);
  EXPECT_EQ(warm.stats.query.partitions_scanned, 0u);
}

TEST_F(ArchiveCorruption, StaleSnapshotGenerationTriggersRescan) {
  // Forge the one state a crash could leave after a future data-rewriting
  // operation: the manifest says the partition's data changed (bumped
  // data_generation) but the snapshot was taken at the old generation.
  {
    Archive ar = Archive::open(dir_);
    Manifest m = ar.manifest();
    m.generation += 1;
    m.partitions.at(0).data_generation = m.generation;
    util::write_file_atomic(dir_ / "manifest.bin", write_manifest_bytes(m));
  }

  Archive ar = Archive::open(dir_);
  const Archive::VerifyReport rep = ar.verify(false);
  EXPECT_FALSE(rep.ok());  // stale snapshots are reportable issues
  EXPECT_EQ(rep.snapshots_stale, 1u);
  EXPECT_EQ(rep.snapshots_valid, 1u);

  // The query must not trust the stale shard: partition 0 is rescanned.
  const auto q = cold_get(ar);
  EXPECT_EQ(q.stats.query.snapshot_hits, 1u);
  EXPECT_EQ(q.stats.query.partitions_scanned, 1u);
  // Same data, same cuts — the rescan reproduces the clean bits.
  EXPECT_EQ(core::write_snapshot_bytes(*q.analysis, 0), clean_state_);
}

TEST_F(ArchiveCorruption, MissingIndexFailsVerify) {
  fs::remove(part_file(0, "idx"));
  Archive ar = Archive::open(dir_);
  EXPECT_FALSE(ar.verify(false).ok());
}

TEST_F(ArchiveCorruption, RandomMutationPropertySweep) {
  // Property: for ANY single-file mutation (bit flip, truncation, garbage
  // extension) of any archive file, open + verify + query either throws a
  // typed util::Error or answers with exactly the clean bytes (a valid
  // snapshot or a rescan legitimately masks damage elsewhere) — never a
  // crash, never a silently different analysis.  Each iteration derives
  // its Rng from (kBaseSeed, iter); a failure prints the pair to replay
  // it in isolation.
  constexpr std::uint64_t kBaseSeed = 20260806;
  constexpr int kIters = 150;

  std::vector<fs::path> files = {dir_ / "manifest.bin"};
  for (std::size_t i = 0; i < 2; ++i) {
    for (const char* ext : {"seg", "idx", "snap"}) files.push_back(part_file(i, ext));
  }
  std::vector<std::vector<std::byte>> pristine;
  pristine.reserve(files.size());
  for (const fs::path& f : files) pristine.push_back(util::read_file_bytes(f));

  for (int iter = 0; iter < kIters; ++iter) {
    SCOPED_TRACE("replay with Rng::stream(" + std::to_string(kBaseSeed) + ", " +
                 std::to_string(iter) + ")");
    util::Rng rng = util::Rng::stream(kBaseSeed, static_cast<std::uint64_t>(iter));

    const auto target = static_cast<std::size_t>(rng.uniform_u64(0, files.size() - 1));
    std::vector<std::byte> bytes = pristine[target];
    switch (rng.uniform_u64(0, 2)) {
      case 0: {  // flip one random byte
        const auto pos = static_cast<std::size_t>(rng.uniform_u64(0, bytes.size() - 1));
        bytes[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
        break;
      }
      case 1: {  // truncate to a random prefix (possibly empty)
        bytes.resize(static_cast<std::size_t>(rng.uniform_u64(0, bytes.size() - 1)));
        break;
      }
      default: {  // append random garbage
        const std::uint64_t extra = rng.uniform_u64(1, 64);
        for (std::uint64_t i = 0; i < extra; ++i) {
          bytes.push_back(static_cast<std::byte>(rng.uniform_u64(0, 255)));
        }
        break;
      }
    }
    util::write_file_atomic(files[target], bytes);

    try {
      Archive ar = Archive::open(dir_);
      ar.verify(true);  // must not crash; issues are fine
      // The probe must not heal the archive: no write-back.
      const auto q = cold_get(ar, 0, 0, /*write_back=*/false);
      EXPECT_EQ(core::write_snapshot_bytes(*q.analysis, 0), clean_state_)
          << "mutated " << files[target] << " changed the answer without an error";
    } catch (const util::Error&) {
      // FormatError / IoError are the contract for unmaskable damage.
    }

    util::write_file_atomic(files[target], pristine[target]);
  }

  // The restore discipline held: the archive ends the sweep pristine.
  EXPECT_TRUE(Archive::open(dir_).verify(true).ok());
}

// ---------------------------------------------------------------------------
// Window-metadata framing fuzz (DESIGN.md §14).  The v2 manifest carries
// window_min/window_max/level per partition; hostile bytes in that framing
// must surface as a typed FormatError or a bit-clean parse — never UB, and
// never a parsed manifest that sends the window selection or the leveled
// planner out of bounds.

/// A v2 manifest exercising every window-metadata shape: batch (0/0),
/// merged-into-history (0/max), aligned single windows, and a multi-window
/// merged run at a higher level.
Manifest windowed_manifest() {
  Manifest m;
  m.generation = 9;
  m.next_partition_id = 5;
  m.partitions.resize(4);
  m.partitions[0].id = 1;  // batch history
  m.partitions[1].id = 2;  // merged: extends into unwindowed history
  m.partitions[1].window_max = 6;
  m.partitions[1].level = 2;
  m.partitions[2].id = 3;  // merged run of windows 7..9 at level 1
  m.partitions[2].window_min = 7;
  m.partitions[2].window_max = 9;
  m.partitions[2].level = 1;
  m.partitions[3].id = 4;  // fresh window at level 0
  m.partitions[3].window_min = m.partitions[3].window_max = 10;
  for (PartitionInfo& p : m.partitions) p.log_count = 2;
  return m;
}

/// Whatever a hostile manifest parses to must keep the consumers in bounds:
/// every selection for every N indexes real partitions, and any compaction
/// plan names a real adjacent run.
void expect_consumers_in_bounds(const Manifest& m) {
  for (std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
                          std::numeric_limits<std::uint64_t>::max()}) {
    const WindowSelection sel = select_last_windows(m, n);
    ASSERT_LE(sel.first, m.partitions.size());
    ASSERT_LE(sel.count, m.partitions.size() - sel.first);
  }
  const auto expect_executable = [&](const std::vector<CompactionPlan>& plans) {
    std::size_t next_free = 0;
    for (const CompactionPlan& plan : plans) {
      ASSERT_GE(plan.first, next_free);  // ascending, non-overlapping
      ASSERT_LE(plan.first, m.partitions.size());
      ASSERT_GE(plan.count, 2u);
      ASSERT_LE(plan.count, m.partitions.size() - plan.first);
      next_free = plan.first + plan.count;
    }
  };
  for (const unsigned fanout : {2u, 4u}) {
    const std::vector<CompactionPlan> plans = plan_leveled(m, LeveledPolicy{fanout});
    ASSERT_LE(plans.size(), 1u);
    expect_executable(plans);
  }
  for (const std::uint64_t max_logs : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{3},
                                       std::numeric_limits<std::uint64_t>::max()}) {
    expect_executable(plan_small_runs(m, max_logs));
  }
}

TEST(WindowManifestFuzz, TruncationAtEveryPrefixIsATypedError) {
  const std::vector<std::byte> bytes = write_manifest_bytes(windowed_manifest());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(read_manifest_bytes(std::span(bytes.data(), len)), util::FormatError)
        << "prefix length " << len;
  }
  // The untruncated bytes round-trip with every window field intact.
  const Manifest back = read_manifest_bytes(bytes);
  ASSERT_EQ(back.partitions.size(), 4u);
  EXPECT_EQ(back.partitions[1].window_min, 0u);
  EXPECT_EQ(back.partitions[1].window_max, 6u);
  EXPECT_EQ(back.partitions[2].window_min, 7u);
  EXPECT_EQ(back.partitions[2].level, 1u);
}

TEST(WindowManifestFuzz, BitFlipsAtEveryByteNeverEscapeTheContract) {
  const std::vector<std::byte> bytes = write_manifest_bytes(windowed_manifest());
  util::Rng rng(20260809);
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    std::vector<std::byte> hostile = bytes;
    hostile[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
    try {
      const Manifest m = read_manifest_bytes(hostile);
      // A flip the CRC failed to catch (or in bytes it does not cover) must
      // still parse to something the window machinery can hold: no inverted
      // windowed ranges, and in-bounds consumers.
      for (const PartitionInfo& p : m.partitions) {
        ASSERT_TRUE(p.window_min == 0 || p.window_min <= p.window_max);
      }
      expect_consumers_in_bounds(m);
    } catch (const util::FormatError&) {
      // the contract for nearly every flip
    }
  }
}

TEST(WindowManifestFuzz, EveryHeaderBitFlipIsATypedError) {
  // The manifest and index headers (magic, version, reserved, body CRC,
  // body size: 20 bytes) sit outside the CRC.  Every single-bit flip there
  // must still throw FormatError — the reserved field included, which the
  // writer always zeroes.
  constexpr std::size_t kHeaderBytes = 20;
  std::vector<IndexEntry> entries;
  for (std::uint64_t i = 0; i < 3; ++i) entries.push_back({kSegmentHeaderBytes + 100 * i, 100, 7 + i});
  const std::vector<std::byte> manifest = write_manifest_bytes(windowed_manifest());
  const std::vector<std::byte> index = write_index_bytes(42, entries);
  ASSERT_NO_THROW(read_manifest_bytes(manifest));
  ASSERT_EQ(read_index_bytes(index, 42).size(), entries.size());
  for (std::size_t bit = 0; bit < 8 * kHeaderBytes; ++bit) {
    const auto flip = static_cast<std::byte>(1u << (bit % 8));
    std::vector<std::byte> m = manifest;
    m[bit / 8] ^= flip;
    EXPECT_THROW(read_manifest_bytes(m), util::FormatError) << "manifest header bit " << bit;
    std::vector<std::byte> x = index;
    x[bit / 8] ^= flip;
    EXPECT_THROW(read_index_bytes(x, 42), util::FormatError) << "index header bit " << bit;
  }
}

TEST(WindowManifestFuzz, InvertedWindowRangeIsRejectedEvenWithAValidCrc) {
  // Not a random flip: a well-formed, correctly-checksummed manifest whose
  // window range is inverted.  The framing CRC cannot catch it, so the
  // semantic check must.
  Manifest m = windowed_manifest();
  m.partitions[2].window_min = 9;
  m.partitions[2].window_max = 7;
  EXPECT_THROW(read_manifest_bytes(write_manifest_bytes(m)), util::FormatError);

  // But "merged into unwindowed history" (min 0, max > 0) is a legal state,
  // not an inversion.
  m.partitions[2].window_min = 0;
  EXPECT_NO_THROW(read_manifest_bytes(write_manifest_bytes(m)));
}

TEST(WindowManifestFuzz, HostileWindowIdsAndLevelsStayInBounds) {
  // Out-of-range stamps a buggy or malicious writer could produce: window
  // ids and levels pinned at their numeric maxima.  They must round-trip,
  // and neither the selection cutoff nor the planner's level bump may wrap.
  Manifest m = windowed_manifest();
  m.partitions[3].window_min = std::numeric_limits<std::uint64_t>::max();
  m.partitions[3].window_max = std::numeric_limits<std::uint64_t>::max();
  m.partitions[2].level = std::numeric_limits<std::uint32_t>::max();
  m.partitions[1].level = std::numeric_limits<std::uint32_t>::max();
  m.partitions[0].level = std::numeric_limits<std::uint32_t>::max();
  const Manifest back = read_manifest_bytes(write_manifest_bytes(m));
  EXPECT_EQ(back.partitions[3].window_max, std::numeric_limits<std::uint64_t>::max());
  expect_consumers_in_bounds(back);
  for (const CompactionPlan& plan : plan_leveled(back, LeveledPolicy{2})) {
    EXPECT_EQ(plan.target_level, std::numeric_limits<std::uint32_t>::max());  // clamped
  }
  const std::vector<CompactionPlan> small = plan_small_runs(back, 3);  // every partition
  ASSERT_EQ(small.size(), 1u);
  EXPECT_EQ(small[0].target_level, std::numeric_limits<std::uint32_t>::max());  // clamped
}

// Stale generation stamps on a WINDOWED partition: the manifest says the
// data changed after the snapshot was taken, so a windowed query must
// rescan that shard instead of trusting it — and reproduce the clean
// windowed answer bit for bit.
TEST(WindowManifestFuzz, StaleGenerationStampOnWindowedPartitionForcesRescan) {
  const fs::path dir = fs::path(::testing::TempDir()) / "mlio_window_stale";
  fs::remove_all(dir);
  Archive ar = Archive::create(dir);
  StreamOptions opts;
  opts.window_seconds = 100;
  opts.write_snapshots = true;
  StreamIngester ing(ar, opts);
  for (std::uint64_t w = 0; w < 3; ++w) {
    darshan::JobRecord job;
    job.job_id = w + 1;
    job.nprocs = 2;
    job.nnodes = 1;
    darshan::Runtime rt(job, {{"/gpfs", "gpfs"}});
    const auto h = rt.open_file(darshan::ModuleId::kPosix, 0, "/gpfs/data", 0.0);
    rt.record_reads(h, 0, 4096, 4, 0.0, 0.5);
    const darshan::LogData log = rt.finalize(static_cast<std::int64_t>(w) * 100 + 1,
                                             static_cast<std::int64_t>(w) * 100 + 9);
    (void)ing.append(log.job, darshan::write_log_bytes(log));
  }
  (void)ing.flush();
  const std::vector<std::byte> clean = core::write_snapshot_bytes(*cold_get(ar, 2).analysis, 0);

  {  // Forge the stale stamp on the newest windowed partition.
    Manifest m = ar.manifest();
    m.generation += 1;
    m.partitions.back().data_generation = m.generation;
    util::write_file_atomic(dir / "manifest.bin", write_manifest_bytes(m));
  }
  Archive reopened = Archive::open(dir);
  const auto q = cold_get(reopened, 2);
  EXPECT_EQ(q.windows.count, 2u);
  EXPECT_GT(q.stats.query.partitions_scanned, 0u);  // the stale shard was not trusted
  EXPECT_EQ(core::write_snapshot_bytes(*q.analysis, 0), clean);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace mlio::archive
