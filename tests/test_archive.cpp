// End-to-end archive coverage: ingest -> query equals the in-memory
// pipeline byte-for-byte, and an archive of uncompressed frames answers
// with the same bits; snapshot write-back
// serves repeat queries without rescanning a single partition; incremental
// ingests only scan what changed.  Every query is a cold get through the
// archive service (harness/cold_query.hpp), as `mlio_archive query` asks.
#include "archive/archive.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include "archive/ingest.hpp"
#include "archive/stream.hpp"
#include "core/snapshot.hpp"
#include "harness/cold_query.hpp"
#include "harness/plain_frame.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "workload/pipeline.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;
using harness::cold_get;

class ArchiveTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "mlio_archive_test" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_.parent_path());
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

wl::WorkloadGenerator make_gen(std::uint64_t n_jobs, std::uint64_t seed = 9) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  return wl::WorkloadGenerator(wl::SystemProfile::cori_2019(), cfg);
}

std::vector<std::byte> state(const core::Analysis& a) {
  return core::write_snapshot_bytes(a, 0);
}

TEST_F(ArchiveTest, TwoBatchIngestQueryMatchesPipelineByteForByte) {
  // The acceptance pin: ingest the generated population in two batches and
  // the query result is byte-identical to a single run_pipeline pass over
  // the same seed.  The analysis state is cut-invariant (DESIGN.md §6), so
  // the pipeline's own blocks need not line up with the ingest batches:
  // any cuts and any fold order give the same bytes.  The pipeline
  // analyses the executor's logs without serializing them, so the archive
  // checks the whole writer -> deflate -> inflate -> reader chain against
  // the writer's input.
  const auto gen = make_gen(40);

  wl::PipelineOptions popts;
  popts.include_huge = false;
  popts.threads = 2;
  const wl::PipelineResult reference = run_pipeline(gen, popts);

  Archive ar = Archive::create(dir_);
  IngestOptions iopts;
  iopts.batches = 2;
  iopts.include_huge = false;
  const IngestStats ing = ingest_generated(ar, gen, iopts);
  EXPECT_EQ(ing.partitions, 2u);
  EXPECT_EQ(ing.logs, reference.bulk.summary().logs() + reference.huge.summary().logs());

  const auto first = cold_get(ar);
  EXPECT_EQ(first.stats.query.partitions, 2u);
  EXPECT_EQ(first.stats.query.snapshot_hits, 0u);
  EXPECT_EQ(first.stats.query.partitions_scanned, 2u);
  EXPECT_EQ(first.stats.query.logs_scanned, ing.logs);
  EXPECT_EQ(first.stats.query.snapshots_written, 2u);

  EXPECT_EQ(first.analysis->fingerprint(), reference.bulk.fingerprint());
  EXPECT_EQ(state(*first.analysis), state(reference.bulk));
  // combined() with an empty huge stratum is the bulk analysis, bit for
  // bit.
  EXPECT_EQ(state(*first.analysis), state(reference.combined()));

  // Second query: every shard comes from the written-back snapshots —
  // zero partitions rescanned, zero logs decoded, identical bytes.
  const auto second = cold_get(ar);
  EXPECT_EQ(second.stats.query.snapshot_hits, 2u);
  EXPECT_EQ(second.stats.query.partitions_scanned, 0u);
  EXPECT_EQ(second.stats.query.logs_scanned, 0u);
  EXPECT_EQ(second.stats.query.snapshots_written, 0u);
  EXPECT_EQ(state(*second.analysis), state(*first.analysis));
}

TEST_F(ArchiveTest, UncompressedFramesAnswerAsTheDeflatedArchive) {
  // The writer always deflates, but archives written with the old
  // uncompressed option hold flag-0 frames, and the reader must keep
  // answering them.  The same two batches, each frame re-framed
  // uncompressed, must pass a deep verify and give the deflated archive's
  // answer bit for bit.
  const auto gen = make_gen(40);
  constexpr std::uint64_t kBatches = 2;
  const std::uint64_t n_jobs = 40;

  Archive deflated = Archive::create(dir_ / "deflated");
  IngestOptions iopts;
  iopts.batches = kBatches;
  iopts.include_huge = false;
  const IngestStats ing = ingest_generated(deflated, gen, iopts);

  Archive plain = Archive::create(dir_ / "plain");
  std::uint64_t plain_bytes = 0;
  for (std::uint64_t b = 0; b < kBatches; ++b) {
    Archive::PartitionWriter w = plain.begin_partition();
    wl::serialize_logs(gen, wl::Stratum::kBulk, n_jobs * b / kBatches,
                       n_jobs * (b + 1) / kBatches, /*workers=*/0,
                       [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                         const std::vector<std::byte> raw = harness::plain_reframe(frame);
                         ASSERT_EQ(raw[6], std::byte{0});  // flags: uncompressed
                         plain_bytes += raw.size();
                         w.append_frame(job, raw);
                       });
    (void)w.seal();
  }
  EXPECT_GT(plain_bytes, ing.bytes);

  const Archive::VerifyReport v = plain.verify(/*deep=*/true);
  EXPECT_TRUE(v.ok()) << (v.issues.empty() ? "" : v.issues.front());
  EXPECT_EQ(v.partitions, kBatches);
  EXPECT_EQ(v.logs_checked, ing.logs);

  const auto want = cold_get(deflated, 0, 0, /*write_back=*/false);
  const auto got = cold_get(plain, 0, 0, /*write_back=*/false);
  EXPECT_EQ(got.stats.query.logs_scanned, ing.logs);
  EXPECT_EQ(got.analysis->fingerprint(), want.analysis->fingerprint());
  EXPECT_EQ(state(*got.analysis), state(*want.analysis));
}

TEST_F(ArchiveTest, IncrementalIngestOnlyScansNewPartitions) {
  const auto gen = make_gen(30, 17);
  Archive ar = Archive::create(dir_);
  IngestOptions iopts;
  iopts.include_huge = false;

  // Batch 1: jobs [0, 15) — ingest_generated on a 15-job prefix view is not
  // expressible, so use two explicit batches through one generator instead.
  iopts.batches = 1;
  ingest_generated(ar, gen, iopts);
  const auto q1 = cold_get(ar);
  EXPECT_EQ(q1.stats.query.partitions_scanned, 1u);

  // Appending the huge stratum adds one partition; the bulk partition's
  // snapshot stays valid, so the next query rescans exactly the new one.
  Archive::PartitionWriter w = ar.begin_partition();
  wl::serialize_logs(gen, wl::Stratum::kHuge, 0, gen.huge_job_count(), /*workers=*/0,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       w.append_frame(job, frame);
                     });
  w.seal();

  const auto q2 = cold_get(ar);
  EXPECT_EQ(q2.stats.query.partitions, 2u);
  EXPECT_EQ(q2.stats.query.snapshot_hits, 1u);
  EXPECT_EQ(q2.stats.query.partitions_scanned, 1u);
  EXPECT_GT(q2.analysis->summary().logs(), q1.analysis->summary().logs());

  // And the cache converges: a third query is all hits, bit-identical.
  const auto q3 = cold_get(ar);
  EXPECT_EQ(q3.stats.query.snapshot_hits, 2u);
  EXPECT_EQ(q3.stats.query.partitions_scanned, 0u);
  EXPECT_EQ(state(*q3.analysis), state(*q2.analysis));
}

TEST_F(ArchiveTest, IngestTimeSnapshotsMakeTheFirstQueryWarm) {
  const auto gen = make_gen(20, 3);
  Archive ar = Archive::create(dir_);
  IngestOptions iopts;
  iopts.batches = 2;
  iopts.include_huge = true;
  iopts.write_snapshots = true;
  ingest_generated(ar, gen, iopts);

  const auto warm = cold_get(ar);
  EXPECT_EQ(warm.stats.query.partitions, 3u);  // 2 bulk batches + huge
  EXPECT_EQ(warm.stats.query.snapshot_hits, 3u);
  EXPECT_EQ(warm.stats.query.partitions_scanned, 0u);

  // The cached shards are bit-identical to what a rescan computes: a cold
  // archive with the same cuts and no ingest-time snapshots agrees exactly.
  const fs::path cold_dir = dir_.string() + "_cold";
  fs::remove_all(cold_dir);
  Archive cold = Archive::create(cold_dir);
  IngestOptions no_snap = iopts;
  no_snap.write_snapshots = false;
  ingest_generated(cold, gen, no_snap);
  const auto rescan = cold_get(cold);
  EXPECT_EQ(rescan.stats.query.partitions_scanned, 3u);
  EXPECT_EQ(state(*warm.analysis), state(*rescan.analysis));
  fs::remove_all(cold_dir);
}

TEST_F(ArchiveTest, QueryIsThreadCountInvariant) {
  const auto gen = make_gen(24, 29);
  Archive ar = Archive::create(dir_);
  IngestOptions iopts;
  iopts.batches = 4;
  ingest_generated(ar, gen, iopts);

  const auto a = cold_get(ar, 0, 1, /*write_back=*/false);
  const auto b = cold_get(ar, 0, 4, /*write_back=*/false);
  EXPECT_EQ(a.stats.query.partitions_scanned, b.stats.query.partitions_scanned);
  EXPECT_EQ(state(*a.analysis), state(*b.analysis));
}

TEST_F(ArchiveTest, CompactMergesSmallPartitionsAndPreservesCounts) {
  const auto gen = make_gen(30, 41);
  Archive ar = Archive::create(dir_);
  IngestOptions iopts;
  iopts.batches = 5;
  iopts.include_huge = false;
  ingest_generated(ar, gen, iopts);
  const auto before = cold_get(ar);
  ASSERT_EQ(before.stats.query.partitions, 5u);

  const std::vector<Archive::CompactedRun> runs =
      ar.compact(plan_small_runs(ar.manifest(), 1'000'000));
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].inputs.size(), 5u);
  EXPECT_EQ(ar.manifest().partitions.size(), 1u);
  EXPECT_TRUE(ar.verify(true).ok());

  // Compaction changes the merge tree (one sequential shard instead of a
  // five-shard fold), so double-precision sums may differ in the last bit —
  // but every integer census is grouping-invariant and must be preserved.
  const auto after = cold_get(ar);
  EXPECT_EQ(after.stats.query.partitions_scanned, 1u);  // snapshots drop on compact
  EXPECT_EQ(after.analysis->summary().logs(), before.analysis->summary().logs());
  EXPECT_EQ(after.analysis->summary().jobs(), before.analysis->summary().jobs());
  EXPECT_EQ(after.analysis->summary().files(), before.analysis->summary().files());
  for (std::size_t li = 0; li < core::kLayerCount; ++li) {
    const auto layer = static_cast<core::Layer>(li);
    EXPECT_EQ(after.analysis->access().layer(layer).files,
              before.analysis->access().layer(layer).files);
    EXPECT_EQ(after.analysis->interfaces().counts(layer).posix,
              before.analysis->interfaces().counts(layer).posix);
  }
  EXPECT_NEAR(after.analysis->summary().node_hours(), before.analysis->summary().node_hours(),
              1e-6 * (1.0 + before.analysis->summary().node_hours()));

  // Log order survives compaction exactly: a fresh single-batch archive of
  // the same population queries to the same bytes as the compacted one.
  const fs::path ref_dir = dir_.string() + "_ref";
  fs::remove_all(ref_dir);
  Archive ref = Archive::create(ref_dir);
  IngestOptions one_batch = iopts;
  one_batch.batches = 1;
  ingest_generated(ref, gen, one_batch);
  EXPECT_EQ(state(*cold_get(ref).analysis), state(*after.analysis));
  fs::remove_all(ref_dir);
}

TEST_F(ArchiveTest, IngestLogFilesFormsOnePartition) {
  const auto gen = make_gen(10, 53);
  // Dump a few logs as standalone files, shuffled names to prove the given
  // file order is what defines ingest order.
  const fs::path drop = dir_.string() + "_drop";
  fs::remove_all(drop);
  fs::create_directories(drop);
  std::vector<fs::path> files;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, 10, /*workers=*/0,
                     [&](const darshan::JobRecord&, std::span<const std::byte> frame) {
                       const fs::path p = drop / ("log" + std::to_string(files.size()) + ".darshan");
                       util::write_file_atomic(p, frame);
                       files.push_back(p);
                     });
  ASSERT_GT(files.size(), 2u);

  Archive ar = Archive::create(dir_);
  const IngestStats stats = ingest_log_files(ar, files);
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.logs, files.size());

  const auto q = cold_get(ar);
  EXPECT_EQ(q.analysis->summary().logs(), files.size());
  EXPECT_TRUE(ar.verify(true).ok());
  fs::remove_all(drop);
}

TEST_F(ArchiveTest, OpenAndCreateGuardRails) {
  EXPECT_THROW(Archive::open(dir_ / "nope"), util::Error);
  Archive::create(dir_);
  EXPECT_THROW(Archive::create(dir_), util::ConfigError);
  Archive reopened = Archive::open(dir_);
  EXPECT_EQ(reopened.manifest().partitions.size(), 0u);
  const auto q = cold_get(reopened);
  EXPECT_EQ(q.stats.query.partitions, 0u);
  EXPECT_EQ(q.analysis->summary().logs(), 0u);
}

}  // namespace
}  // namespace mlio::archive
