// Differential pins for the MLP-aware cold scan: the software-pipelined
// scan (K logs in flight, batched lookups, prefetch) must be bit-identical
// to the depth-1 scan — same Analysis fingerprint, same Table 2 census and
// Table 3/4 layer-volume numbers down to the double bit patterns — at every
// depth through scan_bodies, and the service's cold get (the default depth)
// at every merge-thread count.  The whole family is pinned to the
// fingerprint captured before the overhaul.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "archive/scan.hpp"
#include "core/analysis.hpp"
#include "harness/cold_query.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio {
namespace {

// The configuration of IngestDifferential.ArchiveColdQueryFingerprintPinned:
// 24 Cori jobs, seed 7, scales 0.25, 4 partitions + the huge stratum.
constexpr std::uint64_t kPinnedFingerprint = 681279179527013092ull;
constexpr std::uint64_t kPinnedLogs = 244;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

class MlpScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(std::filesystem::temp_directory_path() /
                                     "mlio_test_mlp_scan");
    std::filesystem::remove_all(*dir_);
    wl::GeneratorConfig cfg;
    cfg.seed = 7;
    cfg.n_jobs = 24;
    cfg.logs_per_job_scale = 0.25;
    cfg.files_per_log_scale = 0.25;
    const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
    archive::Archive ar = archive::Archive::create(*dir_);
    archive::IngestOptions io;
    io.batches = 4;
    io.ingest_threads = 2;
    io.write_snapshots = false;
    archive::ingest_generated(ar, gen, io);
  }
  static void TearDownTestSuite() {
    std::filesystem::remove_all(*dir_);
    delete dir_;
    dir_ = nullptr;
  }

  static service::ArchiveService::GetResult cold_query(unsigned threads) {
    archive::Archive ar = archive::Archive::open(*dir_);
    // No write-back: keep every query a cold rebuild.
    return harness::cold_get(ar, 0, threads, /*write_back=*/false);
  }

  /// Every partition scanned on this thread through scan_bodies at
  /// `depth`, each body walked into one analysis as resolve_shard walks a
  /// shard (the analysis is cut-invariant, so one accumulator for all
  /// partitions gives the merged shards' bits).  `logs` counts the bodies.
  static core::Analysis scan_at_depth(unsigned depth, std::uint64_t& logs) {
    archive::Archive ar = archive::Archive::open(*dir_);
    archive::ShardScratch scratch;
    archive::ScanOptions opts;
    opts.mlp_depth = depth;
    core::Analysis all;
    logs = 0;
    for (const archive::PartitionInfo& p : ar.manifest().partitions) {
      ar.scan_bodies(
          p,
          [&](std::span<const std::byte> body) {
            darshan::walk_log_body(body, scratch.body);
            all.add(scratch.body, scratch.analyze);
            logs += 1;
          },
          scratch.scan, opts);
    }
    return all;
  }

  static const std::filesystem::path* dir_;
};

const std::filesystem::path* MlpScanTest::dir_ = nullptr;

// Table 2 (census) and Table 3/4 (per-layer volumes) inputs, compared field
// by field with doubles as bit patterns — the paper-facing numbers the
// overhaul must not move by even one ulp.
void expect_tables_identical(const core::Analysis& a, const core::Analysis& b) {
  const core::Summary& sa = a.summary();
  const core::Summary& sb = b.summary();
  EXPECT_EQ(sa.logs(), sb.logs());
  EXPECT_EQ(sa.jobs(), sb.jobs());
  EXPECT_EQ(sa.files(), sb.files());
  EXPECT_TRUE(same_bits(sa.node_hours(), sb.node_hours()));
  EXPECT_EQ(sa.min_logs_per_job(), sb.min_logs_per_job());
  EXPECT_EQ(sa.max_logs_per_job(), sb.max_logs_per_job());
  for (const core::Layer layer : {core::Layer::kInSystem, core::Layer::kPfs}) {
    const auto& la = a.access().layer(layer);
    const auto& lb = b.access().layer(layer);
    EXPECT_EQ(la.files, lb.files);
    EXPECT_EQ(la.read_files, lb.read_files);
    EXPECT_EQ(la.write_files, lb.write_files);
    EXPECT_TRUE(same_bits(la.bytes_read, lb.bytes_read));
    EXPECT_TRUE(same_bits(la.bytes_written, lb.bytes_written));
    EXPECT_EQ(la.huge_read_files, lb.huge_read_files);
    EXPECT_EQ(la.huge_write_files, lb.huge_write_files);
    ASSERT_EQ(la.read_requests.size(), lb.read_requests.size());
    for (std::size_t bin = 0; bin < la.read_requests.size(); ++bin) {
      EXPECT_EQ(la.read_requests.count(bin), lb.read_requests.count(bin));
      EXPECT_EQ(la.write_requests.count(bin), lb.write_requests.count(bin));
    }
  }
}

TEST_F(MlpScanTest, DepthSweepMatchesDepthOne) {
  // Baseline: one dependent decode→parse→consume chain per log.
  std::uint64_t logs = 0;
  const core::Analysis base = scan_at_depth(1, logs);
  ASSERT_EQ(logs, kPinnedLogs);
  EXPECT_EQ(base.fingerprint(), kPinnedFingerprint);

  for (const unsigned depth : {2u, 4u, 8u}) {
    SCOPED_TRACE("mlp_depth=" + std::to_string(depth));
    const core::Analysis a = scan_at_depth(depth, logs);
    EXPECT_EQ(logs, kPinnedLogs);
    EXPECT_EQ(a.fingerprint(), kPinnedFingerprint);
    expect_tables_identical(base, a);
  }

  // The service's cold get scans at the default depth; its merge pool and
  // fold tree must land on the same bits at any thread count.
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const auto q = cold_query(threads);
    EXPECT_EQ(q.stats.query.logs_scanned, kPinnedLogs);
    EXPECT_EQ(q.analysis->fingerprint(), kPinnedFingerprint);
    expect_tables_identical(base, *q.analysis);
  }
}

TEST_F(MlpScanTest, OversizedAndZeroDepthsAreSafe) {
  // Depth 0 clamps to 1; a depth far beyond the partition's log count runs
  // one partial batch per partition.  Both must still land on the pin.
  for (const unsigned depth : {0u, 1024u}) {
    SCOPED_TRACE("mlp_depth=" + std::to_string(depth));
    std::uint64_t logs = 0;
    EXPECT_EQ(scan_at_depth(depth, logs).fingerprint(), kPinnedFingerprint);
    EXPECT_EQ(logs, kPinnedLogs);
  }
}

TEST_F(MlpScanTest, DeepScanAllocatesNoMoreSlotsThanLogs) {
  // A depth far beyond a partition's log count sizes the decode slots to
  // the logs, not the depth: a garbage depth must not allocate billions of
  // slots.
  archive::Archive ar = archive::Archive::open(*dir_);
  const archive::PartitionInfo& p = ar.manifest().partitions.front();
  ASSERT_LT(p.log_count, 1024u);
  archive::ScanScratch scratch;
  archive::ScanOptions opts;
  opts.mlp_depth = 1024;
  std::uint64_t logs = 0;
  ar.scan_bodies(p, [&](std::span<const std::byte>) { logs += 1; }, scratch, opts);
  EXPECT_EQ(logs, p.log_count);
  EXPECT_LE(scratch.slots.size(), p.log_count);
}

}  // namespace
}  // namespace mlio
