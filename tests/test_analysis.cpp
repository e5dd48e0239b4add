#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include "darshan/counters.hpp"
#include "darshan/runtime.hpp"
#include "util/units.hpp"

namespace mlio::core {
namespace {

using darshan::JobRecord;
using darshan::LogData;
using darshan::ModuleId;
using darshan::MountEntry;
using darshan::Runtime;
using util::kGB;
using util::kMB;
using util::kTB;

std::vector<MountEntry> mounts() {
  return {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}};
}

JobRecord job(std::uint64_t id, std::uint32_t nprocs = 1, const std::string& domain = "Physics") {
  JobRecord j;
  j.job_id = id;
  j.nprocs = nprocs;
  j.nnodes = 1;
  j.metadata["domain"] = domain;
  return j;
}

/// A log with one PFS POSIX read file, one PFS POSIX write file, and one
/// in-system STDIO read-write file.
LogData three_file_log(std::uint64_t job_id, const std::string& domain = "Physics") {
  Runtime rt(job(job_id, 1, domain), mounts());
  auto h1 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/ro.bin", 0);
  rt.record_reads(h1, 0, kMB, 100, 0, 1.0);  // 100 MB read
  auto h2 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/wo.bin", 0);
  rt.record_writes(h2, 0, kMB, 2000, 0, 4.0);  // 2 GB written
  auto h3 = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/rw.dat", 0);
  rt.record_reads(h3, 0, 512, 10, 0, 0.1);
  rt.record_writes(h3, 0, 512, 20, 0, 0.1);
  return rt.finalize(100, 3700);
}

TEST(Analysis, AccessPatternsCountFilesAndVolumes) {
  Analysis a;
  a.add(three_file_log(1));
  const auto& pfs = a.access().layer(Layer::kPfs);
  EXPECT_EQ(pfs.files, 2u);
  EXPECT_EQ(pfs.read_files, 1u);
  EXPECT_EQ(pfs.write_files, 1u);
  EXPECT_DOUBLE_EQ(pfs.bytes_read, 100.0 * kMB);
  EXPECT_DOUBLE_EQ(pfs.bytes_written, 2000.0 * kMB);
  const auto& ins = a.access().layer(Layer::kInSystem);
  EXPECT_EQ(ins.files, 1u);
  EXPECT_EQ(ins.read_files, 1u);
  EXPECT_EQ(ins.write_files, 1u);

  // Transfer-size binning: 100 MB -> bin 0 (0-1GB); 2 GB -> bin 1 (1-10GB).
  EXPECT_EQ(pfs.read_transfer.count(0), 1u);
  EXPECT_EQ(pfs.write_transfer.count(1), 1u);
  // Request bins: 1 MB ops land in 100K_1M (inclusive upper bound).
  EXPECT_EQ(pfs.read_requests.count(4), 100u);
  EXPECT_EQ(pfs.write_requests.count(4), 2000u);
}

TEST(Analysis, HugeFileCensus) {
  Runtime rt(job(5, 1), mounts());
  auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/huge.h5", 0);
  rt.record_writes(h, 0, 100 * kMB, 20000, 0, 100.0);  // 2 TB
  Analysis a;
  a.add(rt.finalize(0, 1000));
  EXPECT_EQ(a.access().layer(Layer::kPfs).huge_write_files, 1u);
  EXPECT_EQ(a.access().layer(Layer::kPfs).huge_read_files, 0u);
}

TEST(Analysis, JobExclusivityAggregatesAcrossLogs) {
  Analysis a;
  // Job 1: two logs, one touching PFS only, one touching in-system only ->
  // the *job* counts as "both".
  {
    Runtime rt(job(1), mounts());
    auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/a", 0);
    rt.record_reads(h, 0, 100, 1, 0, 0.1);
    a.add(rt.finalize(0, 1));
  }
  {
    Runtime rt(job(1), mounts());
    auto h = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/b", 0);
    rt.record_writes(h, 0, 100, 1, 0, 0.1);
    a.add(rt.finalize(0, 1));
  }
  // Job 2: PFS only.
  {
    Runtime rt(job(2), mounts());
    auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/c", 0);
    rt.record_reads(h, 0, 100, 1, 0, 0.1);
    a.add(rt.finalize(0, 1));
  }
  const auto ex = a.layers().job_exclusivity();
  EXPECT_EQ(ex.both, 1u);
  EXPECT_EQ(ex.pfs_only, 1u);
  EXPECT_EQ(ex.insys_only, 0u);
}

TEST(Analysis, FileClassification) {
  Analysis a;
  a.add(three_file_log(1));
  const auto& pfs = a.layers().classes(Layer::kPfs);
  EXPECT_EQ(pfs.read_only, 1u);
  EXPECT_EQ(pfs.write_only, 1u);
  EXPECT_EQ(pfs.read_write, 0u);
  EXPECT_DOUBLE_EQ(pfs.ro_or_wo_percent(), 100.0);
  const auto& ins = a.layers().classes(Layer::kInSystem);
  EXPECT_EQ(ins.read_write, 1u);
}

TEST(Analysis, DomainUsageTracksInSystemTransfers) {
  Analysis a;
  a.add(three_file_log(1, "Biology"));
  a.add(three_file_log(2, "Biology"));
  a.add(three_file_log(3, "Physics"));
  const auto& domains = a.layers().domains();
  ASSERT_TRUE(domains.contains("Biology"));
  EXPECT_EQ(domains.at("Biology").insys_logs, 2u);
  EXPECT_DOUBLE_EQ(domains.at("Biology").insys_bytes_read, 2 * 512.0 * 10);
  EXPECT_EQ(a.layers().insys_jobs(), 3u);
}

TEST(Analysis, InterfaceCountsMirrorMpiioIntoPosix) {
  Runtime rt(job(9, 2), mounts());
  auto hm = rt.open_file(ModuleId::kMpiIo, 0, "/gpfs/alpine/m.h5", 0);
  rt.record_reads(hm, 0, kMB, 4, 0, 0.5);
  auto hp = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/m.h5", 0);
  rt.record_reads(hp, 0, 16 * kMB, 1, 0, 0.5);
  Analysis a;
  a.add(rt.finalize(0, 10));
  const auto& c = a.interfaces().counts(Layer::kPfs);
  EXPECT_EQ(c.posix, 1u);
  EXPECT_EQ(c.mpiio, 1u);
  EXPECT_EQ(c.stdio, 0u);
}

TEST(Analysis, StdioClassesAndDomains) {
  Analysis a;
  a.add(three_file_log(1, "Earth Science"));
  const auto& sc = a.interfaces().stdio_classes(Layer::kInSystem);
  EXPECT_EQ(sc.read_write, 1u);
  EXPECT_EQ(a.interfaces().stdio_jobs(), 1u);
  EXPECT_EQ(a.interfaces().stdio_jobs_with_domain(), 1u);
  EXPECT_DOUBLE_EQ(a.interfaces().stdio_domains().at("Earth Science").bytes_written,
                   512.0 * 20);
  // Extension census sees the .dat file.
  EXPECT_EQ(a.interfaces().stdio_extensions().at(".dat"), 1u);
}

TEST(Analysis, PerformanceOnlyCountsSharedFiles) {
  Analysis a;
  a.add(three_file_log(1));  // serial job: nothing is shared
  EXPECT_EQ(a.performance().observations(), 0u);

  Runtime rt(job(2, 4), mounts());
  for (std::int32_t r = 0; r < 4; ++r) {
    auto h = rt.open_file(ModuleId::kPosix, r, "/gpfs/alpine/s.h5", 0);
    rt.record_reads(h, r, kMB, 50, 0, 2.0);  // 200 MB total, 2 s slowest rank
  }
  a.add(rt.finalize(0, 10));
  EXPECT_EQ(a.performance().observations(), 1u);
  // 200 MB / 2 s = 100 MB/s, in the 100MB-1GB bin.
  const auto cell = a.performance().cell(Layer::kPfs, 0, 1, true);
  EXPECT_EQ(cell.count, 1u);
  EXPECT_NEAR(cell.median, 100.0, 1.0);
}

TEST(Analysis, SummaryCensus) {
  Analysis a;
  a.add(three_file_log(1));
  a.add(three_file_log(1));
  a.add(three_file_log(2));
  EXPECT_EQ(a.summary().logs(), 3u);
  EXPECT_EQ(a.summary().jobs(), 2u);
  EXPECT_EQ(a.summary().files(), 9u);
  EXPECT_EQ(a.summary().max_logs_per_job(), 2u);
  EXPECT_EQ(a.summary().min_logs_per_job(), 1u);
  // Each log spans 3600 s on 1 node -> 3 node-hours total.
  EXPECT_NEAR(a.summary().node_hours(), 3.0, 1e-9);
}

TEST(Analysis, MergeEqualsSequential) {
  Analysis split_a, split_b, all;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    const LogData log = three_file_log(i, i % 2 ? "Physics" : "Biology");
    (i <= 5 ? split_a : split_b).add(log);
    all.add(log);
  }
  split_a.merge(split_b);
  EXPECT_EQ(split_a.summary().logs(), all.summary().logs());
  EXPECT_EQ(split_a.summary().jobs(), all.summary().jobs());
  EXPECT_EQ(split_a.access().layer(Layer::kPfs).files, all.access().layer(Layer::kPfs).files);
  EXPECT_DOUBLE_EQ(split_a.access().layer(Layer::kPfs).bytes_written,
                   all.access().layer(Layer::kPfs).bytes_written);
  EXPECT_EQ(split_a.layers().job_exclusivity().both, all.layers().job_exclusivity().both);
  EXPECT_EQ(split_a.interfaces().stdio_jobs(), all.interfaces().stdio_jobs());
}

TEST(Analysis, UnattributedFilesAreReported) {
  LogData log;
  log.job = job(1);
  log.mounts = mounts();
  darshan::FileRecord rec(darshan::hash_record_id("/tmp/x"), 0, ModuleId::kPosix);
  rec.counters[darshan::posix::BYTES_READ] = 1;
  log.names.try_emplace(rec.record_id, "/tmp/x");
  log.records.push_back(rec);
  Analysis a;
  a.add(log);
  EXPECT_EQ(a.unattributed_files(), 1u);
  EXPECT_EQ(a.summary().files(), 0u);
}

}  // namespace
}  // namespace mlio::core
