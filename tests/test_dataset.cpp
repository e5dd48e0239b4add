#include "core/dataset.hpp"

#include <gtest/gtest.h>

#include "darshan/counters.hpp"
#include "darshan/runtime.hpp"
#include "util/units.hpp"

namespace mlio::core {
namespace {

using darshan::FileHandle;
using darshan::JobRecord;
using darshan::kSharedRank;
using darshan::LogData;
using darshan::ModuleId;
using darshan::MountEntry;
using darshan::Runtime;
using util::kMB;

JobRecord job(std::uint32_t nprocs = 4) {
  JobRecord j;
  j.job_id = 1;
  j.nprocs = nprocs;
  j.nnodes = 1;
  return j;
}

std::vector<MountEntry> summit_mounts() {
  return {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}};
}

TEST(Dataset, LayerAttributionByMountPrefix) {
  Runtime rt(job(1), summit_mounts());
  auto h1 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/a.bin", 0);
  rt.record_reads(h1, 0, kMB, 1, 0, 0.1);
  auto h2 = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/b.log", 0);
  rt.record_writes(h2, 0, 100, 1, 0, 0.1);
  const LogData log = rt.finalize(0, 1);

  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    if (f.path == "/gpfs/alpine/a.bin") EXPECT_EQ(f.layer, Layer::kPfs);
    else EXPECT_EQ(f.layer, Layer::kInSystem);
  }
}

TEST(Dataset, UnattributedPathsAreDroppedAndCounted) {
  LogData log;
  log.job = job(1);
  log.mounts = summit_mounts();
  darshan::FileRecord rec(darshan::hash_record_id("/home/u/x"), 0, ModuleId::kPosix);
  rec.counters[darshan::posix::BYTES_READ] = 10;
  log.names.try_emplace(rec.record_id, "/home/u/x");
  log.records.push_back(rec);

  std::uint64_t dropped = 0;
  const auto files = summarize_log(log, &dropped);
  EXPECT_TRUE(files.empty());
  EXPECT_EQ(dropped, 1u);
}

TEST(Dataset, PosixPreferredOverStdioWhenBothPresent) {
  // §3.1: a file seen by POSIX (or MPI-IO) is analyzed through POSIX even if
  // STDIO also touched it.
  Runtime rt(job(1), summit_mounts());
  auto hp = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/x.dat", 0);
  rt.record_reads(hp, 0, kMB, 8, 0, 0.5);
  auto hs = rt.open_file(ModuleId::kStdio, 0, "/gpfs/alpine/x.dat", 0);
  rt.record_reads(hs, 0, 128, 3, 0, 0.1);
  const LogData log = rt.finalize(0, 1);

  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].data_iface, DataInterface::kPosix);
  EXPECT_EQ(files[0].bytes_read, 8 * kMB);
  EXPECT_TRUE(files[0].used_posix);
  EXPECT_TRUE(files[0].used_stdio);
}

TEST(Dataset, StdioManagedFileUsesStdioCounters) {
  Runtime rt(job(1), summit_mounts());
  auto h = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/s.rst", 0);
  rt.record_writes(h, 0, 256, 1000, 0, 2.0);
  const LogData log = rt.finalize(0, 1);
  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].data_iface, DataInterface::kStdio);
  EXPECT_EQ(files[0].bytes_written, 256000u);
  EXPECT_DOUBLE_EQ(files[0].write_time, 2.0);
  // STDIO has no request histogram.
  for (const auto v : files[0].req_write) EXPECT_EQ(v, 0u);
}

TEST(Dataset, SharedFlagComesFromSharedRecord) {
  Runtime rt(job(4), summit_mounts());
  for (std::int32_t r = 0; r < 4; ++r) {
    auto h = rt.open_file(ModuleId::kPosix, r, "/gpfs/alpine/shared.h5", 0);
    rt.record_reads(h, r, kMB, 1, 0, 1.0);
  }
  auto hp = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/private.h5", 0);
  rt.record_reads(hp, 0, kMB, 1, 0, 1.0);
  const LogData log = rt.finalize(0, 1);

  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 2u);
  for (const auto& f : files) {
    if (f.path == "/gpfs/alpine/shared.h5") EXPECT_TRUE(f.shared);
    else EXPECT_FALSE(f.shared);
  }
}

TEST(Dataset, PerRankRecordsAggregate) {
  Runtime rt(job(8), summit_mounts());
  for (std::int32_t r = 0; r < 3; ++r) {  // partial access: stays per-rank
    auto h = rt.open_file(ModuleId::kPosix, r, "/gpfs/alpine/p.bin", 0);
    rt.record_writes(h, r, kMB, 2, 0, 0.25);
  }
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 3u);

  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 1u);  // one *file*
  EXPECT_EQ(files[0].bytes_written, 6 * kMB);
  EXPECT_FALSE(files[0].shared);
  EXPECT_EQ(files[0].req_write[4], 6u);  // 1 MB ops in the 100K-1M bin (inclusive), summed
}

TEST(Dataset, RequestHistogramsComeFromPosix) {
  Runtime rt(job(1), summit_mounts());
  auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/h.bin", 0);
  rt.record_reads(h, 0, 50, 7, 0, 0.1);       // bin 0
  rt.record_reads(h, 0, 5000, 2, 0, 0.1);     // bin 2
  const LogData log = rt.finalize(0, 1);
  const auto files = summarize_log(log);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0].req_read[0], 7u);
  EXPECT_EQ(files[0].req_read[2], 2u);
}

TEST(Dataset, LustreRecordsDoNotCreateFiles) {
  Runtime rt(job(1), {{"/global/cscratch1", "lustre"}});
  rt.record_lustre(rt.intern_path("/global/cscratch1/x.h5"), 1 << 20, 4, 0, 5, 248);
  const LogData log = rt.finalize(0, 1);
  EXPECT_TRUE(summarize_log(log).empty());
}

TEST(Dataset, OutputIsSortedByRecordId) {
  Runtime rt(job(1), summit_mounts());
  for (int i = 0; i < 50; ++i) {
    auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/f" + std::to_string(i), 0);
    rt.record_reads(h, 0, 100, 1, 0, 0.1);
  }
  const auto files = summarize_log(rt.finalize(0, 1));
  for (std::size_t i = 1; i < files.size(); ++i) {
    EXPECT_LT(files[i - 1].record_id, files[i].record_id);
  }
}

}  // namespace
}  // namespace mlio::core
