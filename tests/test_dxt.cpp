#include "darshan/dxt.hpp"

#include <gtest/gtest.h>

#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "util/units.hpp"

namespace mlio::darshan {
namespace {

using util::kMB;

JobRecord job(std::uint32_t nprocs = 2) {
  JobRecord j;
  j.job_id = 1;
  j.nprocs = nprocs;
  j.nnodes = 1;
  return j;
}

std::vector<MountEntry> mounts() { return {{"/gpfs/alpine", "gpfs"}}; }

RuntimeOptions dxt_on() {
  RuntimeOptions o;
  o.enable_dxt = true;
  return o;
}

TEST(Dxt, DisabledByDefault) {
  Runtime rt(job(), mounts());
  auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/a", 0);
  rt.record_reads(h, 0, kMB, 4, 0, 1.0);
  const LogData log = rt.finalize(0, 1);
  EXPECT_TRUE(log.dxt.empty());  // DXT is off on the study systems
}

TEST(Dxt, CapturesPosixEventsWithAdvancingOffsets) {
  Runtime rt(job(1), mounts(), dxt_on());
  auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/t.bin", 0);
  rt.record_reads(h, 0, kMB, 4, 0.5, 2.0);
  const LogData log = rt.finalize(0, 10);

  ASSERT_EQ(log.dxt.size(), 1u);
  const DxtRecord& rec = log.dxt[0];
  EXPECT_EQ(rec.module, ModuleId::kPosix);
  ASSERT_EQ(rec.events.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(rec.events[i].offset, i * kMB);
    EXPECT_EQ(rec.events[i].length, kMB);
    EXPECT_EQ(rec.events[i].op, DxtOp::kRead);
    EXPECT_GE(rec.events[i].start, 0.5);
    EXPECT_LE(rec.events[i].end, 2.5 + 1e-9);
  }
}

TEST(Dxt, NeverTracesStdio) {
  // Faithful to real Darshan: DXT covers POSIX and MPI-IO only (§2.2).
  Runtime rt(job(1), mounts(), dxt_on());
  auto h = rt.open_file(ModuleId::kStdio, 0, "/gpfs/alpine/s.log", 0);
  rt.record_writes(h, 0, 256, 100, 0, 1.0);
  const LogData log = rt.finalize(0, 1);
  EXPECT_TRUE(log.dxt.empty());
}

TEST(Dxt, BatchEventCapBounds) {
  const RuntimeOptions opts = dxt_on();
  Runtime rt(job(1), mounts(), opts);
  auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/big.bin", 0);
  rt.record_writes(h, 0, 1000, 1000000, 0, 5.0);
  const LogData log = rt.finalize(0, 10);
  ASSERT_EQ(log.dxt.size(), 1u);
  EXPECT_EQ(log.dxt[0].events.size(), kDxtEventsPerBatch);
  // Untraced ops still advance the cursor, so a following batch continues
  // from the true end of the file.
  Runtime rt2(job(1), mounts(), opts);
  auto h2 = rt2.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/big.bin", 0);
  rt2.record_writes(h2, 0, 1000, 1000000, 0, 5.0);
  rt2.record_writes(h2, 0, 1000, 1, 5.0, 0.1);
  const LogData log2 = rt2.finalize(0, 10);
  EXPECT_EQ(log2.dxt[0].events.back().offset, 1000ull * 1000000);
}

TEST(Dxt, PerRankCursorsAreIndependent) {
  Runtime rt(job(2), mounts(), dxt_on());
  auto h0 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/sh.bin", 0);
  auto h1 = rt.open_file(ModuleId::kPosix, 1, "/gpfs/alpine/sh.bin", 0);
  rt.record_reads(h0, 0, 100, 2, 0, 0.1);
  rt.record_reads(h1, 1, 100, 2, 0, 0.1);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.dxt.size(), 1u);
  // Both ranks start at offset 0 of their own cursor.
  int zero_offsets = 0;
  for (const auto& e : log.dxt[0].events) zero_offsets += e.offset == 0;
  EXPECT_EQ(zero_offsets, 2);
}

TEST(Dxt, SummaryStatistics) {
  DxtRecord rec;
  rec.record_id = 7;
  rec.events = {
      {DxtOp::kRead, 0, 0, 100, 0.0, 0.1},
      {DxtOp::kRead, 0, 100, 100, 0.1, 0.2},   // sequential
      {DxtOp::kRead, 0, 500, 100, 0.2, 0.3},   // seek
      {DxtOp::kWrite, 1, 0, 50, 0.0, 0.05},
      {DxtOp::kWrite, 1, 50, 50, 0.05, 0.4},   // sequential (rank 1's cursor)
  };
  const DxtSummary s = summarize_dxt(rec);
  EXPECT_EQ(s.reads, 3u);
  EXPECT_EQ(s.writes, 2u);
  EXPECT_EQ(s.bytes_read, 300u);
  EXPECT_EQ(s.bytes_written, 100u);
  EXPECT_EQ(s.sequential, 2u);
  EXPECT_DOUBLE_EQ(s.sequential_ratio(), 0.4);
  EXPECT_DOUBLE_EQ(s.first_start, 0.0);
  EXPECT_DOUBLE_EQ(s.last_end, 0.4);
}

TEST(Dxt, EmptySummary) {
  const DxtSummary s = summarize_dxt(DxtRecord{});
  EXPECT_EQ(s.reads + s.writes, 0u);
  EXPECT_DOUBLE_EQ(s.sequential_ratio(), 0.0);
}

TEST(Dxt, LogFormatRoundtripsTraces) {
  Runtime rt(job(1), mounts(), dxt_on());
  auto h = rt.open_file(ModuleId::kMpiIo, 0, "/gpfs/alpine/m.h5", 0);
  rt.record_reads(h, 0, 64000, 10, 0, 1.0);
  rt.record_writes(h, 0, 32000, 5, 1.0, 0.5);
  const LogData log = rt.finalize(0, 10);
  ASSERT_FALSE(log.dxt.empty());

  const LogData back = read_log_bytes(write_log_bytes(log));
  EXPECT_TRUE(log == back);
  ASSERT_EQ(back.dxt.size(), log.dxt.size());
  EXPECT_EQ(back.dxt[0].events.size(), log.dxt[0].events.size());
  EXPECT_EQ(back.dxt[0].events[3], log.dxt[0].events[3]);
}

TEST(Dxt, TracesSortedDeterministically) {
  Runtime rt(job(1), mounts(), dxt_on());
  for (int i = 0; i < 20; ++i) {
    auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/f" + std::to_string(i), 0);
    rt.record_reads(h, 0, 100, 1, 0, 0.1);
  }
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.dxt.size(), 20u);
  for (std::size_t i = 1; i < log.dxt.size(); ++i) {
    EXPECT_LT(log.dxt[i - 1].record_id, log.dxt[i].record_id);
  }
}

}  // namespace
}  // namespace mlio::darshan
