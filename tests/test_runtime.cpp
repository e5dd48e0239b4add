#include "darshan/runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace mlio::darshan {
namespace {

JobRecord make_job(std::uint32_t nprocs) {
  JobRecord job;
  job.job_id = 77;
  job.user_id = 1001;
  job.nprocs = nprocs;
  job.nnodes = std::max(1u, nprocs / 42);
  return job;
}

std::vector<MountEntry> mounts() { return {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}}; }

const FileRecord* find(const LogData& log, ModuleId mod, std::int32_t rank) {
  for (const auto& r : log.records) {
    if (r.module == mod && r.rank == rank) return &r;
  }
  return nullptr;
}

TEST(Runtime, PosixCountersAccumulate) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/a.bin", 0.0);
  rt.record_reads(h, 0, 4096, 10, 0.0, 1.0);
  rt.record_writes(h, 0, util::kMB * 2, 3, 1.0, 0.5);
  rt.record_meta(h, 0, 2, 0.01);
  const LogData log = rt.finalize(100, 200);

  ASSERT_EQ(log.records.size(), 1u);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.c(posix::OPENS), 1);
  EXPECT_EQ(r.c(posix::READS), 10);
  EXPECT_EQ(r.c(posix::WRITES), 3);
  EXPECT_EQ(r.c(posix::BYTES_READ), 40960);
  EXPECT_EQ(r.c(posix::BYTES_WRITTEN), 6 * 1000 * 1000);
  EXPECT_EQ(r.c(posix::STATS), 2);
  // 4 KB requests land in the 1K-10K bin; 2 MB in the 1M-4M bin.
  EXPECT_EQ(r.c(posix::SIZE_READ_1K_10K), 10);
  EXPECT_EQ(r.c(posix::SIZE_WRITE_1M_4M), 3);
  EXPECT_DOUBLE_EQ(r.f(posix::F_READ_TIME), 1.0);
  EXPECT_DOUBLE_EQ(r.f(posix::F_WRITE_TIME), 0.5);
  EXPECT_DOUBLE_EQ(r.f(posix::F_READ_END_TIMESTAMP), 1.0);
  EXPECT_DOUBLE_EQ(r.f(posix::F_WRITE_END_TIMESTAMP), 1.5);
  EXPECT_EQ(r.c(posix::MAX_BYTE_READ), 40960 - 1);
  EXPECT_EQ(log.job.start_time, 100);
  EXPECT_EQ(log.job.end_time, 200);
}

TEST(Runtime, SequentialCountersOnlyWhenSequential) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/s.bin", 0.0);
  rt.record_reads(h, 0, 100, 5, 0, 0.1, /*sequential=*/true);
  rt.record_reads(h, 0, 100, 4, 0, 0.1, /*sequential=*/false);
  const LogData log = rt.finalize(0, 1);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.c(posix::READS), 9);
  EXPECT_EQ(r.c(posix::SEQ_READS), 5);
  EXPECT_EQ(r.c(posix::CONSEC_READS), 4);
}

TEST(Runtime, StdioHasNoHistogramButCountsBytes) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/log.txt", 0.0);
  rt.record_writes(h, 0, 128, 100, 0.0, 0.2);
  const LogData log = rt.finalize(0, 1);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.module, ModuleId::kStdio);
  EXPECT_EQ(r.c(stdio::WRITES), 100);
  EXPECT_EQ(r.c(stdio::BYTES_WRITTEN), 12800);
  EXPECT_EQ(r.counters.size(), stdio::COUNTER_COUNT);  // no histogram slots exist
}

TEST(Runtime, SharedReductionCollapsesAllRanks) {
  const std::uint32_t nprocs = 8;
  Runtime rt(make_job(nprocs), mounts());
  for (std::uint32_t rank = 0; rank < nprocs; ++rank) {
    const auto h = rt.open_file(ModuleId::kPosix, static_cast<std::int32_t>(rank),
                                "/gpfs/alpine/shared.h5", 0.1 * rank);
    // Ranks finish at different times; the slowest defines the shared time.
    rt.record_reads(h, static_cast<std::int32_t>(rank), util::kMB, 4, 0.1 * rank,
                    1.0 + 0.1 * rank);
  }
  EXPECT_EQ(rt.live_records(), nprocs);
  const LogData log = rt.finalize(0, 10);

  ASSERT_EQ(log.records.size(), 1u);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.rank, kSharedRank);
  EXPECT_EQ(r.c(posix::READS), 4 * nprocs);
  EXPECT_EQ(r.c(posix::BYTES_READ), static_cast<std::int64_t>(4 * nprocs * util::kMB));
  // Min start across ranks; max end; slowest-rank time.
  EXPECT_DOUBLE_EQ(r.f(posix::F_READ_START_TIMESTAMP), 0.0);
  EXPECT_NEAR(r.f(posix::F_READ_END_TIMESTAMP), 0.7 + 1.7, 1e-9);
  EXPECT_NEAR(r.f(posix::F_READ_TIME), 1.7, 1e-9);
}

TEST(Runtime, PartialAccessStaysPerRank) {
  Runtime rt(make_job(8), mounts());
  for (std::int32_t rank = 0; rank < 3; ++rank) {  // only 3 of 8 ranks
    const auto h = rt.open_file(ModuleId::kPosix, rank, "/gpfs/alpine/partial.bin", 0.0);
    rt.record_reads(h, rank, 1024, 1, 0.0, 0.1);
  }
  const LogData log = rt.finalize(0, 1);
  EXPECT_EQ(log.records.size(), 3u);
  for (const auto& r : log.records) EXPECT_NE(r.rank, kSharedRank);
}

TEST(Runtime, DirectSharedRankPassesThrough) {
  Runtime rt(make_job(4096), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, kSharedRank, "/gpfs/alpine/big.h5", 0.0);
  rt.record_writes(h, kSharedRank, 16 * util::kMB, 1000, 0.0, 30.0);
  const LogData log = rt.finalize(0, 60);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].rank, kSharedRank);
  EXPECT_EQ(log.records[0].c(posix::WRITES), 1000);
}

TEST(Runtime, SerialJobIsNotReduced) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/serial.bin", 0.0);
  rt.record_reads(h, 0, 100, 1, 0, 0.1);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].rank, 0);  // nprocs == 1: stays rank 0
}

TEST(Runtime, LustreGeometryRecord) {
  Runtime rt(make_job(2), mounts());
  rt.record_lustre(rt.intern_path("/gpfs/alpine/striped.h5"), 1 << 20, 8, 17, 5, 248);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 1u);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.module, ModuleId::kLustre);
  EXPECT_EQ(r.c(lustre::STRIPE_WIDTH), 8);
  EXPECT_EQ(r.c(lustre::OSTS), 248);
  EXPECT_EQ(r.rank, kSharedRank);
}

TEST(Runtime, MultipleModulesForSameFile) {
  Runtime rt(make_job(1), mounts());
  const auto hm = rt.open_file(ModuleId::kMpiIo, 0, "/gpfs/alpine/both.h5", 0.0);
  const auto hp = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/both.h5", 0.0);
  rt.record_reads(hm, 0, 1024, 2, 0, 0.1);
  rt.record_reads(hp, 0, 16 * util::kMB, 1, 0, 0.1);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 2u);
  EXPECT_NE(find(log, ModuleId::kMpiIo, 0), nullptr);
  EXPECT_NE(find(log, ModuleId::kPosix, 0), nullptr);
  EXPECT_EQ(log.records[0].record_id, log.records[1].record_id);
}

TEST(Runtime, NamesAndMountsAreRecorded) {
  Runtime rt(make_job(1), mounts());
  rt.open_file(ModuleId::kPosix, 0, "/mnt/bb/x.dat", 0.0);
  const LogData log = rt.finalize(0, 1);
  EXPECT_EQ(log.mounts.size(), 2u);
  EXPECT_EQ(log.path_of(hash_record_id("/mnt/bb/x.dat")), "/mnt/bb/x.dat");
}

TEST(Runtime, ZeroOpBatchesAreIgnored) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/z.bin", 0.0);
  rt.record_reads(h, 0, 1024, 0, 0, 0.0);
  const LogData log = rt.finalize(0, 1);
  EXPECT_EQ(log.records[0].c(posix::READS), 0);
  EXPECT_EQ(log.records[0].c(posix::BYTES_READ), 0);
}

TEST(Runtime, InterningSamePathAcrossModulesAndRanks) {
  // nprocs 8 but only ranks 0/1 touch the file: partial access, no collapse.
  Runtime rt(make_job(8), mounts());
  const std::uint64_t id = rt.intern_path("/gpfs/alpine/shared.h5");
  EXPECT_EQ(id, hash_record_id("/gpfs/alpine/shared.h5"));
  EXPECT_EQ(rt.intern_path("/gpfs/alpine/shared.h5"), id);  // idempotent

  const auto hp0 = rt.open_file(ModuleId::kPosix, 0, id, 0.0);
  const auto hm0 = rt.open_file(ModuleId::kMpiIo, 0, id, 0.0);
  const auto hp1 = rt.open_file(ModuleId::kPosix, 1, "/gpfs/alpine/shared.h5", 0.0);
  EXPECT_EQ(hp0.record_id, id);
  EXPECT_EQ(hm0.record_id, id);
  EXPECT_EQ(hp1.record_id, id);

  // Same path, three distinct (module, rank) records...
  EXPECT_EQ(rt.live_records(), 3u);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 3u);
  for (const FileRecord& r : log.records) EXPECT_EQ(r.record_id, id);
  // ...but the name was interned exactly once.
  ASSERT_EQ(log.names.size(), 1u);
  EXPECT_EQ(log.path_of(id), "/gpfs/alpine/shared.h5");
}

TEST(Runtime, InternAloneRegistersNoRecord) {
  Runtime rt(make_job(1), mounts());
  rt.intern_path("/gpfs/alpine/never-touched.bin");
  EXPECT_EQ(rt.live_records(), 0u);
}

TEST(Runtime, HandleReuseAcrossReadWriteSegments) {
  Runtime rt(make_job(1), mounts());
  const auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/rw.dat", 0.0);
  rt.record_reads(h, 0, 4096, 4, 0.0, 0.5);
  rt.record_writes(h, 0, 4096, 2, 0.5, 0.25);
  rt.record_meta(h, 0, 1, 0.01);
  // Re-opening the same (module, path) yields the same handle; the record is
  // shared across the read and write segments and only OPENS advances.
  const auto h2 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/rw.dat", 1.0);
  EXPECT_EQ(h2.record_id, h.record_id);
  EXPECT_EQ(h2.module, h.module);
  EXPECT_EQ(rt.live_records(), 1u);
  rt.record_writes(h2, 0, 8192, 1, 1.0, 0.1);

  const LogData log = rt.finalize(0, 2);
  ASSERT_EQ(log.records.size(), 1u);
  const FileRecord& r = log.records[0];
  EXPECT_EQ(r.c(posix::OPENS), 2);
  EXPECT_EQ(r.c(posix::READS), 4);
  EXPECT_EQ(r.c(posix::WRITES), 3);
  EXPECT_DOUBLE_EQ(r.f(posix::F_OPEN_START_TIMESTAMP), 0.0);  // earliest open wins
}

TEST(Runtime, ReusedRuntimeKeepsOutputIdentical) {
  auto drive = [](Runtime& rt, int files) {
    for (int f = 0; f < files; ++f) {
      const std::string path = "/gpfs/alpine/re" + std::to_string(f);
      for (std::int32_t rank = 0; rank < 2; ++rank) {
        const auto h = rt.open_file(ModuleId::kPosix, rank, path, 0.0);
        rt.record_reads(h, rank, 2048, 5, 0.0, 0.3);
      }
    }
  };
  Runtime fresh(make_job(2), mounts());
  drive(fresh, 6);
  const LogData ref = fresh.finalize(0, 1);

  // One runtime runs a larger job, then the same job again, through one
  // recycled scratch log: the second log must be the fresh runtime's.
  Runtime reused(make_job(2), mounts());
  LogData scratch;
  drive(reused, 40);
  reused.finalize_into(0, 1, scratch);
  reused.begin(make_job(2), mounts());
  drive(reused, 6);
  reused.finalize_into(0, 1, scratch);
  EXPECT_TRUE(scratch == ref);
}

TEST(Runtime, RankSegmentMatchesPerRankCalls) {
  // RankSegment's contract: the bulk fan-out leaves exactly the log a
  // per-rank open_file/record_*/record_meta loop leaves.  Covers remainder
  // rows, a zero-byte row, an op-size tail, a pre-reduced shared row, and
  // all-rank collapse at finalize.
  struct Step {
    ModuleId module;
    const char* path;
    bool read;
    RankSegment seg;
  };
  const std::vector<Step> steps = {
      {ModuleId::kPosix, "/gpfs/alpine/a", true, {0, 4, 3, 10000, 4096, 0.5, 1.25, true, 1, 0.01}},
      {ModuleId::kPosix, "/gpfs/alpine/a", false, {0, 3, 2, 0, 1, 2.0, 0.5, true, 1, 0.02}},
      {ModuleId::kMpiIo, "/gpfs/alpine/b", false, {0, 2, 0, 1 << 20, 1000, 3.0, 2.0, false, 1, 0.0}},
      {ModuleId::kStdio, "/mnt/bb/c", true, {kSharedRank, 1, 0, 123457, 65536, 4.0, 0.75, true, 0, 0.0}},
  };

  Runtime bulk(make_job(4), mounts());
  for (const Step& st : steps) {
    const std::uint64_t id = bulk.intern_path(st.path);
    if (st.read) {
      bulk.record_reads_ranks(st.module, id, st.seg);
    } else {
      bulk.record_writes_ranks(st.module, id, st.seg);
    }
  }

  Runtime calls(make_job(4), mounts());
  for (const Step& st : steps) {
    const RankSegment& s = st.seg;
    const std::uint64_t op = std::max<std::uint64_t>(1, s.op_size);
    for (std::uint32_t r = 0; r < s.n_ranks; ++r) {
      const std::int32_t rank = s.rank0 + static_cast<std::int32_t>(r);
      const std::uint64_t bytes = s.per_rank_bytes + (r < s.n_plus_one ? 1 : 0);
      if (bytes == 0 && s.n_ranks > 1) continue;
      const FileHandle h = calls.open_file(st.module, rank, st.path, s.start);
      const auto transfer = [&](std::uint64_t size, std::uint64_t n, double elapsed) {
        if (st.read) {
          calls.record_reads(h, rank, size, n, s.start, elapsed, s.sequential);
        } else {
          calls.record_writes(h, rank, size, n, s.start, elapsed, s.sequential);
        }
      };
      transfer(op, bytes / op, s.elapsed);
      if (bytes % op > 0) transfer(bytes % op, 1, 0.0);
      if (s.meta_ops > 0) calls.record_meta(h, rank, s.meta_ops, s.meta_elapsed);
    }
  }

  const LogData a = bulk.finalize(0, 5);
  const LogData b = calls.finalize(0, 5);
  ASSERT_EQ(a.records.size(), b.records.size());
  EXPECT_TRUE(a.records == b.records);
  EXPECT_TRUE(a == b);
}

TEST(Runtime, RanksOutsideTheJobThrow) {
  // A 3-process job: rows for ranks {0, 1, 5} of one file must not count as
  // three of three ranks and collapse into a shared record.
  Runtime rt(make_job(3), mounts());
  const std::uint64_t id = rt.intern_path("/gpfs/alpine/r.bin");
  const FileHandle h = rt.open_file(ModuleId::kPosix, 0, id, 0.0);
  rt.open_file(ModuleId::kPosix, 1, id, 0.0);
  rt.open_file(ModuleId::kPosix, kSharedRank, id, 0.0);
  EXPECT_THROW(rt.open_file(ModuleId::kPosix, 5, id, 0.0), util::ConfigError);
  EXPECT_THROW(rt.open_file(ModuleId::kPosix, 3, "/gpfs/alpine/r.bin", 0.0), util::ConfigError);
  EXPECT_THROW(rt.open_file(ModuleId::kPosix, -2, id, 0.0), util::ConfigError);
  EXPECT_THROW(rt.record_reads(h, 5, 100, 1, 0.0, 0.1), util::ConfigError);
  EXPECT_THROW(rt.record_writes(h, -2, 100, 1, 0.0, 0.1), util::ConfigError);
  EXPECT_THROW(rt.record_meta(h, 3, 1, 0.1), util::ConfigError);
  RankSegment seg;
  seg.rank0 = 1;
  seg.n_ranks = 3;  // ranks 1..3
  seg.per_rank_bytes = 100;
  EXPECT_THROW(rt.record_reads_ranks(ModuleId::kPosix, id, seg), util::ConfigError);
  seg.rank0 = -2;
  seg.n_ranks = 1;
  EXPECT_THROW(rt.record_writes_ranks(ModuleId::kPosix, id, seg), util::ConfigError);
  seg.rank0 = kSharedRank;
  seg.n_ranks = 4;  // ranks -1..2: in range
  rt.record_reads_ranks(ModuleId::kPosix, id, seg);

  EXPECT_EQ(rt.live_records(), 4u);
  const LogData log = rt.finalize(0, 1);
  // Four rows of a 3-process job (the shared row among them) stay per rank.
  ASSERT_EQ(log.records.size(), 4u);
  EXPECT_EQ(log.records[0].rank, kSharedRank);
  EXPECT_EQ(log.records[3].rank, 2);
}

/// write_body's bytes against write_log_body of finalize_into's LogData for
/// the same events, reported into two runtimes by `drive`.
template <class Drive>
void expect_same_body(std::uint32_t nprocs, const RuntimeOptions& opts, const Drive& drive) {
  Runtime direct(make_job(nprocs), mounts(), opts);
  Runtime reference(make_job(nprocs), mounts(), opts);
  drive(direct);
  drive(reference);
  util::ByteWriter body;
  direct.write_body(10, 20, body);
  const LogData log = reference.finalize(10, 20);
  LogIoBuffers io;
  write_log_body(io.body, log, io);
  ASSERT_EQ(body.size(), io.body.size());
  EXPECT_TRUE(std::ranges::equal(body.view(), io.body.view()));
  EXPECT_TRUE(direct.job() == log.job);
}

TEST(Runtime, SharedRowSortsBeforeRankRows) {
  // Only the per-rank API can put a shared-rank row beside per-rank rows.
  // Slot 0 (the shared rank) must come first, as kSharedRank sorts first:
  // in a partial group it is the first record, and in a group with as many
  // rows as ranks it is reduced first.
  auto drive = [](Runtime& rt) {
    const std::uint64_t partial = rt.intern_path("/gpfs/alpine/partial");
    const std::uint64_t full = rt.intern_path("/gpfs/alpine/full");
    for (const std::int32_t rank : {2, kSharedRank, 0}) {
      const FileHandle h = rt.open_file(ModuleId::kPosix, rank, partial, 0.5 + rank);
      rt.record_writes(h, rank, 4096, 3 + static_cast<std::uint64_t>(rank + 1), 0.5, 0.25);
    }
    for (const std::int32_t rank : {3, 1, kSharedRank, 0, 2}) {
      const FileHandle h = rt.open_file(ModuleId::kStdio, rank, full, 1.0 / (rank + 2));
      rt.record_reads(h, rank, 100, 7, 0.1 * (rank + 2), 0.3 / (rank + 2));
      rt.record_meta(h, rank, 1, 0.01 * (rank + 2));
    }
  };
  expect_same_body(5, {}, drive);
  expect_same_body(5, {.enable_dxt = true}, drive);

  Runtime rt(make_job(5), mounts());
  drive(rt);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 4u);  // partial: 3 rows; full: 1 shared
  EXPECT_EQ(log.records[0].module, ModuleId::kPosix);
  EXPECT_EQ(log.records[0].rank, kSharedRank);
  EXPECT_EQ(log.records[1].rank, 0);
  EXPECT_EQ(log.records[2].rank, 2);
  EXPECT_EQ(log.records[3].module, ModuleId::kStdio);
  EXPECT_EQ(log.records[3].rank, kSharedRank);
  EXPECT_EQ(log.records[3].c(stdio::READS), 35);
}

TEST(Runtime, DirectBodyCoversEveryModule) {
  auto drive = [](Runtime& rt) {
    const std::uint64_t a = rt.intern_path("/gpfs/alpine/a");
    const std::uint64_t b = rt.intern_path("/mnt/bb/b");
    RankSegment seg{0, 4, 3, 10000, 4096, 0.5, 1.25, true, 1, 0.01};
    rt.record_reads_ranks(ModuleId::kMpiIo, a, seg);
    rt.record_reads_ranks(ModuleId::kPosix, a, seg);
    seg.rank0 = kSharedRank;
    seg.n_ranks = 1;
    rt.record_writes_ranks(ModuleId::kStdio, b, seg);
    rt.record_lustre(a, 1 << 20, 8, 17, 5, 248);
    rt.record_ssd(b, 100, 200, 50, 150, 100, 1.5);
    rt.intern_path("/mnt/bb/never-touched");
  };
  expect_same_body(4, {}, drive);
  expect_same_body(4, {.enable_dxt = true}, drive);
  expect_same_body(1, {}, [](Runtime&) {});  // no records at all
}

TEST(Runtime, DeterministicRecordOrder) {
  auto build = [] {
    Runtime rt(make_job(4), mounts());
    for (int f = 0; f < 20; ++f) {
      for (std::int32_t rank = 0; rank < 2; ++rank) {
        const auto h = rt.open_file(ModuleId::kPosix, rank,
                                    "/gpfs/alpine/f" + std::to_string(f), 0.0);
        rt.record_reads(h, rank, 100, 1, 0, 0.1);
      }
    }
    return rt.finalize(0, 1);
  };
  EXPECT_TRUE(build() == build());
}

}  // namespace
}  // namespace mlio::darshan
