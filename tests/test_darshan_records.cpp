#include <gtest/gtest.h>

#include "darshan/counters.hpp"
#include "darshan/module.hpp"
#include "darshan/record.hpp"

namespace mlio::darshan {
namespace {

TEST(Module, CounterCounts) {
  EXPECT_EQ(counter_count(ModuleId::kPosix), posix::COUNTER_COUNT);
  EXPECT_EQ(counter_count(ModuleId::kMpiIo), mpiio::COUNTER_COUNT);
  EXPECT_EQ(counter_count(ModuleId::kStdio), stdio::COUNTER_COUNT);
  EXPECT_EQ(counter_count(ModuleId::kLustre), lustre::COUNTER_COUNT);
  // STDIO deliberately lacks the request-size histograms (Rec. 4).
  EXPECT_LT(counter_count(ModuleId::kStdio), counter_count(ModuleId::kPosix));
  EXPECT_EQ(fcounter_count(ModuleId::kLustre), 0u);
}

TEST(Module, NamesAreStable) {
  EXPECT_EQ(module_name(ModuleId::kPosix), "POSIX");
  EXPECT_EQ(module_name(ModuleId::kStdio), "STDIO");
  EXPECT_EQ(counter_name(ModuleId::kPosix, posix::BYTES_READ), "POSIX_BYTES_READ");
  EXPECT_EQ(counter_name(ModuleId::kPosix, posix::SIZE_READ_0_100), "POSIX_SIZE_READ_0_100");
  EXPECT_EQ(counter_name(ModuleId::kPosix, posix::SIZE_WRITE_1G_PLUS),
            "POSIX_SIZE_WRITE_1G_PLUS");
  EXPECT_EQ(counter_name(ModuleId::kStdio, stdio::BYTES_WRITTEN), "STDIO_BYTES_WRITTEN");
  EXPECT_EQ(fcounter_name(ModuleId::kMpiIo, mpiio::F_READ_TIME), "MPIIO_F_READ_TIME");
  EXPECT_EQ(counter_name(ModuleId::kLustre, lustre::STRIPE_WIDTH), "LUSTRE_STRIPE_WIDTH");
}

TEST(Module, HistogramBinsAreContiguous) {
  // The runtime indexes bins as SIZE_READ_0_100 + bin; verify the layout.
  EXPECT_EQ(posix::SIZE_READ_1G_PLUS - posix::SIZE_READ_0_100, 9u);
  EXPECT_EQ(posix::SIZE_WRITE_0_100 - posix::SIZE_READ_0_100, 10u);
  EXPECT_EQ(mpiio::SIZE_WRITE_AGG_0_100 - mpiio::SIZE_READ_AGG_0_100, 10u);
}

TEST(Record, HashIsFnv1a) {
  // FNV-1a 64 reference values.
  EXPECT_EQ(hash_record_id(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(hash_record_id("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_NE(hash_record_id("/gpfs/alpine/x"), hash_record_id("/gpfs/alpine/y"));
}

TEST(Record, ConstructorSizesCounterVectors) {
  const FileRecord r(7, kSharedRank, ModuleId::kStdio);
  EXPECT_EQ(r.counters.size(), stdio::COUNTER_COUNT);
  EXPECT_EQ(r.fcounters.size(), stdio::FCOUNTER_COUNT);
  EXPECT_EQ(r.rank, -1);
}

TEST(Record, LogDataPathLookup) {
  LogData log;
  log.names.try_emplace(42, "/mnt/bb/file");
  EXPECT_EQ(log.path_of(42), "/mnt/bb/file");
  EXPECT_TRUE(log.path_of(43).empty());
}

TEST(Record, SecondInsertOfAnIdKeepsTheFirstPath) {
  LogData log;
  EXPECT_TRUE(log.names.try_emplace(7, "/gpfs/first").second);
  EXPECT_FALSE(log.names.try_emplace(7, "/gpfs/second").second);
  EXPECT_EQ(log.names.size(), 1u);
  EXPECT_EQ(log.path_of(7), "/gpfs/first");
}

TEST(Record, NameEqualityIgnoresInsertionOrder) {
  LogData a;
  a.names.try_emplace(1, "/gpfs/x");
  a.names.try_emplace(2, "/gpfs/y");
  LogData b;
  b.names.try_emplace(2, "/gpfs/y");
  b.names.try_emplace(1, "/gpfs/x");
  EXPECT_TRUE(a == b);

  LogData other_path;
  other_path.names.try_emplace(1, "/gpfs/x");
  other_path.names.try_emplace(2, "/gpfs/z");
  EXPECT_FALSE(a == other_path);

  LogData missing_id;
  missing_id.names.try_emplace(1, "/gpfs/x");
  EXPECT_FALSE(a == missing_id);
  EXPECT_FALSE(missing_id == a);

  LogData other_id;
  other_id.names.try_emplace(1, "/gpfs/x");
  other_id.names.try_emplace(3, "/gpfs/y");
  EXPECT_FALSE(a == other_id);
}

TEST(Record, EqualityCoversAllFields) {
  LogData a;
  a.job.job_id = 1;
  a.mounts.push_back({"/gpfs", "gpfs"});
  a.names.try_emplace(1, "/gpfs/x");
  a.records.emplace_back(1, 0, ModuleId::kPosix);
  LogData b = a;
  EXPECT_TRUE(a == b);
  b.records[0].counters[posix::OPENS] = 1;
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace mlio::darshan
