#include "darshan/log_format.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "darshan/counters.hpp"
#include "harness/plain_frame.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::darshan {
namespace {

LogData random_log(std::uint64_t seed, std::size_t n_records) {
  util::Rng rng(seed);
  LogData log;
  log.job.job_id = rng.next();
  log.job.user_id = static_cast<std::uint32_t>(rng.uniform_u64(1, 1 << 20));
  log.job.nprocs = static_cast<std::uint32_t>(rng.uniform_u64(1, 4096));
  log.job.nnodes = std::max(1u, log.job.nprocs / 42);
  log.job.start_time = static_cast<std::int64_t>(rng.uniform_u64(0, 1u << 30));
  log.job.end_time = log.job.start_time + static_cast<std::int64_t>(rng.uniform_u64(1, 86400));
  log.job.exe = "exe_" + std::to_string(rng.next() & 0xffff);
  log.job.metadata["domain"] = "Physics";
  log.job.metadata["machine"] = "Summit";
  log.mounts = {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}};

  for (std::size_t i = 0; i < n_records; ++i) {
    const auto mod = static_cast<ModuleId>(rng.uniform_u64(0, 3));
    const std::string path = "/gpfs/alpine/f" + std::to_string(i);
    FileRecord rec(hash_record_id(path), i % 3 == 0 ? kSharedRank
                                                    : static_cast<std::int32_t>(i % 7),
                   mod);
    log.names.try_emplace(rec.record_id, path);
    for (auto& c : rec.counters) c = static_cast<std::int64_t>(rng.next() >> 16);
    for (auto& f : rec.fcounters) f = rng.uniform_real(0, 1e6);
    log.records.push_back(std::move(rec));
  }
  return log;
}

TEST(LogFormat, RoundtripCompressed) {
  const LogData log = random_log(1, 25);
  const auto bytes = write_log_bytes(log);
  const LogData back = read_log_bytes(bytes);
  EXPECT_TRUE(log == back);
}

TEST(LogFormat, RoundtripUncompressed) {
  // The writer always deflates; a flag-0 frame (as the old uncompressed
  // option wrote) must still read back.
  const LogData log = random_log(2, 10);
  const auto bytes = harness::plain_log_frame(log);
  ASSERT_EQ(bytes[6], std::byte{0});  // flags
  EXPECT_TRUE(log == read_log_bytes(bytes));
}

TEST(LogFormat, RoundtripEmptyLog) {
  LogData log;
  log.job.job_id = 9;
  EXPECT_TRUE(log == read_log_bytes(write_log_bytes(log)));
}

TEST(LogFormat, CompressionShrinksTypicalLogs) {
  const LogData log = random_log(3, 200);
  const auto bytes = write_log_bytes(log);
  EXPECT_EQ(bytes[6], std::byte{kFlagCompressed});
  EXPECT_LT(bytes.size(), harness::plain_log_frame(log).size());
}

TEST(LogFormat, BadMagicThrows) {
  auto bytes = write_log_bytes(random_log(4, 1));
  bytes[0] = std::byte{0x00};
  EXPECT_THROW(read_log_bytes(bytes), util::FormatError);
}

TEST(LogFormat, BadVersionThrows) {
  auto bytes = write_log_bytes(random_log(5, 1));
  bytes[4] = std::byte{0x7f};
  EXPECT_THROW(read_log_bytes(bytes), util::FormatError);
}

TEST(LogFormat, VersionTwoFrameIsRefused) {
  // Version 2 stored every counter as an 8-byte word; its frames have the
  // same header, and the version is read before the body, so a v2 frame
  // with a valid CRC is refused by name rather than misparsed.
  auto bytes = harness::plain_log_frame(random_log(5, 3));
  ASSERT_EQ(bytes[4], std::byte{kLogVersion});
  bytes[4] = std::byte{2};
  try {
    (void)read_log_bytes(bytes);
    FAIL() << "a version-2 frame was read";
  } catch (const util::FormatError& e) {
    EXPECT_STREQ(e.what(), "format error: unsupported log version 2");
  }
}

TEST(LogFormat, RecordBlockIsSparse) {
  // One POSIX record on rank 5 with three non-zero words: OPENS = 1 (word
  // 0), WRITES = -300 (word 2) and a -0.0 F_READ_TIME (word nc + 6).
  // The block is the id, the rank as a zigzag varint, a 6-byte bitmap for
  // the 44 words, each counter as a zigzag varint, the fcounter's 8 bytes,
  // then the empty DXT region ends the body.
  LogData log;
  FileRecord rec(0x1122334455667788ull, 5, ModuleId::kPosix);
  rec.counters[posix::OPENS] = 1;
  rec.counters[posix::WRITES] = -300;
  rec.fcounters[posix::F_READ_TIME] = -0.0;
  log.records.push_back(rec);
  const auto bytes = harness::plain_log_frame(log);
  ASSERT_EQ(posix::WRITES, 2u);
  const std::size_t bit = std::size_t{posix::COUNTER_COUNT} + posix::F_READ_TIME;
  ASSERT_EQ(bit, 41u);
  const std::vector<std::uint8_t> tail = {
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // record_id
      0x0a,                                            // rank 5: zigzag 10
      0x05, 0, 0, 0, 0, 0x02,                          // bitmap: bits 0, 2 and 41
      0x02,                                            // OPENS 1: zigzag 2
      0xd7, 0x04,                                      // -300: zigzag 599 = 0x257
      0, 0, 0, 0, 0, 0, 0, 0x80,                       // -0.0
      0, 0, 0, 0};                                     // DXT count
  ASSERT_GE(bytes.size(), tail.size());
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(bytes[bytes.size() - tail.size() + i], std::byte{tail[i]}) << "tail byte " << i;
  }
  const LogData back = read_log_bytes(bytes);
  ASSERT_EQ(back.records.size(), 1u);
  EXPECT_TRUE(std::signbit(back.records[0].f(posix::F_READ_TIME)));
  EXPECT_TRUE(log == back);
}

TEST(LogFormat, CorruptBodyThrows) {
  auto bytes = write_log_bytes(random_log(6, 20));
  bytes[bytes.size() - 5] ^= std::byte{0xff};
  EXPECT_THROW(read_log_bytes(bytes), util::FormatError);
}

TEST(LogFormat, CrcCatchesUncompressedCorruption) {
  auto bytes = harness::plain_log_frame(random_log(7, 5));
  bytes[bytes.size() - 1] ^= std::byte{0x01};
  EXPECT_THROW(read_log_bytes(bytes), util::FormatError);
}

TEST(LogFormat, TruncatedBodyThrows) {
  auto bytes = write_log_bytes(random_log(8, 20));
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(read_log_bytes(bytes), util::FormatError);
}

TEST(LogFormat, FileRoundtrip) {
  namespace fs = std::filesystem;
  const LogData log = random_log(9, 40);
  const fs::path path = fs::temp_directory_path() / "mlio_test_log.darshan";
  write_log_file(log, path);
  const LogData back = read_log_file(path);
  EXPECT_TRUE(log == back);
  fs::remove(path);
}

TEST(LogFormat, MissingFileThrows) {
  EXPECT_THROW(read_log_file("/nonexistent/dir/x.darshan"), util::Error);
}

// Property sweep: roundtrip holds across log shapes and record counts.
class LogFormatProperty : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LogFormatProperty, RoundtripManyShapes) {
  for (std::uint64_t seed = 100; seed < 105; ++seed) {
    const LogData log = random_log(seed * 7 + GetParam(), GetParam());
    EXPECT_TRUE(log == read_log_bytes(write_log_bytes(log)));
  }
}

INSTANTIATE_TEST_SUITE_P(RecordCounts, LogFormatProperty,
                         ::testing::Values(0u, 1u, 2u, 17u, 64u, 257u, 1024u));

}  // namespace
}  // namespace mlio::darshan
