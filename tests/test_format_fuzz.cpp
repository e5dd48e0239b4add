// Robustness fuzz: a corrupted or truncated log must never crash, hang, or
// return garbage silently — every failure mode is a FormatError.  A facility
// tool pointed at a year of production logs will meet damaged files.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "archive/scan.hpp"
#include "core/analysis.hpp"
#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/plain_frame.hpp"
#include "harness/record_block.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::darshan {
namespace {

LogData sample_log(std::uint64_t seed) {
  JobRecord job;
  job.job_id = seed;
  job.nprocs = 4;
  job.nnodes = 1;
  job.metadata["domain"] = "Physics";
  RuntimeOptions opts;
  opts.enable_dxt = seed % 2 == 0;
  Runtime rt(job, {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}}, opts);
  util::Rng rng(seed);
  for (int f = 0; f < 12; ++f) {
    const auto mod = f % 3 == 0 ? ModuleId::kStdio : ModuleId::kPosix;
    const std::string path =
        (f % 2 ? "/gpfs/alpine/f" : "/mnt/bb/f") + std::to_string(f);
    const auto h = rt.open_file(mod, 0, path, 0.0);
    rt.record_reads(h, 0, rng.log_uniform_u64(64, 1 << 20), rng.uniform_u64(1, 50), 0.0, 0.5);
    rt.record_writes(h, 0, rng.log_uniform_u64(64, 1 << 20), rng.uniform_u64(1, 50), 0.5, 0.5);
  }
  rt.record_lustre(rt.intern_path("/gpfs/alpine/f1"), 1 << 20, 4, 0, 5, 248);
  rt.record_ssd(rt.intern_path("/mnt/bb/f0"), 100, 200, 50, 150, 100, 1.5);
  return rt.finalize(0, 100);
}

class FormatFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FormatFuzz, SingleByteCorruptionThrowsOrRoundtrips) {
  const LogData log = sample_log(GetParam());
  const auto bytes = write_log_bytes(log);
  util::Rng rng(GetParam() * 31 + 7);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = bytes;
    const std::size_t pos =
        static_cast<std::size_t>(rng.uniform_u64(0, corrupted.size() - 1));
    const auto flip = static_cast<std::byte>(rng.uniform_u64(1, 255));
    corrupted[pos] ^= flip;
    try {
      const LogData back = read_log_bytes(corrupted);
      // Extremely unlikely (CRC collision) but legal: the parse succeeded,
      // so the result must at least be structurally sound.
      EXPECT_LE(back.records.size(), 1'000'000u);
    } catch (const util::FormatError&) {
      // expected
    }
    // Any other exception type (or a crash) fails the test.
  }
}

TEST_P(FormatFuzz, TruncationAtEveryPrefixThrows) {
  const LogData log = sample_log(GetParam());
  const auto bytes = write_log_bytes(log);
  // Step through prefixes (every 7 bytes keeps the test fast).
  for (std::size_t len = 0; len + 1 < bytes.size(); len += 7) {
    const std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_THROW((void)read_log_bytes(prefix), util::FormatError) << "len=" << len;
  }
}

TEST_P(FormatFuzz, GarbageInputThrows) {
  util::Rng rng(GetParam() ^ 0xfeed);
  std::vector<std::byte> garbage(2048);
  for (auto& b : garbage) b = static_cast<std::byte>(rng.next() & 0xff);
  EXPECT_THROW((void)read_log_bytes(garbage), util::FormatError);
  EXPECT_THROW((void)read_log_bytes({}), util::FormatError);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FormatFuzz, ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

// ---------------------------------------------------------------------------
// Hostile counts.  A log whose header fields pass CRC but whose element
// counts promise more data than the body holds must fail cleanly before any
// proportional reserve() — a crafted 40-byte file must not make the reader
// attempt a 4-billion-element allocation.

// Minimal valid body prefix: empty job, no mounts, no names.
util::ByteWriter minimal_body_prefix() {
  util::ByteWriter w;
  w.u64(1);  // job_id
  w.u32(0);  // user_id
  w.u32(1);  // nprocs
  w.u32(1);  // nnodes
  w.i64(0);  // start_time
  w.i64(1);  // end_time
  w.str(""); // exe
  w.u32(0);  // metadata count
  w.u32(0);  // mount count
  w.u32(0);  // name count
  return w;
}

TEST(FormatHostileCounts, OversizedRegionCountThrows) {
  auto w = minimal_body_prefix();
  w.u32(0xffffffffu);  // region count far beyond the remaining bytes
  const auto framed = harness::plain_frame(w.view());
  EXPECT_THROW((void)read_log_bytes(framed), util::FormatError);
}

TEST(FormatHostileCounts, OversizedRecordCountThrows) {
  auto w = minimal_body_prefix();
  w.u32(1);  // one region
  w.u8(static_cast<std::uint8_t>(ModuleId::kPosix));
  w.u32(static_cast<std::uint32_t>(counter_count(ModuleId::kPosix)));
  w.u32(static_cast<std::uint32_t>(fcounter_count(ModuleId::kPosix)));
  w.u32(0xffffffffu);  // record count far beyond the remaining bytes
  const auto framed = harness::plain_frame(w.view());
  EXPECT_THROW((void)read_log_bytes(framed), util::FormatError);
}

TEST(FormatHostileCounts, OversizedNameAndMountCountsThrow) {
  {
    util::ByteWriter w;
    w.u64(1); w.u32(0); w.u32(1); w.u32(1); w.i64(0); w.i64(1);
    w.str(""); w.u32(0);
    w.u32(0xffffffffu);  // mount count
    EXPECT_THROW((void)read_log_bytes(harness::plain_frame(w.view())), util::FormatError);
  }
  {
    util::ByteWriter w;
    w.u64(1); w.u32(0); w.u32(1); w.u32(1); w.i64(0); w.i64(1);
    w.str(""); w.u32(0);
    w.u32(0);            // mounts
    w.u32(0xffffffffu);  // name count
    EXPECT_THROW((void)read_log_bytes(harness::plain_frame(w.view())), util::FormatError);
  }
}

TEST(FormatHostileCounts, ValidEmptyBodyStillParses) {
  // The guards must not reject legitimate small logs: the same minimal body
  // with honest zero counts for regions and DXT parses fine.
  auto w = minimal_body_prefix();
  w.u32(0);  // regions
  w.u32(0);  // dxt
  const LogData log = read_log_bytes(harness::plain_frame(w.view()));
  EXPECT_EQ(log.job.job_id, 1u);
  EXPECT_TRUE(log.records.empty());
  EXPECT_TRUE(log.names.empty());
}

// ---------------------------------------------------------------------------
// Hostile record blocks.  A record has exactly one encoding: its rank is a
// minimal zigzag varint of an int32, its bitmap sets no bit past the
// module's words, every set counter bit stores a minimal zigzag varint of at
// most 10 bytes that is not zero, every set fcounter bit a non-zero 8-byte
// pattern, and the set words fit in the bytes left.  Each violation is
// rejected by the walk with its own message, so a dropped check cannot hide
// behind a later generic one.

/// A body holding one POSIX region of one record whose rank is the bytes
/// `rank` and whose bitmap and words `block` writes, then (unless `dxt` is
/// false) an empty DXT region.
template <typename Block>
std::vector<std::byte> one_record_frame(Block&& block, bool dxt = true,
                                        std::vector<std::uint8_t> rank = {0x00}) {
  auto w = minimal_body_prefix();
  w.u32(1);  // one region
  w.u8(static_cast<std::uint8_t>(ModuleId::kPosix));
  w.u32(static_cast<std::uint32_t>(counter_count(ModuleId::kPosix)));
  w.u32(static_cast<std::uint32_t>(fcounter_count(ModuleId::kPosix)));
  w.u32(1);      // one record
  w.u64(0x77);   // record_id
  for (const std::uint8_t b : rank) w.u8(b);
  block(w);
  if (dxt) w.u32(0);
  return harness::plain_frame(w.view());
}

/// The FormatError message a frame's walk throws, or "" when it parses.
std::string walk_error(std::span<const std::byte> frame) {
  LogIoBuffers io;
  LogBody body;
  try {
    walk_log_body(read_log_frame_body(frame, io), body);
  } catch (const util::FormatError& e) {
    return e.what();
  }
  return "";
}

constexpr std::size_t kPosixWords =
    std::size_t{posix::COUNTER_COUNT} + std::size_t{posix::FCOUNTER_COUNT};
constexpr std::size_t kPosixBitmapBytes = (kPosixWords + 7) / 8;

/// Append a POSIX bitmap with exactly the bits `bits` set.
void write_bitmap(util::ByteWriter& w, std::uint64_t bits) {
  for (std::size_t b = 0; b < kPosixBitmapBytes; ++b) {
    w.u8(static_cast<std::uint8_t>(bits >> (8 * b)));
  }
}

/// A block storing OPENS (word 0) as the raw bytes `counter`.
auto opens_as(std::vector<std::uint8_t> counter) {
  return [counter = std::move(counter)](util::ByteWriter& w) {
    write_bitmap(w, 1);
    for (const std::uint8_t b : counter) w.u8(b);
  };
}

/// The walker's message for a record whose counters hold the raw bytes
/// `counter`, in four places: alone at the body's end, alone and followed
/// by an fcounter word, and before or after a one-byte counter, followed by
/// the word.  Returns the one message, or the distinct messages joined by
/// " | ".
std::string counter_error(const std::vector<std::uint8_t>& counter) {
  const std::uint64_t f0 = std::uint64_t{1} << posix::COUNTER_COUNT;  // fcounter 0
  const auto with = [&](std::uint64_t bits, bool first, bool second) {
    return one_record_frame([&](util::ByteWriter& w) {
      write_bitmap(w, bits);
      if (!first) w.u8(0x02);
      for (const std::uint8_t b : counter) w.u8(b);
      if (second) w.u8(0x02);
      if ((bits & f0) != 0) w.f64(1.0);
    });
  };
  const std::string errors[] = {
      walk_error(one_record_frame(opens_as(counter))),
      walk_error(with(1 | f0, true, false)),
      walk_error(with(0b11 | f0, true, true)),
      walk_error(with(0b11 | f0, false, false)),
  };
  std::string out = errors[0];
  for (const std::string& e : errors) {
    if (e != errors[0]) out += " | " + e;
  }
  return out;
}

TEST(FormatRecordBlock, WellFormedBlocksParse) {
  // The control for the rejections below: the same frame shape with an
  // honest block parses, reads each word where its bit says, and reads 0
  // elsewhere.
  const auto frame = one_record_frame([](util::ByteWriter& w) {
    const std::size_t write_time = std::size_t{posix::COUNTER_COUNT} + posix::F_WRITE_TIME;
    write_bitmap(w, (std::uint64_t{1} << posix::BYTES_READ) | (std::uint64_t{1} << write_time));
    harness::write_zigzag_varint(w, 4096);
    w.f64(-0.0);  // a set sign bit is a non-zero word
  });
  EXPECT_EQ(walk_error(frame), "");
  const LogData log = read_log_bytes(frame);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].c(posix::BYTES_READ), 4096);
  EXPECT_EQ(log.records[0].c(posix::OPENS), 0);
  EXPECT_TRUE(std::signbit(log.records[0].f(posix::F_WRITE_TIME)));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(log.records[0].f(posix::F_READ_TIME)), 0u);
  // An all-zero record is a bitmap of zeros and no words.
  EXPECT_EQ(walk_error(one_record_frame([](util::ByteWriter& w) { write_bitmap(w, 0); })), "");
  // The longest counters: 10 bytes, the last 1 (INT64_MIN, zigzag
  // 2^64 - 1) or 9 bytes (zigzag below 2^63).
  const auto longest = one_record_frame(
      opens_as({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}));
  EXPECT_EQ(walk_error(longest), "");
  EXPECT_EQ(read_log_bytes(longest).records[0].c(posix::OPENS),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(walk_error(one_record_frame(
                opens_as({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}))),
            "");
  // The same counters with bytes after them and a counter before or after.
  EXPECT_EQ(counter_error({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}), "");  // 8 bytes
  EXPECT_EQ(counter_error({0xd7, 0x04}), "");  // -300
  EXPECT_EQ(counter_error({0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}), "");
  // The extreme ranks: INT32_MIN is zigzag 2^32 - 1, five bytes.
  const auto low_rank = one_record_frame([](util::ByteWriter& w) { write_bitmap(w, 0); }, true,
                                         {0xff, 0xff, 0xff, 0xff, 0x0f});
  EXPECT_EQ(walk_error(low_rank), "");
  EXPECT_EQ(read_log_bytes(low_rank).records[0].rank, std::numeric_limits<std::int32_t>::min());
}

TEST(FormatRecordBlock, BitBeyondTheModuleWordsThrows) {
  for (std::size_t bit = kPosixWords; bit < 8 * kPosixBitmapBytes; ++bit) {
    const auto frame = one_record_frame([&](util::ByteWriter& w) {
      write_bitmap(w, (std::uint64_t{1} << bit) | 1u);
      harness::write_zigzag_varint(w, 1);  // word 0 (OPENS)
      w.u64(2);                            // the word the stray bit claims
    });
    EXPECT_EQ(walk_error(frame), "format error: record bitmap sets a bit beyond the module's words")
        << "bit " << bit;
    EXPECT_THROW((void)read_log_bytes(frame), util::FormatError) << "bit " << bit;
  }
}

TEST(FormatRecordBlock, SetBitOnAZeroWordThrows) {
  // A set bit on a zero counter, the single byte 0x00 (zigzag(0)): the same
  // record has a shorter encoding, so this one is refused.
  EXPECT_EQ(counter_error({0x00}), "format error: record bitmap marks a zero word");
  EXPECT_THROW((void)read_log_bytes(one_record_frame(opens_as({0x00}))), util::FormatError);
  // A zero fcounter word too (+0.0, all bits clear).
  const auto ffr = one_record_frame([](util::ByteWriter& w) {
    write_bitmap(w, std::uint64_t{1} << posix::COUNTER_COUNT);
    w.f64(0.0);
  });
  EXPECT_EQ(walk_error(ffr), "format error: record bitmap marks a zero word");
}

TEST(FormatRecordBlock, OverlongCounterThrows) {
  // 1 (zigzag 2) padded to two bytes, zero padded to two, and a value
  // padded to five: the last byte of each is 0x00, which the shortest
  // encoding never ends on.
  for (const auto& bytes : {std::vector<std::uint8_t>{0x82, 0x00},
                            std::vector<std::uint8_t>{0x80, 0x00},
                            std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0x80, 0x00}}) {
    EXPECT_EQ(counter_error(bytes), "format error: record counter varint is not minimal")
        << bytes.size() << " bytes";
    EXPECT_THROW((void)read_log_bytes(one_record_frame(opens_as(bytes))), util::FormatError);
  }
}

TEST(FormatRecordBlock, ElevenByteCounterThrows) {
  // The 10th byte continues: no 64-bit value takes an 11th byte.
  const std::vector<std::uint8_t> bytes = {0x81, 0x80, 0x80, 0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x01};
  EXPECT_EQ(counter_error(bytes), "format error: record counter varint is longer than 10 bytes");
  EXPECT_THROW((void)read_log_bytes(one_record_frame(opens_as(bytes))), util::FormatError);
}

TEST(FormatRecordBlock, TenthByteAboveOneThrows) {
  // The 10th byte holds bit 63 alone; 2 would be bit 64.
  const std::vector<std::uint8_t> bytes = {0x81, 0x80, 0x80, 0x80, 0x80,
                                           0x80, 0x80, 0x80, 0x80, 0x02};
  EXPECT_EQ(counter_error(bytes), "format error: record counter varint overflows 64 bits");
  EXPECT_THROW((void)read_log_bytes(one_record_frame(opens_as(bytes))), util::FormatError);
}

TEST(FormatRecordBlock, CounterVarintPastTheBodyEndThrows) {
  // One counter set and the body ends inside its varint: the byte the
  // bitmap promises is there, the varint's continuation is not.
  for (const auto& bytes : {std::vector<std::uint8_t>{0x80, 0x80},
                            std::vector<std::uint8_t>{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
                                                      0xff, 0xff}}) {
    const auto frame = one_record_frame(opens_as(bytes), /*dxt=*/false);
    EXPECT_EQ(walk_error(frame), "format error: record counter varint runs past the body end")
        << bytes.size() << " bytes";
    EXPECT_THROW((void)read_log_bytes(frame), util::FormatError);
  }
}

TEST(FormatRecordBlock, RankMustBeMinimalAndAnInt32) {
  const auto no_words = [](util::ByteWriter& w) { write_bitmap(w, 0); };
  const auto rank_error = [&](std::vector<std::uint8_t> rank) {
    return walk_error(one_record_frame(no_words, true, std::move(rank)));
  };
  EXPECT_EQ(rank_error({0x0a}), "");  // rank 5
  EXPECT_EQ(rank_error({0x01}), "");  // the shared rank, -1
  EXPECT_EQ(rank_error({0x8a, 0x00}), "format error: record rank varint is not minimal");
  EXPECT_EQ(rank_error({0x80, 0x00}), "format error: record rank varint is not minimal");
  // zigzag 2^32: one past INT32_MIN's 2^32 - 1.
  EXPECT_EQ(rank_error({0x80, 0x80, 0x80, 0x80, 0x10}),
            "format error: record rank is out of int32 range");
  // A sixth byte.
  EXPECT_EQ(rank_error({0x80, 0x80, 0x80, 0x80, 0x80, 0x01}),
            "format error: record rank is out of int32 range");
  // The body ends inside the rank.
  auto w = minimal_body_prefix();
  w.u32(1);
  w.u8(static_cast<std::uint8_t>(ModuleId::kPosix));
  w.u32(static_cast<std::uint32_t>(counter_count(ModuleId::kPosix)));
  w.u32(static_cast<std::uint32_t>(fcounter_count(ModuleId::kPosix)));
  w.u32(1);
  w.u64(0x77);
  w.u8(0x80);
  EXPECT_EQ(walk_error(harness::plain_frame(w.view())),
            "format error: record rank runs past the body end");
}

TEST(FormatRecordBlock, SetWordsPastTheBodyEndThrow) {
  // Every word set but only three counters stored, and no DXT count behind
  // them: the set bits promise more bytes than the body holds.
  const auto frame = one_record_frame(
      [](util::ByteWriter& w) {
        write_bitmap(w, (std::uint64_t{1} << kPosixWords) - 1);
        for (int k = 0; k < 3; ++k) harness::write_zigzag_varint(w, k + 1);
      },
      /*dxt=*/false);
  EXPECT_EQ(walk_error(frame), "format error: record words exceed body size");
  EXPECT_THROW((void)read_log_bytes(frame), util::FormatError);

  // A bitmap that ends the body: the bit in its last byte still claims a
  // word, and nothing past the body's end is read.
  const auto tail = one_record_frame(
      [](util::ByteWriter& w) { write_bitmap(w, std::uint64_t{1} << (kPosixWords - 1)); },
      /*dxt=*/false);
  EXPECT_EQ(walk_error(tail), "format error: record words exceed body size");

  // Every counter stored in two bytes, the last fcounter's word cut to six:
  // the bytes left cover one byte per counter and every word, so the body
  // runs out only after the counters are decoded.
  const auto words = one_record_frame(
      [](util::ByteWriter& w) {
        write_bitmap(w, (std::uint64_t{1} << kPosixWords) - 1);
        for (std::size_t k = 0; k < posix::COUNTER_COUNT; ++k) harness::write_zigzag_varint(w, 65);
        for (std::size_t k = 0; k + 1 < posix::FCOUNTER_COUNT; ++k) w.f64(1.0);
        for (int k = 0; k < 6; ++k) w.u8(0x3f);
      },
      /*dxt=*/false);
  EXPECT_EQ(walk_error(words), "format error: record words exceed body size");
}

// ---------------------------------------------------------------------------
// The body kernel against the reference parse.  The archive's read path
// walks each body in place (walk_log_body) into Analysis::add; the reference
// parses the frame into a LogData (read_log_bytes) and adds that.  Over
// mutated bodies re-framed with a valid CRC — so the damage reaches the
// walker instead of stopping at the frame check — the kernel must reject a
// frame exactly when read_log_bytes does, and an accepted frame must give
// the same save() bytes.

std::vector<std::byte> state_bytes(const core::Analysis& a) {
  util::ByteWriter w;
  a.save(w);
  return w.take();
}

/// The kernel's state for one frame, or nullopt when it rejects the frame.
std::optional<std::vector<std::byte>> kernel_state(std::span<const std::byte> frame) {
  LogIoBuffers io;
  LogBody body;
  core::AnalyzeScratch scratch;
  try {
    walk_log_body(read_log_frame_body(frame, io), body);
  } catch (const util::FormatError&) {
    return std::nullopt;
  }
  core::Analysis a;
  a.add(body, scratch);
  return state_bytes(a);
}

/// The reference's state for one frame, or nullopt when it rejects it.
std::optional<std::vector<std::byte>> reference_state(std::span<const std::byte> frame) {
  LogData log;
  try {
    log = read_log_bytes(frame);
  } catch (const util::FormatError&) {
    return std::nullopt;
  }
  core::Analysis a;
  a.add(log);
  return state_bytes(a);
}

class KernelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

/// Where the record blocks of a body keep their bitmaps and varints, found
/// by a parse of the block layout written from the format description.
struct BlockLayout {
  std::vector<std::pair<std::size_t, std::size_t>> bitmaps;  ///< (offset, bytes)
  std::vector<std::size_t> varint_bytes;  ///< offset of every rank and counter byte
};

BlockLayout block_layout(std::span<const std::byte> body) {
  BlockLayout out;
  util::ByteReader r(body);
  const auto offset = [&] { return body.size() - r.remaining(); };
  const auto varint = [&] {
    for (bool more = true; more;) {
      out.varint_bytes.push_back(offset());
      more = (r.u8() & 0x80) != 0;
    }
  };
  (void)r.u64(), (void)r.u32(), (void)r.u32(), (void)r.u32(), (void)r.i64(), (void)r.i64();
  (void)r.str_view();
  for (std::uint32_t n = r.u32(); n > 0; --n) (void)r.str_view(), (void)r.str_view();
  for (std::uint32_t n = r.u32(); n > 0; --n) (void)r.str_view(), (void)r.str_view();
  for (std::uint32_t n = r.u32(); n > 0; --n) (void)r.u64(), (void)r.str_view();
  for (std::uint32_t regions = r.u32(); regions > 0; --regions) {
    (void)r.u8();
    const std::uint32_t nc = r.u32();
    const std::uint32_t nf = r.u32();
    for (std::uint32_t records = r.u32(); records > 0; --records) {
      (void)r.u64();
      varint();
      const std::size_t n = (nc + nf + 7) / 8;
      out.bitmaps.emplace_back(offset(), n);
      std::uint64_t mask = 0;
      for (std::size_t b = 0; b < n; ++b) mask |= std::uint64_t{r.u8()} << (8 * b);
      for (; mask != 0; mask &= mask - 1) {
        if (static_cast<std::uint32_t>(std::countr_zero(mask)) < nc) {
          varint();
        } else {
          (void)r.u64();
        }
      }
    }
  }
  return out;
}

TEST_P(KernelFuzz, MutatedBodiesRejectedAndAnalyzedAsByTheReference) {
  const LogData log = sample_log(GetParam());
  const std::vector<std::byte> plain = harness::plain_log_frame(log);
  LogIoBuffers io;
  const auto body_view = read_log_frame_body(plain, io);
  const std::vector<std::byte> body(body_view.begin(), body_view.end());
  const BlockLayout layout = block_layout(body);
  const auto& bitmaps = layout.bitmaps;
  ASSERT_FALSE(bitmaps.empty());
  ASSERT_FALSE(layout.varint_bytes.empty());
  util::Rng rng(GetParam() * 977 + 3);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  const auto check = [&](std::span<const std::byte> frame, const std::string& what) {
    const auto kernel = kernel_state(frame);
    const auto reference = reference_state(frame);
    ASSERT_EQ(kernel.has_value(), reference.has_value()) << what;
    if (kernel) {
      EXPECT_EQ(*kernel, *reference) << what;
      accepted += 1;
    } else {
      rejected += 1;
    }
  };
  check(plain, "unmutated");
  check(write_log_bytes(log), "unmutated, compressed");
  for (int trial = 0; trial < 450; ++trial) {
    std::vector<std::byte> mutated = body;
    std::size_t pos = static_cast<std::size_t>(rng.uniform_u64(0, mutated.size() - 1));
    std::string what = "trial " + std::to_string(trial) + " pos " + std::to_string(pos);
    switch (trial % 6) {
      case 0:  // one flipped byte
        mutated[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
        break;
      case 1:  // a small count or length planted anywhere
        for (std::size_t k = 0; k < 4 && pos + k < mutated.size(); ++k) {
          mutated[pos + k] = static_cast<std::byte>(k == 0 ? rng.uniform_u64(0, 3) : 0);
        }
        break;
      case 2:  // truncated
        mutated.resize(pos);
        what += " truncated";
        break;
      case 3:  // a stray byte inserted
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(pos),
                       static_cast<std::byte>(rng.uniform_u64(0, 255)));
        break;
      case 4: {  // one continuation bit flipped: a varint ends early or runs on
        pos = layout.varint_bytes[rng.uniform_u64(0, layout.varint_bytes.size() - 1)];
        mutated[pos] ^= std::byte{0x80};
        what += " continuation bit";
        break;
      }
      default: {  // one bitmap bit flipped: a word gained or lost
        const auto& [offset, n] = bitmaps[rng.uniform_u64(0, bitmaps.size() - 1)];
        const std::size_t bit = static_cast<std::size_t>(rng.uniform_u64(0, 8 * n - 1));
        pos = offset + bit / 8;
        mutated[pos] ^= static_cast<std::byte>(1u << (bit % 8));
        what += " bitmap bit " + std::to_string(bit) + " at " + std::to_string(pos);
        break;
      }
    }
    check(harness::plain_frame(mutated), what);
    // The same damage through the frame check: a single flipped frame byte.
    std::vector<std::byte> frame = write_log_bytes(log);
    frame[pos % frame.size()] ^= std::byte{0x40};
    check(frame, what + " (frame flip)");
  }
  // The mutations reach both outcomes, so neither side of the comparison
  // is vacuous.
  EXPECT_GT(accepted, 10u);
  EXPECT_GT(rejected, 10u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Values(1u, 2u, 3u, 5u));

// ---------------------------------------------------------------------------
// Hostile frames through the pipelined scan.  scan_frames at depth > 1
// drives batches through the prefetching stage loops; a damaged frame in the
// middle of a batch must surface as the same FormatError a batch of one
// throws — never UB, a hang, or silently-consumed neighbors.

struct Segment {
  std::vector<std::byte> bytes;
  std::vector<archive::IndexEntry> entries;

  void append(std::span<const std::byte> frame) {
    archive::IndexEntry e;
    e.offset = bytes.size();
    e.size = frame.size();
    e.job_id = entries.size();
    bytes.insert(bytes.end(), frame.begin(), frame.end());
    entries.push_back(e);
  }
};

Segment good_segment(int n_frames) {
  Segment seg;
  for (int i = 0; i < n_frames; ++i) {
    seg.append(write_log_bytes(sample_log(static_cast<std::uint64_t>(i) + 1)));
  }
  return seg;
}

// Count of frames the scan consumed before (if ever) failing; each body is
// walked as the read kernel walks it.
std::size_t scan_count(const Segment& seg, unsigned depth) {
  archive::ScanScratch scratch;
  archive::ScanOptions opts;
  opts.mlp_depth = depth;
  LogBody walked;
  std::size_t consumed = 0;
  archive::scan_frames(
      seg.bytes, seg.entries, 0,
      [&](std::span<const std::byte> body) {
        walk_log_body(body, walked);
        ++consumed;
      },
      scratch, opts, "fuzz");
  return consumed;
}

TEST(BatchedScanHostileFrames, CorruptDeflateMidBatchThrows) {
  for (const unsigned depth : {1u, 2u, 4u, 8u}) {
    Segment seg = good_segment(7);
    // Corrupt the compressed payload of the 5th frame (mid-batch at every
    // depth above): flip bytes past the frame header.
    const auto& e = seg.entries[4];
    for (std::uint64_t off = 40; off < 48; ++off) {
      seg.bytes[e.offset + off] ^= std::byte{0xA5};
    }
    EXPECT_THROW((void)scan_count(seg, depth), util::FormatError) << "depth " << depth;
  }
}

TEST(BatchedScanHostileFrames, TruncatedNameMapMidBatchThrows) {
  // A frame whose body ends inside the name map: counts promise entries
  // the bytes don't hold.  The walk of that body must reject it.
  auto w = minimal_body_prefix();
  // Rewrite the trailing name count: claim 1000 names, supply none.
  auto body = w.take();
  body[body.size() - 4] = std::byte{0xE8};
  body[body.size() - 3] = std::byte{0x03};
  const auto hostile = harness::plain_frame(body);
  for (const unsigned depth : {1u, 2u, 4u, 8u}) {
    Segment seg = good_segment(5);
    seg.append(hostile);
    seg.append(write_log_bytes(sample_log(99)));
    EXPECT_THROW((void)scan_count(seg, depth), util::FormatError) << "depth " << depth;
  }
}

TEST(BatchedScanHostileFrames, UnknownRecordIdsMidBatchParseCleanly) {
  // Records whose ids have no name-map entry are legal (path_of returns
  // empty, summarize drops them as unattributed); the walk must accept such
  // a frame, not fault on the missing ids.
  auto w = minimal_body_prefix();
  w.u32(1);  // one region
  w.u8(static_cast<std::uint8_t>(ModuleId::kPosix));
  w.u32(static_cast<std::uint32_t>(counter_count(ModuleId::kPosix)));
  w.u32(static_cast<std::uint32_t>(fcounter_count(ModuleId::kPosix)));
  w.u32(3);  // three records, none of whose ids the (empty) name map knows
  for (std::uint64_t r = 0; r < 3; ++r) {
    FileRecord rec(0xdeadbeef00 + r, 0, ModuleId::kPosix);
    std::fill(rec.counters.begin(), rec.counters.end(), 1);
    std::fill(rec.fcounters.begin(), rec.fcounters.end(), 0.5);
    harness::write_record_block(w, rec);
  }
  w.u32(0);  // dxt
  const auto hostile = harness::plain_frame(w.view());
  for (const unsigned depth : {1u, 2u, 4u, 8u}) {
    Segment seg = good_segment(5);
    seg.append(hostile);
    seg.append(write_log_bytes(sample_log(99)));
    EXPECT_EQ(scan_count(seg, depth), 7u) << "depth " << depth;
  }
}

TEST(BatchedScanHostileFrames, EntryOutOfBoundsMidBatchThrows) {
  for (const unsigned depth : {1u, 2u, 4u, 8u}) {
    Segment seg = good_segment(6);
    seg.entries[3].size += 1'000'000;  // runs past the segment end
    EXPECT_THROW((void)scan_count(seg, depth), util::FormatError) << "depth " << depth;
  }
}

TEST(BatchedScanHostileFrames, BatchedAndSerialScansAgreeOnDamage) {
  // For random single-byte corruptions, depth 1 and depth 4 must agree on
  // whether the segment is readable (both throw or both succeed with the
  // same consumed count).
  util::Rng rng(0xabcdef);
  for (int trial = 0; trial < 40; ++trial) {
    Segment seg = good_segment(6);
    const std::size_t pos = static_cast<std::size_t>(rng.uniform_u64(0, seg.bytes.size() - 1));
    seg.bytes[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
    bool threw1 = false;
    bool threw4 = false;
    std::size_t n1 = 0;
    std::size_t n4 = 0;
    try {
      n1 = scan_count(seg, 1);
    } catch (const util::FormatError&) {
      threw1 = true;
    }
    try {
      n4 = scan_count(seg, 4);
    } catch (const util::FormatError&) {
      threw4 = true;
    }
    EXPECT_EQ(threw1, threw4) << "trial " << trial << " pos " << pos;
    if (!threw1) {
      EXPECT_EQ(n1, n4) << "trial " << trial;
    }
  }
}

}  // namespace
}  // namespace mlio::darshan
