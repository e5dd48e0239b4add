// Differential and adversarial coverage for the fast zlib-stream decoder
// behind the archive cold scan.  Reference encoder and oracle are zlib
// itself: every stream zlib produces — stored, static-Huffman, and dynamic
// blocks at all levels — must decode to the identical bytes, and every
// malformed variant (truncation, corruption, hostile Huffman headers) must
// throw util::FormatError, never crash, loop, or return quietly.
#include <gtest/gtest.h>

#include <zlib.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "darshan/log_format.hpp"
#include "harness/deflate_streams.hpp"
#include "harness/plain_frame.hpp"
#include "iosim/executor.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"
#include "util/inflate_fast.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio::util {
namespace {

using harness::Bytes;
using harness::first_block_max_litlen_bits;
using harness::kShapes;
using harness::make_payload;

Bytes deflate_with(const Bytes& raw, int level, int strategy) {
  z_stream zs{};
  EXPECT_EQ(deflateInit2(&zs, level, Z_DEFLATED, 15, 8, strategy), Z_OK);
  Bytes out(deflateBound(&zs, static_cast<uLong>(raw.size())) + 16);
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<std::byte*>(raw.data()));
  zs.avail_in = static_cast<uInt>(raw.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(deflate(&zs, Z_FINISH), Z_STREAM_END);
  out.resize(zs.total_out);
  deflateEnd(&zs);
  return out;
}

void expect_roundtrip(const Bytes& raw, const Bytes& stream, InflateScratch& scratch) {
  Bytes out(raw.size());
  inflate_zlib(stream, out, scratch, /*verify_checksum=*/true);
  EXPECT_EQ(out, raw);
  // And with the checksum skipped, as the log reader calls it.
  Bytes out2(raw.size());
  inflate_zlib(stream, out2, scratch, /*verify_checksum=*/false);
  EXPECT_EQ(out2, raw);
}

TEST(InflateFast, MatchesZlibAcrossLevelsStrategiesAndShapes) {
  InflateScratch scratch;  // shared: recycling across streams is the hot path
  const std::size_t sizes[] = {0, 1, 2, 15, 64, 255, 300, 4096, 70000};
  for (int mode = 0; mode < kShapes; ++mode) {
    for (const std::size_t n : sizes) {
      const Bytes raw = make_payload(mode, n, 1000 + static_cast<std::uint64_t>(mode) + n);
      // Level 0 emits stored blocks, level 1 favors static blocks,
      // levels 6/9 emit dynamic blocks; Z_FIXED forces static Huffman even
      // where dynamic would win.
      for (const int level : {0, 1, 6, 9}) {
        SCOPED_TRACE("mode=" + std::to_string(mode) + " n=" + std::to_string(n) +
                     " level=" + std::to_string(level));
        expect_roundtrip(raw, deflate_with(raw, level, Z_DEFAULT_STRATEGY), scratch);
      }
      SCOPED_TRACE("mode=" + std::to_string(mode) + " n=" + std::to_string(n) + " Z_FIXED");
      expect_roundtrip(raw, deflate_with(raw, 6, Z_FIXED), scratch);
    }
  }
}

TEST(InflateFast, SkewedShapeReachesSubTables) {
  // Guards the harness's shape list: without a code longer than the 11-bit
  // root, no valid stream would decode through a litlen sub-table.
  const Bytes raw = make_payload(harness::kSkewedShape, 70000, 1000 + kShapes - 1 + 70000);
  const Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  EXPECT_GT(first_block_max_litlen_bits(stream), 11u);
}

// The bodies the archive reads: generated Darshan logs.  The writer's frame
// must be the body's CRC and size around util::zlib_compress's stream, and
// that stream and zlib's compress2 at every level 1-9 (the streams an
// archive written by another encoder would hold) must inflate to exactly
// the body the writer serialized, through the decoder directly (Adler-32
// checked) and through the frame reader.
TEST(InflateFast, DarshanFramesDecodeToTheBodyWritten) {
  InflateScratch scratch;
  darshan::LogIoBuffers io;
  darshan::LogData log;
  std::size_t frames = 0;
  for (const auto& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    wl::GeneratorConfig cfg;
    cfg.seed = 5;
    cfg.n_jobs = 30;
    cfg.logs_per_job_scale = 0.2;
    cfg.files_per_log_scale = 0.2;
    const wl::WorkloadGenerator gen(profile, cfg);
    const sim::JobExecutor executor(wl::machine_for(profile));
    gen.generate_bulk_range(0, cfg.n_jobs, [&](const sim::JobSpec& spec) {
      executor.execute_into(spec, log);
      const std::span<const std::byte> frame = darshan::write_log_bytes_into(log, io);
      const Bytes body(io.body.view().begin(), io.body.view().end());
      const Bytes ours = zlib_compress(body);
      EXPECT_TRUE(std::ranges::equal(
          frame, harness::log_frame(body, ours, darshan::kFlagCompressed)));
      for (int level = 0; level <= 9; ++level) {  // 0: ours
        SCOPED_TRACE("frame " + std::to_string(frames) + " level " + std::to_string(level));
        Bytes stream = ours;
        if (level > 0) {
          uLongf n = compressBound(static_cast<uLong>(body.size()));
          stream.resize(n);
          ASSERT_EQ(compress2(reinterpret_cast<Bytef*>(stream.data()), &n,
                              reinterpret_cast<const Bytef*>(body.data()),
                              static_cast<uLong>(body.size()), level),
                    Z_OK);
          stream.resize(n);
        }
        Bytes out(body.size());
        inflate_zlib(stream, out, scratch, /*verify_checksum=*/true);
        EXPECT_EQ(out, body);
        const Bytes framed = harness::log_frame(body, stream, darshan::kFlagCompressed);
        const std::span<const std::byte> read = darshan::read_log_frame_body(framed, io);
        EXPECT_TRUE(std::ranges::equal(read, body));
      }
      ++frames;
    });
  }
  EXPECT_GT(frames, 60u);
}

TEST(InflateFast, EveryTruncationThrows) {
  const Bytes raw = make_payload(2, 3000, 42);
  for (const int level : {0, 6}) {
    const Bytes stream = deflate_with(raw, level, Z_DEFAULT_STRATEGY);
    InflateScratch scratch;
    for (std::size_t cut = 0; cut < stream.size(); ++cut) {
      const Bytes truncated(stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(cut));
      Bytes out(raw.size());
      EXPECT_THROW(inflate_zlib(truncated, out, scratch), FormatError)
          << "level " << level << " cut " << cut;
    }
  }
}

TEST(InflateFast, SingleByteCorruptionNeverCrashes) {
  // Flip every byte of a small stream (and a sample of a larger one); each
  // variant must either throw FormatError or produce output — UB and hangs
  // are the failure modes under test.  Corruptions that survive the Huffman
  // decode are caught by the Adler-32 when verification is on, except the
  // flips confined to the header/trailer bits that don't affect the bytes.
  const Bytes raw = make_payload(3, 2000, 7);
  const Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  for (std::size_t pos = 0; pos < stream.size(); ++pos) {
    for (const unsigned flip : {0x01u, 0x80u, 0xFFu}) {
      Bytes bad = stream;
      bad[pos] ^= static_cast<std::byte>(flip);
      Bytes out(raw.size());
      try {
        inflate_zlib(bad, out, scratch, /*verify_checksum=*/true);
      } catch (const FormatError&) {
        // expected for most flips
      }
    }
  }
}

TEST(InflateFast, WrongOutputSizeThrows) {
  const Bytes raw = make_payload(0, 500, 9);
  const Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  Bytes small(raw.size() - 1);
  EXPECT_THROW(inflate_zlib(stream, small, scratch), FormatError);
  Bytes big(raw.size() + 1);
  EXPECT_THROW(inflate_zlib(stream, big, scratch), FormatError);
}

TEST(InflateFast, RejectsBadZlibHeaders) {
  const Bytes raw = make_payload(1, 100, 3);
  const Bytes good = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  InflateScratch scratch;
  Bytes out(raw.size());

  Bytes bad_cm = good;
  bad_cm[0] = std::byte{0x79};  // CM=9 is not deflate
  EXPECT_THROW(inflate_zlib(bad_cm, out, scratch), FormatError);

  Bytes bad_cinfo = good;
  bad_cinfo[0] = std::byte{0x88};  // CINFO=8: window > 32 KB
  EXPECT_THROW(inflate_zlib(bad_cinfo, out, scratch), FormatError);

  Bytes bad_check = good;
  bad_check[1] ^= std::byte{0x01};  // breaks the %31 header checksum
  EXPECT_THROW(inflate_zlib(bad_check, out, scratch), FormatError);

  Bytes fdict = good;
  // Set FDICT and repair the %31 check: a preset dictionary is never valid
  // for the log format.
  fdict[1] = std::byte{0x20};
  const unsigned hdr = (static_cast<unsigned>(fdict[0]) << 8) | static_cast<unsigned>(fdict[1]);
  fdict[1] = static_cast<std::byte>(static_cast<unsigned>(fdict[1]) + (31 - hdr % 31) % 31);
  EXPECT_THROW(inflate_zlib(fdict, out, scratch), FormatError);
}

// Hand-built deflate streams with hostile Huffman headers.  A tiny LSB-first
// bit writer produces exactly the header bits we want to test.
class BitWriter {
 public:
  void bits(unsigned value, unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      if (bit_ == 0) out_.push_back(std::byte{0});
      if ((value >> i) & 1u) out_.back() |= static_cast<std::byte>(1u << bit_);
      bit_ = (bit_ + 1) % 8;
    }
  }
  Bytes zlib_stream() const {
    Bytes s(2 + out_.size() + 4, std::byte{0});  // trailing zeros: bogus adler
    s[0] = std::byte{0x78};  // CM=8, CINFO=7
    s[1] = std::byte{0x01};  // FLG making the header %31 == 0
    std::copy(out_.begin(), out_.end(), s.begin() + 2);
    return s;
  }

 private:
  Bytes out_;
  unsigned bit_ = 0;
};

TEST(InflateFast, RejectsHostileDynamicHeaders) {
  InflateScratch scratch;
  Bytes out(16);

  {  // HLIT beyond 286 literal/length codes.
    BitWriter w;
    w.bits(1, 1);   // final block
    w.bits(2, 2);   // dynamic
    w.bits(30, 5);  // HLIT = 287+30 > 286
    w.bits(0, 5);
    w.bits(0, 4);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Oversubscribed code-length code: all 19 symbols at length 1.
    BitWriter w;
    w.bits(1, 1);
    w.bits(2, 2);
    w.bits(0, 5);   // HLIT = 257
    w.bits(0, 5);   // HDIST = 1
    w.bits(15, 4);  // HCLEN = 19
    for (int i = 0; i < 19; ++i) w.bits(1, 3);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Incomplete code-length code: a single symbol of length 2 (Kraft < 1).
    BitWriter w;
    w.bits(1, 1);
    w.bits(2, 2);
    w.bits(0, 5);
    w.bits(0, 5);
    w.bits(15, 4);
    w.bits(2, 3);  // symbol 16 gets length 2
    for (int i = 0; i < 18; ++i) w.bits(0, 3);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Invalid fixed-Huffman literal: codes 286/287 exist in no valid stream.
    BitWriter w;
    w.bits(1, 1);  // final
    w.bits(1, 2);  // static Huffman
    // Length code 286: 8-bit code 0b11000110 (reversed on the wire).
    w.bits(0x63, 8);
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Stored block whose LEN/NLEN don't complement.
    BitWriter w;
    w.bits(1, 1);
    w.bits(0, 2);  // stored
    w.bits(0, 5);  // pad to the byte boundary
    w.bits(4, 16);
    w.bits(0xFFFF, 16);  // NLEN should be ~4
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
  {  // Distance reaching before the start of the output: the first symbol
     // is a match (len 3, dist 1) with no bytes emitted yet.
    BitWriter w;
    w.bits(1, 1);
    w.bits(1, 2);     // static Huffman
    w.bits(0x40, 7);  // length code 257 (7-bit code 0000001, bit-reversed)
    w.bits(0x00, 5);  // distance code 0 -> distance 1
    EXPECT_THROW(inflate_zlib(w.zlib_stream(), out, scratch, false), FormatError);
  }
}

TEST(InflateFast, BadAdlerCaughtOnlyWhenVerifying) {
  const Bytes raw = make_payload(2, 400, 11);
  Bytes stream = deflate_with(raw, 6, Z_DEFAULT_STRATEGY);
  stream[stream.size() - 1] ^= std::byte{0x5A};
  InflateScratch scratch;
  Bytes out(raw.size());
  EXPECT_THROW(inflate_zlib(stream, out, scratch, /*verify_checksum=*/true), FormatError);
  inflate_zlib(stream, out, scratch, /*verify_checksum=*/false);  // body still decodes
  EXPECT_EQ(out, raw);
}

}  // namespace
}  // namespace mlio::util
