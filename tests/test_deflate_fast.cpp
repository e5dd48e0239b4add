// Differential coverage for the whole-buffer DEFLATE encoder on the archive
// write path.  zlib's inflate is the independent oracle (it checks the
// Adler-32 trailer itself); util::inflate_zlib, the decoder the archive
// reads with, must agree with it.  Every stream is checked against the
// documented size bound as well.
#include <gtest/gtest.h>

#include <zlib.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "darshan/log_format.hpp"
#include "harness/deflate_streams.hpp"
#include "iosim/executor.hpp"
#include "util/deflate_fast.hpp"
#include "util/inflate_fast.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio::util {
namespace {

using harness::Bytes;
using harness::make_payload;

/// zlib's inflate of a complete stream; the stream must end exactly at its
/// trailer and decode to `size` bytes.
Bytes zlib_inflate(const Bytes& stream, std::size_t size) {
  Bytes out(size + 1);  // one spare byte, so an overlong stream shows
  z_stream zs{};
  EXPECT_EQ(inflateInit(&zs), Z_OK);
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<std::byte*>(stream.data()));
  zs.avail_in = static_cast<uInt>(stream.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  EXPECT_EQ(inflate(&zs, Z_FINISH), Z_STREAM_END);
  EXPECT_EQ(zs.avail_in, 0u);
  out.resize(zs.total_out);
  inflateEnd(&zs);
  return out;
}

struct Codec {
  DeflateScratch deflate;
  InflateScratch inflate;
};

/// Encode `raw` and check the stream: within the bound, decoded by zlib and
/// by inflate_zlib to the input.  Returns the stream.
Bytes roundtrip(Codec& codec, const Bytes& raw) {
  Bytes stream;
  deflate_zlib(raw, stream, codec.deflate);
  EXPECT_LE(stream.size(), deflate_zlib_bound(raw.size()));
  EXPECT_TRUE(zlib_inflate(stream, raw.size()) == raw);
  Bytes out(raw.size());
  inflate_zlib(stream, out, codec.inflate, /*verify_checksum=*/true);
  EXPECT_TRUE(out == raw);
  return stream;
}

/// Decoded size of each block of a zlib stream, read by zlib's inflate,
/// which under Z_BLOCK returns at every block boundary.  A stored block of
/// more than 64 KiB counts once per chunk.
std::vector<std::size_t> zlib_block_sizes(const Bytes& stream, std::size_t size) {
  Bytes out(size);
  z_stream zs{};
  EXPECT_EQ(inflateInit(&zs), Z_OK);
  zs.next_in = reinterpret_cast<Bytef*>(const_cast<std::byte*>(stream.data()));
  zs.avail_in = static_cast<uInt>(stream.size());
  zs.next_out = reinterpret_cast<Bytef*>(out.data());
  zs.avail_out = static_cast<uInt>(out.size());
  std::vector<std::size_t> sizes;
  std::size_t block_begin = 0;
  bool in_header = true;
  for (int rc = Z_OK; rc != Z_STREAM_END;) {
    rc = inflate(&zs, Z_BLOCK);
    if (rc != Z_OK && rc != Z_STREAM_END) {
      ADD_FAILURE() << "inflate: " << rc;
      break;
    }
    if (rc == Z_OK && (zs.data_type & 128) != 0) {  // at a block boundary
      if (!in_header) sizes.push_back(zs.total_out - block_begin);
      in_header = false;
      block_begin = zs.total_out;
    }
  }
  inflateEnd(&zs);
  return sizes;
}

/// BTYPE of the stream's first block: 0 stored, 1 static, 2 dynamic.
unsigned first_block_type(const Bytes& stream) {
  return (static_cast<unsigned>(stream.at(2)) >> 1) & 3u;
}

std::string where(const std::string& what, std::size_t n) {
  return what + " n=" + std::to_string(n);
}

TEST(DeflateFast, RoundTripsEveryShape) {
  Codec codec;
  struct Input {
    std::string name;
    Bytes raw;
  };
  std::vector<Input> inputs;
  inputs.push_back({"empty", {}});
  inputs.push_back({"one byte", {std::byte{0xA5}}});
  inputs.push_back({"zeros", Bytes(300000, std::byte{0})});
  const char* names[harness::kShapes] = {"random", "run", "text", "ramp", "skewed"};
  for (int mode = 0; mode < harness::kShapes; ++mode) {
    inputs.push_back({names[mode], make_payload(mode, 70000, 7 + static_cast<unsigned>(mode))});
  }
  for (const Input& in : inputs) {
    SCOPED_TRACE(where(in.name, in.raw.size()));
    const Bytes stream = roundtrip(codec, in.raw);
    if (in.name == "random") {
      EXPECT_EQ(first_block_type(stream), 0u);  // stored
    } else if (in.name == "zeros") {
      // Maximum-length, distance-1 matches: a few hundred bytes at most.
      EXPECT_LT(stream.size(), 1000u);
    }
  }
}

// The bodies the archive writes: generated Summit and Cori Darshan logs,
// directly and through the frame writer.  The encoder runs libdeflate's
// level-2 row, so it must not lose to zlib's level 2 on size, and its zlib
// header is the one zlib writes at that level.
TEST(DeflateFast, DarshanBodiesRoundTrip) {
  Codec codec;
  darshan::LogIoBuffers io;
  darshan::LogData log;
  std::vector<Bytes> bodies;
  for (const auto& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    wl::GeneratorConfig cfg;
    cfg.seed = 11;
    cfg.n_jobs = 30;
    cfg.logs_per_job_scale = 0.2;
    cfg.files_per_log_scale = 0.2;
    const wl::WorkloadGenerator gen(profile, cfg);
    const sim::JobExecutor executor(wl::machine_for(profile));
    gen.generate_bulk_range(0, cfg.n_jobs, [&](const sim::JobSpec& spec) {
      executor.execute_into(spec, log);
      const auto frame = darshan::write_log_bytes_into(log, io);
      bodies.emplace_back(io.body.view().begin(), io.body.view().end());
      SCOPED_TRACE("log " + std::to_string(bodies.size()));
      const std::span<const std::byte> read = darshan::read_log_frame_body(frame, io);
      EXPECT_TRUE(
          std::equal(read.begin(), read.end(), bodies.back().begin(), bodies.back().end()));
    });
  }
  ASSERT_GT(bodies.size(), 60u);
  std::size_t ours = 0, zlibs = 0;  // total stream bytes
  for (const Bytes& body : bodies) {
    SCOPED_TRACE(where("darshan body", body.size()));
    const Bytes stream = roundtrip(codec, body);
    ours += stream.size();
    uLongf n = compressBound(static_cast<uLong>(body.size()));
    Bytes z(n);
    ASSERT_EQ(compress2(reinterpret_cast<Bytef*>(z.data()), &n,
                        reinterpret_cast<const Bytef*>(body.data()),
                        static_cast<uLong>(body.size()), 2),
              Z_OK);
    zlibs += n;
    EXPECT_EQ(stream[0], z[0]);  // CMF
    EXPECT_EQ(stream[1], z[1]);  // FLG: FLEVEL 1 and its FCHECK
  }
  EXPECT_LE(ours, zlibs);
}

// Symbol frequencies in a Fibonacci sequence give an unlimited Huffman code
// one level deeper per symbol: 20 such bytes (1, 1, 2, ..., 6,765 times)
// under a carrier of uniformly random other bytes, which keeps matches rare,
// put the rarest literal about 23 levels deep.  DEFLATE cannot send a code
// past 15 bits, so the stream is valid only if the limiter ran, and the
// limiter must use the full 15 bits, not stop short.
TEST(DeflateFast, LiteralCodesAreLengthLimitedTo15Bits) {
  constexpr unsigned kRare = 20;
  std::mt19937_64 rng(99);
  Bytes raw;
  std::uint64_t a = 1, b = 1;
  for (unsigned s = 0; s < kRare; ++s) {
    raw.insert(raw.end(), a, static_cast<std::byte>(s));
    b = a + b;
    a = b - a;
  }
  for (int i = 0; i < 200000; ++i) {
    raw.push_back(static_cast<std::byte>(kRare + rng() % (256 - kRare)));
  }
  std::shuffle(raw.begin(), raw.end(), rng);
  Codec codec;
  SCOPED_TRACE(where("fibonacci", raw.size()));
  const Bytes stream = roundtrip(codec, raw);
  EXPECT_EQ(harness::first_block_max_litlen_bits(stream), 15u);
}

// Sizes around the 32 KiB window and its slide, with matches reaching back
// to the window's far edge: past the first 32 KiB, runs of 3,000 bytes
// repeat the bytes 32,766 or 32,767 bytes earlier.
TEST(DeflateFast, WindowBoundaries) {
  Codec codec;
  for (const std::size_t n : {std::size_t{32767}, std::size_t{32768}, std::size_t{32769},
                              std::size_t{65535}, std::size_t{65536}, std::size_t{65537},
                              std::size_t{1} << 20}) {
    Bytes raw = make_payload(harness::kRandomShape, n, n);
    for (std::size_t i = 32767; i < n; ++i) {
      if (i % 4096 < 3000) raw[i] = raw[i - ((i / 4096) % 2 == 0 ? 32767 : 32766)];
    }
    SCOPED_TRACE(where("window", n));
    roundtrip(codec, raw);
  }
}

// A block ends at the first sequence boundary at or past 300,000 bytes
// (stretched to the input's end when less than 32 KiB would follow) or when
// 16,384 matches are stored, so every block but the last spans at least
// 32 KiB (deflate_zlib_bound relies on it).  Repeated text is all 258-byte
// matches, so the cap ends its blocks; a random sequence of 16 four-byte
// tokens gives matches of a few tokens, so the store fills first.
TEST(DeflateFast, BlocksEndAtTheCapOrAFullStore) {
  constexpr std::size_t kCap = 300000;
  constexpr std::size_t kMinBlock = 32768;
  constexpr std::size_t kFullStore = 3 * 16384;  // matches of 3 bytes at least
  std::mt19937_64 rng(3);
  const Bytes dict = make_payload(harness::kRandomShape, 64, 5);
  Bytes tokens(650000);
  for (std::size_t i = 0; i < tokens.size(); i += 4) {
    const auto token = static_cast<std::ptrdiff_t>(rng() % 16 * 4);
    std::copy_n(dict.begin() + token, 4, tokens.begin() + static_cast<std::ptrdiff_t>(i));
  }
  Codec codec;
  const auto blocks = [&](const Bytes& raw, const std::string& what) {
    SCOPED_TRACE(where(what, raw.size()));
    const std::vector<std::size_t> sizes = zlib_block_sizes(roundtrip(codec, raw), raw.size());
    EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), raw.size());
    for (std::size_t b = 0; b + 1 < sizes.size(); ++b) EXPECT_GE(sizes[b], kMinBlock);
    return sizes;
  };
  EXPECT_EQ(blocks(make_payload(2, kCap + kMinBlock - 1, 1), "text").size(), 1u);
  const std::vector<std::size_t> text = blocks(make_payload(2, 650000, 1), "text");
  ASSERT_EQ(text.size(), 3u);
  for (const std::size_t b : {text[0], text[1]}) {
    EXPECT_GE(b, kCap);
    EXPECT_LT(b, kCap + 258);
  }
  const std::vector<std::size_t> store = blocks(tokens, "tokens");
  ASSERT_GE(store.size(), 3u);
  for (std::size_t b = 0; b + 1 < store.size(); ++b) {
    EXPECT_GE(store[b], kFullStore);
    EXPECT_LT(store[b], kCap);
  }
}

TEST(DeflateFast, OutputIsDeterministic) {
  const Bytes text = make_payload(2, 90000, 1);
  const Bytes skewed = make_payload(harness::kSkewedShape, 50000, 2);
  DeflateScratch fresh_a, fresh_b, reused;
  Bytes a, b, r;
  deflate_zlib(text, a, fresh_a);
  deflate_zlib(text, b, fresh_b);
  EXPECT_EQ(a, b);
  // A scratch reused across other inputs carries nothing over.
  deflate_zlib(skewed, r, reused);
  deflate_zlib(make_payload(harness::kRandomShape, 40000, 4), r, reused);
  deflate_zlib(text, r, reused);
  EXPECT_EQ(a, r);
  Bytes s;
  deflate_zlib(skewed, s, fresh_a);
  deflate_zlib(skewed, r, reused);
  EXPECT_EQ(s, r);
}

TEST(DeflateFast, IncompressibleInputStaysWithinBound) {
  Codec codec;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, std::size_t{100}, std::size_t{32768}, std::size_t{65535},
        std::size_t{65536}, std::size_t{65537}, std::size_t{200000}, std::size_t{1} << 20}) {
    const Bytes raw = make_payload(harness::kRandomShape, n, 3 * n + 1);
    SCOPED_TRACE(where("random", n));
    roundtrip(codec, raw);  // checks the bound
  }
}

// Seeded property test: lengths 0-200 KB (log-uniform), alphabets of 1-256
// byte values, and random mixes of fresh bytes, byte runs and copies from
// earlier in the input at any distance the window allows (and beyond).
TEST(DeflateFast, RandomInputsRoundTrip) {
  std::mt19937_64 rng(20260101);
  Codec codec;
  for (int c = 0; c < 500; ++c) {
    const auto n = static_cast<std::size_t>(
        std::exp(std::uniform_real_distribution<double>(0, std::log(200001.0))(rng)) - 1);
    const unsigned alphabet = 1 + static_cast<unsigned>(rng() % 256);
    Bytes raw;
    raw.reserve(n);
    while (raw.size() < n) {
      const std::size_t len = std::min<std::size_t>(n - raw.size(), 1 + rng() % 300);
      switch (rng() % 3) {
        case 0:
          for (std::size_t i = 0; i < len; ++i) {
            raw.push_back(static_cast<std::byte>(rng() % alphabet));
          }
          break;
        case 1:
          raw.insert(raw.end(), len, static_cast<std::byte>(rng() % alphabet));
          break;
        default:
          if (raw.empty()) break;
          const std::size_t dist = 1 + rng() % std::min<std::size_t>(raw.size(), 40000);
          for (std::size_t i = 0; i < len; ++i) raw.push_back(raw[raw.size() - dist]);
          break;
      }
    }
    SCOPED_TRACE("case " + std::to_string(c) + " alphabet " + std::to_string(alphabet) + " " +
                 where("random mix", n));
    roundtrip(codec, raw);
    if (HasFailure()) break;  // the first failing case is the one to replay
  }
}

}  // namespace
}  // namespace mlio::util
