#include "util/compress.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <zlib.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace mlio::util {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::vector<std::byte> inflate(std::span<const std::byte> packed, std::size_t expected_size) {
  Inflater inflater;
  std::vector<std::byte> out;
  inflater.decompress(packed, expected_size, out);
  return out;
}

std::uint32_t zlib_adler(std::span<const std::byte> s, std::uint32_t start = 1) {
  return static_cast<std::uint32_t>(
      ::adler32(start, reinterpret_cast<const Bytef*>(s.data()), static_cast<uInt>(s.size())));
}

std::uint32_t zlib_crc(std::span<const std::byte> s) {
  return static_cast<std::uint32_t>(
      ::crc32(0L, reinterpret_cast<const Bytef*>(s.data()), static_cast<uInt>(s.size())));
}

TEST(Compress, Roundtrip) {
  const auto input = to_bytes(std::string(10000, 'x') + "tail");
  const auto packed = zlib_compress(input);
  EXPECT_LT(packed.size(), input.size());
  const auto back = inflate(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, RoundtripIncompressibleData) {
  Rng rng(1);
  std::vector<std::byte> input(4096);
  for (auto& b : input) b = static_cast<std::byte>(rng.next() & 0xff);
  const auto packed = zlib_compress(input);
  const auto back = inflate(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, EmptyInput) {
  const std::vector<std::byte> empty;
  const auto packed = zlib_compress(empty);
  EXPECT_TRUE(inflate(packed, 0).empty());
}

TEST(Compress, CorruptDataThrows) {
  auto packed = zlib_compress(to_bytes("hello world hello world"));
  packed[packed.size() / 2] ^= std::byte{0xff};
  EXPECT_THROW(inflate(packed, 23), FormatError);
}

TEST(Compress, WrongExpectedSizeThrows) {
  const auto packed = zlib_compress(to_bytes("abcdef"));
  EXPECT_THROW(inflate(packed, 3), FormatError);
}

TEST(Compress, Crc32KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32({}), 0u);
  // zlib is the reference at every length from 0 to 1,100 and every start
  // offset mod 16: the lengths cross the 64-byte fold threshold, each
  // 16-byte fold step and every tail length zlib finishes.
  Rng rng(3);
  std::vector<std::byte> buf(16 + 1100);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 1100; ++len) {
      const std::span<const std::byte> s(buf.data() + off, len);
      ASSERT_EQ(crc32(s), zlib_crc(s)) << "offset " << off << " length " << len;
    }
  }
}

TEST(Compress, Adler32MatchesZlib) {
  EXPECT_EQ(adler32(to_bytes("Wikipedia")), 0x11E60398u);
  EXPECT_EQ(adler32({}), 1u);
  // Random bytes, and all-0xff bytes (the largest sums, so the nearest
  // approach to 32-bit overflow before each reduction), at every length
  // near the 16-byte SIMD step, near the 5,552-byte reduction run (zlib's
  // NMAX) and its multiples, and at every start offset mod 16.
  Rng rng(5);
  std::vector<std::byte> random(16 + 3 * 5552 + 64);
  for (auto& b : random) b = static_cast<std::byte>(rng.next() & 0xff);
  std::vector<std::byte> ones(random.size(), std::byte{0xff});
  std::vector<std::size_t> lengths;
  for (std::size_t len = 0; len <= 200; ++len) lengths.push_back(len);
  for (const std::size_t run : {std::size_t{5552}, std::size_t{2 * 5552}, std::size_t{3 * 5552}}) {
    for (std::size_t len = run - 40; len <= run + 40; ++len) lengths.push_back(len);
  }
  for (const auto* buf : {&random, &ones}) {
    for (std::size_t off = 0; off < 16; ++off) {
      for (const std::size_t len : lengths) {
        const std::span<const std::byte> s(buf->data() + off, len);
        ASSERT_EQ(adler32(s), zlib_adler(s)) << "offset " << off << " length " << len;
      }
    }
  }
  // From the largest sums a stream can carry (both 65,520) over all-0xff
  // bytes: the worst case for the 32-bit sums before each reduction.
  for (const std::size_t len :
       {std::size_t{5552}, std::size_t{5552 + 16}, std::size_t{3 * 5552 + 50}}) {
    const std::span<const std::byte> s(ones.data(), len);
    EXPECT_EQ(adler32(s, 0xfff0fff0u), zlib_adler(s, 0xfff0fff0u)) << "length " << len;
  }
  // A running checksum continues across calls at any split.
  const std::span<const std::byte> all(random.data(), 3 * 5552 + 7);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{15}, std::size_t{5551},
                                std::size_t{5553}, std::size_t{3 * 5552}}) {
    EXPECT_EQ(adler32(all.subspan(cut), adler32(all.first(cut))), zlib_adler(all)) << cut;
  }
}

TEST(Compress, Crc32TableLoopMatchesZlib) {
  // Chunks below 64 bytes never reach the carry-less fold, so these run the
  // slicing-by-8 loop alone over the whole buffer: the path of a CPU
  // without PCLMULQDQ.  The others hand off between the two at every
  // offset the chunk size makes.
  Rng rng(9);
  std::vector<std::byte> buf(16 + 5000);
  for (auto& b : buf) b = static_cast<std::byte>(rng.next() & 0xff);
  for (const std::size_t len : {std::size_t{0}, std::size_t{7}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{1000}, std::size_t{5000}}) {
    for (std::size_t off = 0; off < 16; off += 5) {
      const std::span<const std::byte> s(buf.data() + off, len);
      for (const std::size_t chunk : {std::size_t{1}, std::size_t{8}, std::size_t{13},
                                      std::size_t{63}, std::size_t{64}, std::size_t{100}}) {
        ASSERT_EQ(crc32_chunked(s, chunk), zlib_crc(s))
            << "offset " << off << " length " << len << " chunk " << chunk;
      }
    }
  }
}

/// zlib's checksum (`sum`, from its initial value `init`) of `n` zero
/// bytes, built by doubling with its combine function: no pass over data.
template <typename Sum, typename Combine>
uLong zlib_of_zeros(std::size_t n, uLong init, Sum sum, Combine combine) {
  const Bytef zero = 0;
  uLong acc = init;
  uLong pow = sum(init, &zero, 1);
  for (std::size_t pow_len = 1; n != 0; n >>= 1, pow_len *= 2) {
    if ((n & 1) != 0) acc = combine(acc, pow, static_cast<z_off_t>(pow_len));
    pow = combine(pow, pow, static_cast<z_off_t>(pow_len));
  }
  return acc;
}

TEST(Compress, ChecksumsPastFourGiB) {
  // A buffer just past 4 GiB, mapped without reserving memory: untouched
  // pages read as zeros, so only the patterned first and last pages are
  // backed.  Both checksums take it in one call, and crc32_chunked hands
  // off between chunks at a seam past the 32-bit bound.  zlib, whose
  // lengths are 32-bit, gives the reference by combining the checksums of
  // the two pages and of the zeros between them.
  constexpr std::size_t kPage = 4096;
  const std::size_t size = (std::size_t{1} << 32) + kPage + 77;
  void* map = ::mmap(nullptr, size, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (map == MAP_FAILED) GTEST_SKIP() << "cannot map " << size << " bytes";
  auto* bytes = static_cast<std::byte*>(map);
  for (std::size_t i = 0; i < kPage; ++i) {
    bytes[i] = static_cast<std::byte>(i * 7 + 1);
    bytes[size - 1 - i] = static_cast<std::byte>(i * 13 + 5);
  }
  const std::span<const std::byte> all(bytes, size);
  const std::span<const std::byte> head = all.first(kPage);
  const std::span<const std::byte> tail = all.last(kPage);
  const std::size_t gap = size - 2 * kPage;
  const auto gap_len = static_cast<z_off_t>(gap);
  const auto page_len = static_cast<z_off_t>(kPage);
  const uLong crc_gap = zlib_of_zeros(gap, 0, ::crc32, ::crc32_combine);
  const uLong adler_gap = zlib_of_zeros(gap, 1, ::adler32, ::adler32_combine);
  const auto want_crc = static_cast<std::uint32_t>(::crc32_combine(
      ::crc32_combine(zlib_crc(head), crc_gap, gap_len), zlib_crc(tail), page_len));
  const auto want_adler = static_cast<std::uint32_t>(::adler32_combine(
      ::adler32_combine(zlib_adler(head), adler_gap, gap_len), zlib_adler(tail), page_len));
  EXPECT_EQ(crc32(all), want_crc);
  EXPECT_EQ(crc32_chunked(all, (std::size_t{1} << 32) + 3), want_crc);
  EXPECT_EQ(adler32(all), want_adler);
  ::munmap(map, size);
}

}  // namespace
}  // namespace mlio::util
