#include "util/compress.hpp"

#include <gtest/gtest.h>
#include <zlib.h>

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

TEST(Compress, Roundtrip) {
  const auto input = to_bytes(std::string(10000, 'x') + "tail");
  const auto packed = zlib_compress(input);
  EXPECT_LT(packed.size(), input.size());
  const auto back = zlib_decompress(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, RoundtripIncompressibleData) {
  Rng rng(1);
  std::vector<std::byte> input(4096);
  for (auto& b : input) b = static_cast<std::byte>(rng.next() & 0xff);
  const auto packed = zlib_compress(input, 9);
  const auto back = zlib_decompress(packed, input.size());
  EXPECT_EQ(back, input);
}

TEST(Compress, EmptyInput) {
  const std::vector<std::byte> empty;
  const auto packed = zlib_compress(empty);
  EXPECT_TRUE(zlib_decompress(packed, 0).empty());
}

TEST(Compress, CorruptDataThrows) {
  auto packed = zlib_compress(to_bytes("hello world hello world"));
  packed[packed.size() / 2] ^= std::byte{0xff};
  EXPECT_THROW(zlib_decompress(packed, 23), FormatError);
}

TEST(Compress, WrongExpectedSizeThrows) {
  const auto packed = zlib_compress(to_bytes("abcdef"));
  EXPECT_THROW(zlib_decompress(packed, 3), FormatError);
}

TEST(Compress, InvalidLevelThrows) {
  EXPECT_THROW(zlib_compress(to_bytes("x"), 0), ConfigError);
  EXPECT_THROW(zlib_compress(to_bytes("x"), 10), ConfigError);
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
      const auto want = static_cast<std::uint32_t>(
          ::crc32(0L, reinterpret_cast<const Bytef*>(s.data()), static_cast<uInt>(len)));
      ASSERT_EQ(crc32(s), want) << "offset " << off << " length " << len;
    }
  }
}

}  // namespace
}  // namespace mlio::util
