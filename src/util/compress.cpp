#include "util/compress.hpp"

#include <zlib.h>

#include <algorithm>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/error.hpp"

namespace mlio::util {

// Log frames are MBs at most, so a size past 32 bits is a typed failure for
// corrupt/hostile headers, not a real limit.
constexpr std::size_t kMaxZlibSingleShot = std::numeric_limits<uInt>::max();

void Deflater::compress(std::span<const std::byte> input, int level,
                        std::vector<std::byte>& out) {
  deflate_zlib(input, level, out, scratch_);
}

void Inflater::decompress(std::span<const std::byte> input, std::size_t expected_size,
                          std::vector<std::byte>& out, bool verify_checksum) {
  if (input.size() > kMaxZlibSingleShot || expected_size > kMaxZlibSingleShot) {
    // The decoder is size_t-clean, but a frame header claiming a >4 GiB
    // body is corrupt — reject before allocating it.
    throw FormatError("inflate: size exceeds the 4 GiB single-shot bound");
  }
  out.resize(expected_size);
  if (expected_size == 0 && input.empty()) return;
  inflate_zlib(input, out, scratch_, verify_checksum);
}

std::vector<std::byte> zlib_compress(std::span<const std::byte> input, int level) {
  Deflater deflater;
  std::vector<std::byte> out;
  deflater.compress(input, level, out);
  return out;
}

std::vector<std::byte> zlib_decompress(std::span<const std::byte> input,
                                       std::size_t expected_size) {
  Inflater inflater;
  std::vector<std::byte> out;
  inflater.decompress(input, expected_size, out);
  return out;
}

#if defined(__x86_64__)
namespace {

// x folded ahead by the distance k encodes, plus the data it lands on.
__attribute__((target("pclmul,sse4.1"))) inline __m128i fold(__m128i x, __m128i k,
                                                              __m128i data) {
  return _mm_xor_si128(
      _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00), _mm_clmulepi64_si128(x, k, 0x11)), data);
}

// CRC-32 by carry-less multiplication: Gopal et al., "Fast CRC Computation
// for Generic Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), with
// the reflected constants zlib-ng and Chromium use.  Four 16-byte lanes fold
// 64 bytes per step, then fold into one lane, then 16 bytes per step, then a
// Barrett reduction to 32 bits.  `crc` is the raw register (pre-inverted);
// `len` is at least 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(const unsigned char* buf,
                                                                   std::size_t len,
                                                                   std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const unsigned char* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  };

  __m128i x1 = _mm_xor_si128(load(buf), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(buf + 16);
  __m128i x3 = load(buf + 32);
  __m128i x4 = load(buf + 48);
  buf += 64;
  len -= 64;
  for (; len >= 64; buf += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(buf));
    x2 = fold(x2, k1k2, load(buf + 16));
    x3 = fold(x3, k1k2, load(buf + 32));
    x4 = fold(x4, k1k2, load(buf + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; buf += 16, len -= 16) x1 = fold(x1, k3k4, load(buf));

  // 128 -> 64 bits, then 64 -> 32 via Barrett reduction.
  __m128i t = _mm_clmulepi64_si128(x1, k3k4, 0x10);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), t);
  t = _mm_srli_si128(x1, 4);
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5, 0x00), t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  x1 = _mm_xor_si128(x1, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool have_clmul() {
  static const bool ok = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return ok;
}

}  // namespace
#endif

std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes) {
  MLIO_ASSERT(chunk_bytes >= 1);
  uLong c = ::crc32(0L, nullptr, 0);
  std::size_t off = 0;
  while (off < input.size()) {
    const auto* p = reinterpret_cast<const Bytef*>(input.data() + off);
    std::size_t n = std::min(chunk_bytes, input.size() - off);
    off += n;
#if defined(__x86_64__)
    // Fold the 16-byte multiple; zlib, the reference, finishes the tail.
    // The fold works on the raw register, so invert across the hand-off.
    if (n >= 64 && have_clmul()) {
      const std::size_t bulk = n & ~std::size_t{15};
      c = ~crc32_fold(p, bulk, ~static_cast<std::uint32_t>(c));
      p += bulk;
      n -= bulk;
    }
#endif
    c = ::crc32(c, p, static_cast<uInt>(n));
  }
  return static_cast<std::uint32_t>(c);
}

std::uint32_t crc32(std::span<const std::byte> input) {
  // zlib's crc32 takes a 32-bit length; a single call on a >4 GiB segment
  // would silently truncate.  1 GiB chunks keep every call well inside uInt.
  return crc32_chunked(input, std::size_t{1} << 30);
}

}  // namespace mlio::util
