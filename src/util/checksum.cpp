#include "util/checksum.hpp"

#include <algorithm>
#include <array>
#include <limits>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "util/byte_io.hpp"
#include "util/error.hpp"

namespace mlio::util {

namespace {

// ---------------------------------------------------------------------------
// CRC-32.  `crc` below is always the raw register (pre-inverted); crc32()
// inverts on the way in and out.

// Slicing-by-8 tables: kCrcTables[0] is the bytewise table of the reflected
// polynomial 0xEDB88320, and kCrcTables[k][b] advances kCrcTables[k - 1][b]
// by one more zero byte, so eight lookups consume eight input bytes.
constexpr auto kCrcTables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t c = b;
    for (int k = 0; k < 8; ++k) c = (c >> 1) ^ ((c & 1) != 0 ? 0xEDB88320u : 0u);
    t[0][b] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t b = 0; b < 256; ++b) t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xff];
  }
  return t;
}();

std::uint32_t crc32_table(const std::byte* p, std::size_t n, std::uint32_t crc) {
  const auto& t = kCrcTables;
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint64_t w = load_le<std::uint64_t>(p) ^ crc;
    crc = t[7][w & 0xff] ^ t[6][(w >> 8) & 0xff] ^ t[5][(w >> 16) & 0xff] ^
          t[4][(w >> 24) & 0xff] ^ t[3][(w >> 32) & 0xff] ^ t[2][(w >> 40) & 0xff] ^
          t[1][(w >> 48) & 0xff] ^ t[0][w >> 56];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ std::to_integer<std::uint32_t>(*p)) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

#if defined(__x86_64__)
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
// Barrett reduction to 32 bits.  `len` is at least 64 and a multiple of 16.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold(const std::byte* p,
                                                                   std::size_t len,
                                                                   std::uint32_t crc) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  const auto load = [](const std::byte* q) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
  };

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    x1 = fold(x1, k1k2, load(p));
    x2 = fold(x2, k1k2, load(p + 16));
    x3 = fold(x3, k1k2, load(p + 32));
    x4 = fold(x4, k1k2, load(p + 48));
  }
  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  for (; len >= 16; p += 16, len -= 16) x1 = fold(x1, k3k4, load(p));

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
#endif

// ---------------------------------------------------------------------------
// Adler-32.

constexpr std::uint32_t kAdlerBase = 65521;
// zlib's NMAX: the most bytes after which s2 still fits 32 bits when both
// sums start below the base, 255·n·(n + 1)/2 + (n + 1)·(base − 1) < 2^32.
constexpr std::size_t kAdlerRun = 5552;

#if defined(__SSE2__)
// Adds `blocks` 16-byte blocks into the unreduced sums.  Per block, s1 gains
// the byte sum (psadbw) and s2 gains 16·s1 plus the bytes weighted 16..1
// (pmaddwd on the zero-extended bytes); the 16·s1 terms are the block count
// times the entry s1 plus 16 times the running byte sums, kept in `prefix`.
// The caller bounds the run, so every lane and the total fit 32 bits.
void adler32_blocks(const std::byte* p, std::size_t blocks, std::uint32_t& s1,
                    std::uint32_t& s2) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i w_lo = _mm_setr_epi16(16, 15, 14, 13, 12, 11, 10, 9);
  const __m128i w_hi = _mm_setr_epi16(8, 7, 6, 5, 4, 3, 2, 1);
  __m128i sum = zero;
  __m128i prefix = zero;
  __m128i weighted = zero;
  for (std::size_t b = 0; b < blocks; ++b, p += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    prefix = _mm_add_epi32(prefix, sum);
    sum = _mm_add_epi32(sum, _mm_sad_epu8(x, zero));
    weighted = _mm_add_epi32(weighted, _mm_madd_epi16(_mm_unpacklo_epi8(x, zero), w_lo));
    weighted = _mm_add_epi32(weighted, _mm_madd_epi16(_mm_unpackhi_epi8(x, zero), w_hi));
  }
  const auto lanes = [](__m128i v) {
    alignas(16) std::uint32_t l[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(l), v);
    return l[0] + l[1] + l[2] + l[3];
  };
  s2 += 16 * static_cast<std::uint32_t>(blocks) * s1 + 16 * lanes(prefix) + lanes(weighted);
  s1 += lanes(sum);
}
#endif

}  // namespace

std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes) {
  MLIO_ASSERT(chunk_bytes >= 1);
  std::uint32_t crc = ~std::uint32_t{0};
  for (std::size_t off = 0; off < input.size();) {
    const std::byte* p = input.data() + off;
    std::size_t n = std::min(chunk_bytes, input.size() - off);
    off += n;
#if defined(__x86_64__)
    // Fold the 16-byte multiple; the table loop finishes the tail.
    if (n >= 64 && have_clmul()) {
      const std::size_t bulk = n & ~std::size_t{15};
      crc = crc32_fold(p, bulk, crc);
      p += bulk;
      n -= bulk;
    }
#endif
    crc = crc32_table(p, n, crc);
  }
  return ~crc;
}

std::uint32_t crc32(std::span<const std::byte> input) {
  return crc32_chunked(input, std::numeric_limits<std::size_t>::max());
}

std::uint32_t adler32(std::span<const std::byte> input, std::uint32_t adler) {
  std::uint32_t s1 = adler & 0xffff;
  std::uint32_t s2 = adler >> 16;
  const std::byte* p = input.data();
  for (std::size_t n = input.size(); n > 0;) {
    std::size_t run = std::min(n, kAdlerRun);
    n -= run;
#if defined(__SSE2__)
    adler32_blocks(p, run / 16, s1, s2);
    p += run & ~std::size_t{15};
    run &= 15;
#endif
    for (; run > 0; ++p, --run) {
      s1 += std::to_integer<std::uint32_t>(*p);
      s2 += s1;
    }
    s1 %= kAdlerBase;
    s2 %= kAdlerBase;
  }
  return s2 << 16 | s1;
}

}  // namespace mlio::util
