// Inputs and an independent stream reader shared by the DEFLATE encoder and
// decoder suites (test_deflate_fast, test_inflate_fast).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>
#include <vector>

namespace mlio::harness {

using Bytes = std::vector<std::byte>;

// Data shapes that exercise different deflate block structures: stored-ish
// incompressible noise, all-one-byte runs (long matches, distance 1),
// repeated text (matches at many distances), byte ramps, and skewed bytes.
// Only the skewed shape gives rare literals codes longer than the decoder's
// 11-bit litlen root, so it is the one that drives the sub-table path.
inline constexpr int kShapes = 5;
inline constexpr int kRandomShape = 0;
inline constexpr int kSkewedShape = 4;

inline Bytes make_payload(int mode, std::size_t n, std::uint64_t seed) {
  Bytes b(n);
  std::mt19937_64 rng(seed);
  switch (mode) {
    case 0:
      for (auto& x : b) x = static_cast<std::byte>(rng());
      break;
    case 1:
      if (n != 0) std::memset(b.data(), 0x55, n);
      break;
    case 2: {
      const std::string phrase = "posix_bytes_read=4096 /gpfs/alpine/run/output.h5 ";
      for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(phrase[i % phrase.size()]);
      break;
    }
    case 3:
      for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::byte>(i * 7);
      break;
    default:
      // Geometric classes (probability halving per class) of eight bytes each.
      for (auto& x : b) {
        const std::uint64_t r = rng();
        const auto cls = static_cast<unsigned>(std::countr_zero(r | (std::uint64_t{1} << 40)));
        x = static_cast<std::byte>(cls * 8 + (r >> 61));
      }
      break;
  }
  return b;
}

/// Longest literal/length code of a zlib stream's first block if it is
/// dynamic, else 0.  A slow bit-at-a-time reader (puff.c's canonical
/// decode), independent of both the encoder and the decoder under test.
inline unsigned first_block_max_litlen_bits(const Bytes& stream) {
  std::size_t pos = 16;  // past the 2-byte zlib header
  const auto bits = [&](unsigned n) {
    unsigned v = 0;
    for (unsigned i = 0; i < n; ++i, ++pos) {
      v |= ((static_cast<unsigned>(stream.at(pos >> 3)) >> (pos & 7)) & 1u) << i;
    }
    return v;
  };
  bits(1);  // BFINAL
  if (bits(2) != 2) return 0;
  const unsigned hlit = bits(5) + 257, hdist = bits(5) + 1, hclen = bits(4) + 4;
  static constexpr unsigned kOrder[19] = {16, 17, 18, 0, 8,  7, 9,  6, 10, 5,
                                          11, 4,  12, 3, 13, 2, 14, 1, 15};
  unsigned cl[19] = {};
  for (unsigned i = 0; i < hclen; ++i) cl[kOrder[i]] = bits(3);
  unsigned count[8] = {}, symbol[19], index[8] = {};
  for (const unsigned len : cl) count[len]++;
  for (unsigned len = 2; len < 8; ++len) index[len] = index[len - 1] + count[len - 1];
  for (unsigned s = 0; s < 19; ++s) {
    if (cl[s] != 0) symbol[index[cl[s]]++] = s;
  }
  const auto decode = [&] {
    unsigned code = 0, first = 0, idx = 0;
    for (unsigned len = 1; len < 8; ++len) {
      code |= bits(1);
      if (code - first < count[len]) return symbol[idx + code - first];
      idx += count[len];
      first = (first + count[len]) << 1;
      code <<= 1;
    }
    ADD_FAILURE() << "bad code-length code";
    return 0u;
  };
  std::vector<unsigned> lens;
  while (lens.size() < hlit + hdist) {
    const unsigned sym = decode();
    if (sym < 16) {
      lens.push_back(sym);
    } else {
      const unsigned prev = sym == 16 ? lens.back() : 0;
      const unsigned rep = sym == 16 ? 3 + bits(2) : sym == 17 ? 3 + bits(3) : 11 + bits(7);
      lens.insert(lens.end(), rep, prev);
    }
  }
  return *std::max_element(lens.begin(), lens.begin() + hlit);
}

}  // namespace mlio::harness
