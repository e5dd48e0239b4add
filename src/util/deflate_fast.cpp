#include "util/deflate_fast.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "util/checksum.hpp"
#include "util/deflate_format.hpp"
#include "util/error.hpp"

namespace mlio::util {
namespace {

using namespace deflate_format;

// ---------------------------------------------------------------------------
// Parameters.

constexpr std::uint32_t kMinMatch = 3;
constexpr std::uint32_t kMaxMatch = 258;
constexpr std::uint32_t kWindowSize = 32768;
constexpr unsigned kHash3Bits = 15;
constexpr unsigned kHash4Bits = 16;

// Block boundaries.  A block ends at the input's end, at the soft cap, or
// when the sequence store fills.  The cap stretches to the input's end when
// less than kMinBlockLength would follow it, and a full store holds at
// least kMinMatch * kSeqStoreLength bytes, so every block but the last spans
// at least kMinBlockLength bytes (deflate_zlib_bound relies on it).  There
// is no split on a change in symbol statistics (libdeflate's heuristic): a
// log body (about 20 KB) is one block either way, and on the archive's
// inputs of 64 KiB or more it saved under 0.2% of their compressed bytes.
constexpr std::size_t kMinBlockLength = 32768;
constexpr std::size_t kSoftMaxBlockLength = 300000;
constexpr std::size_t kSeqStoreLength = 16384;  ///< matches per block, at most
static_assert(kMinMatch * kSeqStoreLength >= kMinBlockLength);

constexpr unsigned kNumLitlenSyms = 288;
constexpr unsigned kNumOffsetSyms = 32;
constexpr unsigned kNumPrecodeSyms = 19;
constexpr unsigned kEndOfBlock = 256;
constexpr unsigned kMaxPrecodeBits = 7;

/// The parser: a greedy one (take the longest match at each position),
/// visiting at most kMaxSearchDepth chain candidates per search and taking
/// a match of kNiceLength bytes without looking further -- libdeflate's
/// level-2 row.  On the log bodies it writes 1.5% fewer bytes than zlib's
/// level 2.  Level 6's lazy row stores 1.8% less for a fifth more deflate
/// time and decodes no faster, so it never repays (DESIGN §10 has the curve).
constexpr std::uint32_t kMaxSearchDepth = 6;
constexpr std::uint32_t kNiceLength = 10;

// ---------------------------------------------------------------------------
// Little-endian loads.

inline std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
  return v;
}
inline std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  return v;
}
inline void store_le64(std::uint8_t* p, std::uint64_t v) {
  if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
  std::memcpy(p, &v, sizeof v);
}

inline std::uint32_t lz_hash(std::uint32_t seq, unsigned bits) {
  return (seq * 0x1E35A7BDu) >> (32 - bits);
}

/// Length of the common prefix of `a` and `b`, given that the first
/// `len` bytes match, capped at `max_len`.  `a + max_len` is within the
/// input, and `b` precedes `a`.
inline std::uint32_t lz_extend(const std::uint8_t* a, const std::uint8_t* b, std::uint32_t len,
                               std::uint32_t max_len) {
  while (len + 8 <= max_len) {
    const std::uint64_t diff = load_le64(a + len) ^ load_le64(b + len);
    if (diff != 0) return len + static_cast<std::uint32_t>(std::countr_zero(diff) >> 3);
    len += 8;
  }
  while (len < max_len && a[len] == b[len]) ++len;
  return len;
}

// ---------------------------------------------------------------------------
// Hash-chain matchfinder (libdeflate's hc_matchfinder).
//
// Positions are 16-bit and relative to `base`, which advances by the window
// size whenever the current position reaches it; sliding subtracts the
// window size from every stored position, saturating at kEmpty, so a stored
// position is in the window exactly when it is above `cur - kWindowSize`.
// The 3-byte table keeps one candidate per bucket; the 4-byte table heads a
// chain through `next`, indexed by position modulo the window.  A chain only
// reaches slots written by an insert, so `next` is not reset per stream; it
// is zeroed once, when the state is allocated, because slide() rewrites
// every slot.

constexpr std::int16_t kEmpty = -32768;

struct MatchFinder {
  std::int16_t hash3[std::size_t{1} << kHash3Bits];
  std::int16_t hash4[std::size_t{1} << kHash4Bits];
  std::int16_t next[kWindowSize] = {};

  void reset() {
    std::fill(std::begin(hash3), std::end(hash3), kEmpty);
    std::fill(std::begin(hash4), std::end(hash4), kEmpty);
  }

  void slide() {
    const auto rebase = [](std::int16_t& p) {
      p = static_cast<std::int16_t>(std::max<int>(p, 0) - static_cast<int>(kWindowSize));
    };
    std::for_each(std::begin(hash3), std::end(hash3), rebase);
    std::for_each(std::begin(hash4), std::end(hash4), rebase);
    std::for_each(std::begin(next), std::end(next), rebase);
  }

  /// Position of `in_next` relative to `base`, sliding first if needed.
  std::uint32_t position(const std::uint8_t*& base, const std::uint8_t* in_next) {
    auto cur = static_cast<std::uint32_t>(in_next - base);
    if (cur >= kWindowSize) {
      slide();
      base += kWindowSize;
      cur -= kWindowSize;
    }
    return cur;
  }

  /// Insert `in_next` and return the longest match there longer than
  /// `best_len` (or `best_len` itself, offset 0, if none), visiting at most
  /// `depth` chain candidates and stopping early at `nice_len`.  `hashes`
  /// holds the 3- and 4-byte hashes of `in_next` and is advanced to the
  /// next position.  Nothing is inserted when fewer than 5 bytes remain.
  [[gnu::always_inline]] inline std::uint32_t longest_match(
      const std::uint8_t*& base_ref, const std::uint8_t* in_next, std::uint32_t best_len,
      std::uint32_t max_len, std::uint32_t nice_len, std::uint32_t depth,
      std::uint32_t hashes[2], std::uint32_t& offset) {
    const std::uint8_t* best = in_next;
    const std::uint32_t cur = position(base_ref, in_next);
    const std::uint8_t* const base = base_ref;
    const int cutoff = static_cast<int>(cur) - static_cast<int>(kWindowSize);
    offset = 0;
    if (max_len < 5) return best_len;  // the next hash reads in_next[1..4]

    int node3 = hash3[hashes[0]];
    int node4 = hash4[hashes[1]];
    hash3[hashes[0]] = static_cast<std::int16_t>(cur);
    hash4[hashes[1]] = static_cast<std::int16_t>(cur);
    next[cur] = static_cast<std::int16_t>(node4);
    const std::uint32_t next_seq = load_le32(in_next + 1);
    hashes[0] = lz_hash(next_seq & 0xFFFFFF, kHash3Bits);
    hashes[1] = lz_hash(next_seq, kHash4Bits);
    __builtin_prefetch(&hash3[hashes[0]], 1);
    __builtin_prefetch(&hash4[hashes[1]], 1);

    const auto follow = [&](int node) {
      return next[static_cast<std::uint32_t>(node) & (kWindowSize - 1)];
    };
    const std::uint8_t* match = nullptr;
    if (best_len < 4) {
      if (node3 <= cutoff) goto out;
      const std::uint32_t seq4 = load_le32(in_next);
      if (best_len < 3) {
        match = base + node3;
        if (((load_le32(match) ^ seq4) & 0xFFFFFF) == 0) {
          best_len = 3;
          best = match;
        }
      }
      if (node4 <= cutoff) goto out;
      for (;;) {
        match = base + node4;
        if (load_le32(match) == seq4) break;
        node4 = follow(node4);
        if (node4 <= cutoff || --depth == 0) goto out;
      }
      best = match;
      best_len = lz_extend(in_next, match, 4, max_len);
      if (best_len >= nice_len) goto out;
      node4 = follow(node4);
      if (node4 <= cutoff || --depth == 0) goto out;
    } else if (node4 <= cutoff || best_len >= nice_len) {
      goto out;
    }

    // Matches of at least best_len + 1 bytes: test the byte that would
    // extend the match (in the last 4 bytes) and the first 4 bytes first.
    for (;;) {
      for (;;) {
        match = base + node4;
        if (load_le32(match + best_len - 3) == load_le32(in_next + best_len - 3) &&
            load_le32(match) == load_le32(in_next)) {
          break;
        }
        node4 = follow(node4);
        if (node4 <= cutoff || --depth == 0) goto out;
      }
      const std::uint32_t len = lz_extend(in_next, match, 4, max_len);
      if (len > best_len) {
        best_len = len;
        best = match;
        if (best_len >= nice_len) goto out;
      }
      node4 = follow(node4);
      if (node4 <= cutoff || --depth == 0) goto out;
    }
  out:
    offset = static_cast<std::uint32_t>(in_next - best);
    return best_len;
  }

  /// Insert the `count` positions from `in_next` without searching.  Near
  /// the end of the input (where no later search would insert either) it
  /// inserts nothing.
  [[gnu::always_inline]] inline void skip_bytes(const std::uint8_t*& base,
                                                const std::uint8_t* in_next,
                                                const std::uint8_t* in_end, std::uint32_t count,
                                                std::uint32_t hashes[2]) {
    if (count + 5 > static_cast<std::size_t>(in_end - in_next)) return;
    std::uint32_t h3 = hashes[0];
    std::uint32_t h4 = hashes[1];
    do {
      const std::uint32_t cur = position(base, in_next);
      hash3[h3] = static_cast<std::int16_t>(cur);
      next[cur] = hash4[h4];
      hash4[h4] = static_cast<std::int16_t>(cur);
      const std::uint32_t seq = load_le32(++in_next);
      h3 = lz_hash(seq & 0xFFFFFF, kHash3Bits);
      h4 = lz_hash(seq, kHash4Bits);
    } while (--count != 0);
    __builtin_prefetch(&hash3[h3], 1);
    __builtin_prefetch(&hash4[h4], 1);
    hashes[0] = h3;
    hashes[1] = h4;
  }
};

// ---------------------------------------------------------------------------
// Symbols.

constexpr std::array<std::uint8_t, kMaxMatch + 1> make_length_slots() {
  std::array<std::uint8_t, kMaxMatch + 1> t{};
  for (unsigned s = 0; s < 29; ++s) {
    const unsigned end = s + 1 < 29 ? kLenBase[s + 1] : kMaxMatch + 1;
    for (unsigned len = kLenBase[s]; len < end; ++len) t[len] = static_cast<std::uint8_t>(s);
  }
  return t;
}
constexpr auto kLengthSlot = make_length_slots();

/// Distance code of a match distance in [1, 32768].
inline unsigned offset_slot(std::uint32_t offset) {
  const std::uint32_t x = offset - 1;
  if (x < 4) return x;
  const auto log2 = static_cast<unsigned>(std::bit_width(x)) - 1;
  return 2 * log2 + ((x >> (log2 - 1)) & 1);
}

/// A literal run and the match that follows it.  The block's last sequence
/// has length 0: its literals end the block.
struct Sequence {
  std::uint32_t litrun_and_len;  ///< literal run (low 23 bits), match length (high 9)
  std::uint16_t offset;
  std::uint8_t length_slot;
  std::uint8_t offset_slot;
};
constexpr unsigned kLitrunBits = 23;

struct Freqs {
  std::uint32_t litlen[kNumLitlenSyms];
  std::uint32_t offset[kNumOffsetSyms];
};

/// A Huffman code: bit-reversed codewords (ready for the LSB-first stream)
/// and their lengths.
struct Code {
  std::uint32_t codeword[kNumLitlenSyms];
  std::uint8_t len[kNumLitlenSyms];
};

// Minimum match length by the number of distinct literals in use: with few
// distinct literals, literals are cheap and short matches do not pay.
std::uint32_t choose_min_match_len(unsigned num_used_literals) {
  static constexpr std::uint8_t kMinLens[80] = {
      9, 9, 9, 9, 9, 9, 8, 8, 7, 7, 6, 6, 6, 6, 6, 6, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
      5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 4, 4, 4, 4, 4, 4, 4,
      4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4};
  if (num_used_literals >= std::size(kMinLens)) return kMinMatch;
  // With a shallow search, long matches are hard to find: ask for 5 at most.
  static_assert(kMaxSearchDepth >= 5 && kMaxSearchDepth < 10);
  return std::min<std::uint32_t>(kMinLens[num_used_literals], 5);
}

std::uint32_t initial_min_match_len(const std::uint8_t* data, std::size_t len) {
  // Short blocks likely go out static, where short matches are cheap.
  if (len < 512) return kMinMatch;
  bool used[256] = {};
  len = std::min<std::size_t>(len, 4096);
  for (std::size_t i = 0; i < len; ++i) used[data[i]] = true;
  return choose_min_match_len(static_cast<unsigned>(std::count(used, used + 256, true)));
}

std::uint32_t recalc_min_match_len(const Freqs& freqs) {
  std::uint32_t total = 0;
  for (unsigned i = 0; i < 256; ++i) total += freqs.litlen[i];
  const std::uint32_t cutoff = total >> 10;  // ignore literals used very rarely
  unsigned used = 0;
  for (unsigned i = 0; i < 256; ++i) used += freqs.litlen[i] > cutoff ? 1 : 0;
  return choose_min_match_len(used);
}

// ---------------------------------------------------------------------------
// Huffman codes.

constexpr std::array<std::uint8_t, 256> make_reverse8() {
  std::array<std::uint8_t, 256> t{};
  for (unsigned i = 0; i < 256; ++i) {
    unsigned r = 0;
    for (unsigned b = 0; b < 8; ++b) r |= ((i >> b) & 1u) << (7 - b);
    t[i] = static_cast<std::uint8_t>(r);
  }
  return t;
}
constexpr auto kReverse8 = make_reverse8();

/// Canonical codewords (RFC 1951 §3.2.2) for `code.len`, bit-reversed.
constexpr void assign_codewords(unsigned num_syms, Code& code) {
  unsigned counts[kMaxCodeBits + 1] = {};
  for (unsigned s = 0; s < num_syms; ++s) counts[code.len[s]]++;
  counts[0] = 0;
  std::uint32_t next_code[kMaxCodeBits + 2] = {};
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    next_code[len + 1] = (next_code[len] + counts[len]) << 1;
  }
  for (unsigned s = 0; s < num_syms; ++s) {
    const unsigned len = code.len[s];
    if (len == 0) continue;
    const std::uint32_t c = next_code[len]++;
    const std::uint32_t rev =
        (std::uint32_t{kReverse8[c & 0xFF]} << 8) | kReverse8[(c >> 8) & 0xFF];
    code.codeword[s] = rev >> (16 - len);
  }
}

/// Sort `(frequency << 16) | symbol` keys, listed in symbol order, by
/// frequency: an LSD radix sort on 8-bit digits, stable, so equal
/// frequencies stay in symbol order.  A comparison sort mispredicts about
/// every other branch on these keys and cost several times as much.
void sort_by_frequency(std::uint64_t* keys, unsigned n) {
  std::uint64_t tmp[kNumLitlenSyms];
  std::uint64_t all = 0;
  for (unsigned i = 0; i < n; ++i) all |= keys[i];
  std::uint64_t* from = keys;
  std::uint64_t* to = tmp;
  for (unsigned shift = 16; (all >> shift) != 0; shift += 8) {
    unsigned start[257] = {};
    for (unsigned i = 0; i < n; ++i) start[((from[i] >> shift) & 0xFF) + 1]++;
    for (unsigned d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (unsigned i = 0; i < n; ++i) to[start[(from[i] >> shift) & 0xFF]++] = from[i];
    std::swap(from, to);
  }
  if (from != keys) std::copy_n(from, n, keys);
}

/// Build a Huffman code for `freqs` with no codeword longer than
/// `max_len`.  An optimal (unlimited) code comes from the two-queue
/// construction over symbols sorted by frequency; lengths past the limit
/// are clamped, and the Kraft sum's excess is paid back by pushing the
/// deepest shorter leaf down one level at a time (zlib's gen_bitlen
/// repair).  Fewer than two used symbols get two 1-bit codes, so every code
/// is complete.
void make_huffman_code(unsigned num_syms, unsigned max_len, const std::uint32_t* freqs,
                       Code& code) {
  std::fill_n(code.len, num_syms, std::uint8_t{0});
  std::uint64_t sorted[kNumLitlenSyms];  // (frequency << 16) | symbol
  unsigned n = 0;
  for (unsigned s = 0; s < num_syms; ++s) {
    if (freqs[s] != 0) sorted[n++] = (std::uint64_t{freqs[s]} << 16) | s;
  }
  if (n < 2) {
    const unsigned used = n == 0 ? 0 : static_cast<unsigned>(sorted[0] & 0xFFFF);
    code.len[0] = 1;
    code.len[used == 0 ? 1 : used] = 1;
    assign_codewords(num_syms, code);
    return;
  }
  sort_by_frequency(sorted, n);

  // Two queues: leaves 0..n-1 in frequency order, then internal nodes
  // n..2n-2 in creation order, whose weights never decrease.
  std::uint64_t weight[2 * kNumLitlenSyms];
  std::uint16_t parent[2 * kNumLitlenSyms];
  for (unsigned i = 0; i < n; ++i) weight[i] = sorted[i] >> 16;
  unsigned leaf = 0;
  unsigned inner = n;
  for (unsigned k = n; k < 2 * n - 1; ++k) {
    std::uint64_t w = 0;
    for (int pick = 0; pick < 2; ++pick) {
      const unsigned node = (leaf < n && (inner == k || weight[leaf] <= weight[inner]))
                                ? leaf++
                                : inner++;
      parent[node] = static_cast<std::uint16_t>(k);
      w += weight[node];
    }
    weight[k] = w;
  }
  // Depths top-down (a node's parent always has the higher index).
  std::uint16_t depth[2 * kNumLitlenSyms];
  depth[2 * n - 2] = 0;
  unsigned counts[kMaxCodeBits + 1] = {};
  for (unsigned i = 2 * n - 2; i-- > 0;) {
    depth[i] = static_cast<std::uint16_t>(depth[parent[i]] + 1);
    if (i < n) counts[std::min<unsigned>(depth[i], max_len)]++;
  }
  std::int64_t excess = -(std::int64_t{1} << max_len);
  for (unsigned len = 1; len <= max_len; ++len) {
    excess += std::int64_t{counts[len]} << (max_len - len);
  }
  for (; excess > 0; --excess) {
    unsigned len = max_len - 1;
    while (counts[len] == 0) --len;
    counts[len]--;
    counts[len + 1] += 2;
    counts[max_len]--;
  }
  // Longest codes to the rarest symbols.
  unsigned i = 0;
  for (unsigned len = max_len; len >= 1; --len) {
    for (unsigned c = counts[len]; c > 0; --c) {
      code.len[sorted[i++] & 0xFFFF] = static_cast<std::uint8_t>(len);
    }
  }
  assign_codewords(num_syms, code);
}

constexpr Code make_static_litlen() {
  Code c{};
  for (unsigned s = 0; s < kNumLitlenSyms; ++s) {
    c.len[s] = s < 144 ? 8 : s < 256 ? 9 : s < 280 ? 7 : 8;
  }
  assign_codewords(kNumLitlenSyms, c);
  return c;
}
constexpr Code make_static_offset() {
  Code c{};
  for (unsigned s = 0; s < kNumOffsetSyms; ++s) c.len[s] = 5;
  assign_codewords(kNumOffsetSyms, c);
  return c;
}
constexpr Code kStaticLitlen = make_static_litlen();
constexpr Code kStaticOffset = make_static_offset();

// ---------------------------------------------------------------------------
// Output.

/// LSB-first bit writer with a 64-bit buffer.  flush() stores 8 bytes
/// unconditionally, so the destination needs 8 bytes of slack past the
/// stream; after a flush at most 7 bits are pending, so up to 56 bits may
/// be added before the next one.
class BitWriter {
 public:
  explicit BitWriter(std::uint8_t* out) : next_(out) {}

  void add(std::uint32_t bits, unsigned n) {
    buf_ |= std::uint64_t{bits} << count_;
    count_ += n;
  }
  void flush() {
    store_le64(next_, buf_);
    next_ += count_ >> 3;
    buf_ >>= count_ & ~7u;
    count_ &= 7;
  }
  /// Flush and pad the pending bits to a byte boundary.
  void align() {
    flush();
    if (count_ != 0) {
      ++next_;
      buf_ = 0;
      count_ = 0;
    }
  }
  /// Append raw bytes; the writer must be byte-aligned.
  void bytes(const std::uint8_t* p, std::size_t n) {
    std::memcpy(next_, p, n);
    next_ += n;
  }
  unsigned pending_bits() const { return count_; }
  std::uint8_t* position() const { return next_; }

 private:
  std::uint8_t* next_;
  std::uint64_t buf_ = 0;
  unsigned count_ = 0;
};

constexpr std::uint16_t kMaxStoredChunk = 0xFFFF;

/// Bits a stored block of `len` bytes costs starting with `pending` bits in
/// the current byte: per chunk of up to 64 KiB, a 3-bit header padded to a
/// byte boundary, LEN and NLEN, then the bytes.
std::uint64_t stored_cost(std::size_t len, unsigned pending) {
  std::uint64_t bits = 0;
  do {
    const std::size_t chunk = std::min<std::size_t>(len, kMaxStoredChunk);
    bits += 3 + ((8 - ((pending + 3) & 7)) & 7) + 32 + 8 * std::uint64_t{chunk};
    pending = 0;
    len -= chunk;
  } while (len != 0);
  return bits;
}

void write_stored(BitWriter& bw, const std::uint8_t* data, std::size_t len, bool final) {
  do {
    const auto chunk = static_cast<std::uint16_t>(std::min<std::size_t>(len, kMaxStoredChunk));
    len -= chunk;
    bw.add(final && len == 0 ? 1 : 0, 1);
    bw.add(0, 2);
    bw.align();
    const std::uint8_t header[4] = {
        static_cast<std::uint8_t>(chunk), static_cast<std::uint8_t>(chunk >> 8),
        static_cast<std::uint8_t>(~chunk), static_cast<std::uint8_t>(~chunk >> 8)};
    bw.bytes(header, sizeof header);
    bw.bytes(data, chunk);
    data += chunk;
  } while (len != 0);
}

/// The block's literals and matches, then end-of-block, in `litlen` and
/// `offset`.
void write_sequences(BitWriter& bw, const Sequence* seq, const std::uint8_t* in,
                     const Code& litlen, const Code& offset) {
  const auto literal = [&](std::uint8_t c) { bw.add(litlen.codeword[c], litlen.len[c]); };
  for (;; ++seq) {
    std::uint32_t litrun = seq->litrun_and_len & ((1u << kLitrunBits) - 1);
    const std::uint32_t len = seq->litrun_and_len >> kLitrunBits;
    for (; litrun >= 3; litrun -= 3, in += 3) {  // 3 x 15 bits per flush
      literal(in[0]);
      literal(in[1]);
      literal(in[2]);
      bw.flush();
    }
    if (litrun != 0) {
      literal(*in++);
      if (litrun == 2) literal(*in++);
      bw.flush();
    }
    if (len == 0) break;
    // 15 + 5 + 15 + 13 bits at most.
    const unsigned ls = seq->length_slot;
    const unsigned os = seq->offset_slot;
    bw.add(litlen.codeword[257 + ls], litlen.len[257 + ls]);
    bw.add(len - kLenBase[ls], kLenExtra[ls]);
    bw.add(offset.codeword[os], offset.len[os]);
    bw.add(static_cast<std::uint32_t>(seq->offset - kDistBase[os]), kDistExtra[os]);
    bw.flush();
    in += len;
  }
  bw.add(litlen.codeword[kEndOfBlock], litlen.len[kEndOfBlock]);
  bw.flush();
}

}  // namespace

// ---------------------------------------------------------------------------

struct DeflateScratch::State {
  MatchFinder mf;
  Freqs freqs;
  Code litlen;
  Code offsets;
  Code precode;
  Sequence seqs[kSeqStoreLength + 1];
  Sequence* seq;  ///< the sequence being filled

  void begin_block() {
    std::memset(&freqs, 0, sizeof freqs);
    seq = seqs;
    seq->litrun_and_len = 0;
  }
  void choose_literal(std::uint8_t c) {
    freqs.litlen[c]++;
    seq->litrun_and_len++;
  }
  void choose_match(std::uint32_t len, std::uint32_t offset) {
    const unsigned ls = kLengthSlot[len];
    const unsigned os = offset_slot(offset);
    freqs.litlen[257 + ls]++;
    freqs.offset[os]++;
    seq->litrun_and_len |= len << kLitrunBits;
    seq->offset = static_cast<std::uint16_t>(offset);
    seq->length_slot = static_cast<std::uint8_t>(ls);
    seq->offset_slot = static_cast<std::uint8_t>(os);
    ++seq;
    seq->litrun_and_len = 0;
  }

  void parse(const std::uint8_t* in, std::size_t n, BitWriter& bw);
  void finish_block(BitWriter& bw, const std::uint8_t* block, std::size_t len, bool final);
};

DeflateScratch::DeflateScratch() = default;
DeflateScratch::~DeflateScratch() = default;
DeflateScratch::DeflateScratch(DeflateScratch&&) noexcept = default;
DeflateScratch& DeflateScratch::operator=(DeflateScratch&&) noexcept = default;

// libdeflate's greedy parser: at each position take the longest match.
void DeflateScratch::State::parse(const std::uint8_t* in, std::size_t n, BitWriter& bw) {
  mf.reset();
  const std::uint8_t* in_next = in;
  const std::uint8_t* const in_end = in + n;
  const std::uint8_t* base = in;
  std::uint32_t max_len = kMaxMatch;
  std::uint32_t nice_len = kNiceLength;
  std::uint32_t hashes[2] = {0, 0};
  if (n >= 4) {
    const std::uint32_t seq4 = load_le32(in);
    hashes[0] = lz_hash(seq4 & 0xFFFFFF, kHash3Bits);
    hashes[1] = lz_hash(seq4, kHash4Bits);
  }

  do {
    const std::uint8_t* const block_begin = in_next;
    const std::uint8_t* const max_block_end =
        static_cast<std::size_t>(in_end - in_next) < kSoftMaxBlockLength + kMinBlockLength
            ? in_end
            : in_next + kSoftMaxBlockLength;
    const std::uint8_t* next_recalc =
        in_next + std::min<std::size_t>(static_cast<std::size_t>(in_end - in_next), 10000);
    begin_block();
    std::uint32_t min_len =
        initial_min_match_len(in_next, static_cast<std::size_t>(max_block_end - in_next));
    do {
      if (in_next >= next_recalc) {
        min_len = recalc_min_match_len(freqs);
        next_recalc += std::min(in_end - next_recalc, in_next - block_begin);
      }
      const auto remaining = static_cast<std::size_t>(in_end - in_next);
      if (remaining < kMaxMatch) {
        max_len = static_cast<std::uint32_t>(remaining);
        nice_len = std::min(nice_len, max_len);
      }
      std::uint32_t offset = 0;
      const std::uint32_t len = mf.longest_match(base, in_next, min_len - 1, max_len, nice_len,
                                                 kMaxSearchDepth, hashes, offset);
      if (len < min_len || (len == kMinMatch && offset > 8192)) {
        choose_literal(*in_next++);
        continue;
      }
      choose_match(len, offset);
      mf.skip_bytes(base, in_next + 1, in_end, len - 1, hashes);
      in_next += len;
    } while (in_next < max_block_end && seq < seqs + kSeqStoreLength);
    finish_block(bw, block_begin, static_cast<std::size_t>(in_next - block_begin),
                 in_next == in_end);
  } while (in_next != in_end);
}

// Emit the block as whichever of dynamic, static and stored costs the
// fewest bits.
void DeflateScratch::State::finish_block(BitWriter& bw, const std::uint8_t* block,
                                         std::size_t len, bool final) {
  freqs.litlen[kEndOfBlock]++;
  make_huffman_code(kNumLitlenSyms, kMaxCodeBits, freqs.litlen, litlen);
  make_huffman_code(kNumOffsetSyms, kMaxCodeBits, freqs.offset, offsets);

  // Dynamic header: the used prefix of each length list, concatenated and
  // run-length coded with symbols 16 (repeat previous 3-6x), 17 (3-10
  // zeros) and 18 (11-138 zeros).
  unsigned num_litlen = kNumLitlenSyms;
  while (num_litlen > 257 && litlen.len[num_litlen - 1] == 0) --num_litlen;
  unsigned num_offset = kNumOffsetSyms;
  while (num_offset > 1 && offsets.len[num_offset - 1] == 0) --num_offset;
  std::uint8_t lens[kNumLitlenSyms + kNumOffsetSyms];
  std::memcpy(lens, litlen.len, num_litlen);
  std::memcpy(lens + num_litlen, offsets.len, num_offset);
  const unsigned num_lens = num_litlen + num_offset;

  std::uint32_t precode_freqs[kNumPrecodeSyms] = {};
  std::uint16_t items[kNumLitlenSyms + kNumOffsetSyms];  // symbol | extra << 5
  unsigned num_items = 0;
  const auto item = [&](unsigned sym, unsigned extra) {
    precode_freqs[sym]++;
    items[num_items++] = static_cast<std::uint16_t>(sym | (extra << 5));
  };
  for (unsigned run_start = 0; run_start < num_lens;) {
    const std::uint8_t l = lens[run_start];
    unsigned run_end = run_start + 1;
    while (run_end < num_lens && lens[run_end] == l) ++run_end;
    if (l == 0) {
      while (run_end - run_start >= 11) {
        const unsigned extra = std::min(run_end - run_start - 11, 0x7Fu);
        item(18, extra);
        run_start += 11 + extra;
      }
      if (run_end - run_start >= 3) {
        const unsigned extra = std::min(run_end - run_start - 3, 0x7u);
        item(17, extra);
        run_start += 3 + extra;
      }
    } else if (run_end - run_start >= 4) {
      item(l, 0);
      ++run_start;
      do {
        const unsigned extra = std::min(run_end - run_start - 3, 0x3u);
        item(16, extra);
        run_start += 3 + extra;
      } while (run_end - run_start >= 3);
    }
    for (; run_start < run_end; ++run_start) item(l, 0);
  }
  make_huffman_code(kNumPrecodeSyms, kMaxPrecodeBits, precode_freqs, precode);
  unsigned num_explicit = kNumPrecodeSyms;
  while (num_explicit > 4 && precode.len[kPrecodeOrder[num_explicit - 1]] == 0) --num_explicit;

  // Exact costs in bits.  Extra bits cost the same under both Huffman types.
  std::uint64_t extra_bits = 0;
  for (unsigned s = 0; s < 29; ++s) {
    extra_bits += std::uint64_t{freqs.litlen[257 + s]} * kLenExtra[s];
  }
  for (unsigned s = 0; s < 30; ++s) extra_bits += std::uint64_t{freqs.offset[s]} * kDistExtra[s];
  std::uint64_t dynamic_bits = 3 + 5 + 5 + 4 + 3 * num_explicit + extra_bits;
  std::uint64_t static_bits = 3 + extra_bits;
  static constexpr unsigned kPrecodeExtra[3] = {2, 3, 7};
  for (unsigned s = 0; s < kNumPrecodeSyms; ++s) {
    const unsigned extra = s >= 16 ? kPrecodeExtra[s - 16] : 0;
    dynamic_bits += std::uint64_t{precode_freqs[s]} * (precode.len[s] + extra);
  }
  for (unsigned s = 0; s < kNumLitlenSyms; ++s) {
    dynamic_bits += std::uint64_t{freqs.litlen[s]} * litlen.len[s];
    static_bits += std::uint64_t{freqs.litlen[s]} * kStaticLitlen.len[s];
  }
  for (unsigned s = 0; s < kNumOffsetSyms; ++s) {
    dynamic_bits += std::uint64_t{freqs.offset[s]} * offsets.len[s];
    static_bits += std::uint64_t{freqs.offset[s]} * kStaticOffset.len[s];
  }
  const std::uint64_t stored_bits = stored_cost(len, bw.pending_bits());

  if (stored_bits < std::min(static_bits, dynamic_bits)) {
    write_stored(bw, block, len, final);
    return;
  }
  bw.add(final ? 1 : 0, 1);
  if (static_bits <= dynamic_bits) {
    bw.add(1, 2);
    write_sequences(bw, seqs, block, kStaticLitlen, kStaticOffset);
    return;
  }
  bw.add(2, 2);
  bw.add(num_litlen - 257, 5);
  bw.add(num_offset - 1, 5);
  bw.add(num_explicit - 4, 4);
  bw.flush();
  for (unsigned i = 0; i < num_explicit; ++i) {
    bw.add(precode.len[kPrecodeOrder[i]], 3);
    if (i % 8 == 7) bw.flush();  // 7 + 8 x 3 bits
  }
  bw.flush();
  for (unsigned i = 0; i < num_items; ++i) {
    const unsigned sym = items[i] & 0x1F;
    bw.add(precode.codeword[sym], precode.len[sym]);
    if (sym >= 16) bw.add(static_cast<std::uint32_t>(items[i] >> 5), kPrecodeExtra[sym - 16]);
    bw.flush();
  }
  write_sequences(bw, seqs, block, litlen, offsets);
}

std::size_t deflate_zlib_bound(std::size_t n) { return n + 5 * (n / 4096 + 1) + 6; }

void deflate_zlib(std::span<const std::byte> input, std::vector<std::byte>& out,
                  DeflateScratch& scratch) {
  if (!scratch.state_) scratch.state_ = std::make_unique_for_overwrite<DeflateScratch::State>();
  DeflateScratch::State& st = *scratch.state_;

  const std::size_t bound = deflate_zlib_bound(input.size());
  out.resize(bound + 8);  // the bit writer's 8-byte stores
  auto* const begin = reinterpret_cast<std::uint8_t*>(out.data());
  // RFC 1950 header: deflate with a 32 KiB window, FLEVEL 1 (the tag zlib
  // writes at levels 2-5) and the FCHECK that makes it a multiple of 31.
  constexpr unsigned kCmf = 0x78;
  constexpr unsigned kFlg = (1u << 6) + (31 - (kCmf * 256 + (1u << 6)) % 31) % 31;
  begin[0] = static_cast<std::uint8_t>(kCmf);
  begin[1] = static_cast<std::uint8_t>(kFlg);

  BitWriter bw(begin + 2);
  const auto* in = reinterpret_cast<const std::uint8_t*>(input.data());
  if (input.empty()) {
    st.begin_block();
    st.finish_block(bw, in, 0, true);
  } else {
    st.parse(in, input.size(), bw);
  }
  bw.align();

  // Adler-32 trailer, big-endian.
  const std::uint32_t adler = adler32(input);
  std::uint8_t* p = bw.position();
  for (int shift = 24; shift >= 0; shift -= 8) *p++ = static_cast<std::uint8_t>(adler >> shift);
  const auto size = static_cast<std::size_t>(p - begin);
  MLIO_ASSERT(size <= bound);
  out.resize(size);
}

}  // namespace mlio::util
