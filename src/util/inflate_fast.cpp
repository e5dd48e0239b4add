#include "util/inflate_fast.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/checksum.hpp"
#include "util/deflate_format.hpp"
#include "util/error.hpp"

namespace mlio::util {
namespace {

using namespace deflate_format;

// ---------------------------------------------------------------------------
// Table entries, in libdeflate's layout.  One u32 per slot:
//
//   bit  31     literal; bits 16..23 hold the byte
//   bits 16..30 value: length base, distance base, code-length symbol, or a
//               link's sub-table start (an index into the same table)
//   bit  15     exceptional: end of block, link, or invalid
//   bit  14     link to a sub-table
//   bit  13     end of block
//   bits 8..11  code length (for a link: the sub-table's index width)
//   bits 0..4   code length + extra bits (for a link: the root width)
//
// The low five bits are everything an entry consumes, so a length or a
// distance takes its extra bits in the same shift as its code; the extra
// value is then read from the buffer as it was before that shift.
//
// An entry that is exceptional but neither a link nor the end of block is
// invalid: an unassigned slot of an incomplete code, or litlen symbols
// 286/287 and distance symbols 30/31, which take part in the canonical code
// but are errors if a stream uses them — as in zlib.

constexpr std::uint32_t kLiteral = 0x80000000u;
constexpr std::uint32_t kExceptional = 0x8000u;
constexpr std::uint32_t kLink = 0x4000u;
constexpr std::uint32_t kEob = 0x2000u;
constexpr std::uint32_t kInvalid = kExceptional;

constexpr unsigned e_total(std::uint32_t e) { return e & 31u; }
constexpr unsigned e_codelen(std::uint32_t e) { return (e >> 8) & 15u; }
constexpr std::uint32_t e_val(std::uint32_t e) { return (e >> 16) & 0x7fffu; }
constexpr unsigned char e_literal(std::uint32_t e) { return static_cast<unsigned char>(e >> 16); }

constexpr std::uint64_t low_bits(std::uint64_t v, unsigned n) {
  return v & ((std::uint64_t{1} << n) - 1);
}
// Extra-bits value of a length or distance entry; `saved` is the bit buffer
// before the entry was consumed.
constexpr std::uint32_t e_extra_value(std::uint64_t saved, std::uint32_t e) {
  return static_cast<std::uint32_t>(low_bits(saved, e_total(e)) >> e_codelen(e));
}

// A symbol's prototype holds its flags, value and extra-bit count; the table
// build adds the code length to the two length fields.
constexpr std::uint32_t proto(std::uint32_t flags, std::uint32_t val, std::uint32_t extra = 0) {
  return flags | (val << 16) | extra;
}
constexpr std::uint32_t make_entry(std::uint32_t p, unsigned len) {
  return p + (static_cast<std::uint32_t>(len) << 8) + len;
}

constexpr unsigned kLitlenRootBits = 11;
constexpr unsigned kDistRootBits = 8;
constexpr unsigned kCodelenRootBits = 7;

// Table capacities.  A sub-table exists per root prefix of some code longer
// than the root, so there are at most as many as symbols, and each is at most
// 2^(15 - root) entries wide.  (libdeflate's tight bounds are 2342 and 402.)
constexpr std::size_t kLitlenCapacity = (std::size_t{1} << kLitlenRootBits) + 288 * 16;
constexpr std::size_t kDistCapacity = (std::size_t{1} << kDistRootBits) + 32 * 128;
constexpr std::size_t kCodelenCapacity = std::size_t{1} << kCodelenRootBits;

constexpr std::array<std::uint32_t, 288> make_litlen_protos() {
  std::array<std::uint32_t, 288> p{};
  for (std::uint32_t s = 0; s < 256; ++s) p[s] = proto(kLiteral, s);
  p[256] = kExceptional | kEob;
  for (std::uint32_t s = 257; s <= 285; ++s) p[s] = proto(0, kLenBase[s - 257], kLenExtra[s - 257]);
  p[286] = p[287] = kInvalid;
  return p;
}
constexpr std::array<std::uint32_t, 32> make_dist_protos() {
  std::array<std::uint32_t, 32> p{};
  for (std::uint32_t s = 0; s < 30; ++s) p[s] = proto(0, kDistBase[s], kDistExtra[s]);
  p[30] = p[31] = kInvalid;
  return p;
}
constexpr std::array<std::uint32_t, 19> make_codelen_protos() {
  std::array<std::uint32_t, 19> p{};
  for (std::uint32_t s = 0; s < 19; ++s) p[s] = proto(0, s);
  return p;
}
constexpr auto kLitlenProtos = make_litlen_protos();
constexpr auto kDistProtos = make_dist_protos();
constexpr auto kCodelenProtos = make_codelen_protos();

[[noreturn]] void fail() { throw FormatError("zlib decompression failed"); }

enum class CodeSet { kCodelen, kLitlen, kDist };

// Build a decode table from canonical code lengths (libdeflate's
// construction).  The root is min(root_bits, longest code) wide.  Symbols
// sorted by (length, value) enumerate the codewords in canonical order, kept
// bit-reversed so each one indexes the table directly; the root is filled one
// length at a time and doubled with a memcpy per length step.  Codes longer
// than the root go to sub-tables behind link entries.
//
// Strictness is zlib's: an oversubscribed set throws; an incomplete set is
// allowed only as a single 1-bit code (never for the code-length code), its
// unused half left invalid; an empty set builds and fails on first use.
void build_table(const std::uint8_t* lens, unsigned n, unsigned root_bits,
                 const std::uint32_t* protos, CodeSet set, std::size_t capacity,
                 HuffmanTable& t) {
  unsigned counts[kMaxCodeBits + 1] = {};
  for (unsigned s = 0; s < n; ++s) counts[lens[s]]++;
  int left = 1;
  unsigned max_len = 0;
  for (unsigned len = 1; len <= kMaxCodeBits; ++len) {
    left = (left << 1) - static_cast<int>(counts[len]);
    if (left < 0) fail();  // oversubscribed
    if (counts[len] != 0) max_len = len;
  }
  if (t.entries.size() < capacity) t.entries.resize(capacity);
  std::uint32_t* const table = t.entries.data();

  if (max_len == 0) {  // no codes: any lookup hits an invalid entry
    t.root_bits = 1;
    table[0] = table[1] = kInvalid;
    return;
  }
  if (left > 0) {
    if (set == CodeSet::kCodelen || max_len != 1) fail();  // incomplete
    const auto* one = std::find(lens, lens + n, std::uint8_t{1});
    t.root_bits = 1;
    table[0] = make_entry(protos[one - lens], 1);
    table[1] = kInvalid;
    return;
  }

  const unsigned root = std::min(root_bits, max_len);
  t.root_bits = root;
  std::uint16_t sorted[288] = {};
  {
    unsigned pos[kMaxCodeBits + 1] = {};
    for (unsigned len = 1; len < kMaxCodeBits; ++len) pos[len + 1] = pos[len] + counts[len];
    for (unsigned s = 0; s < n; ++s) {
      if (lens[s] != 0) sorted[pos[lens[s]]++] = static_cast<std::uint16_t>(s);
    }
  }
  const std::uint16_t* sym = sorted;

  // The next codeword, bit-reversed: incrementing it sets its highest zero
  // bit and clears the ones above; appending zeros for a longer length is a
  // no-op.
  const auto next_codeword = [](unsigned codeword, unsigned len) {
    const unsigned bit = 1u << (std::bit_width(codeword ^ ((1u << len) - 1)) - 1);
    return (codeword & (bit - 1)) | bit;
  };
  unsigned codeword = 0;
  unsigned len = 1;
  unsigned count = 0;
  while ((count = counts[len]) == 0) ++len;
  std::size_t cur_end = std::size_t{1} << len;
  while (len <= root) {
    do {
      table[codeword] = make_entry(protos[*sym++], len);
      if (codeword == cur_end - 1) {  // all ones: the last codeword
        for (; len < root; ++len) {
          std::memcpy(table + cur_end, table, cur_end * sizeof *table);
          cur_end <<= 1;
        }
        return;
      }
      codeword = next_codeword(codeword, len);
    } while (--count != 0);
    do {
      if (++len <= root) {
        std::memcpy(table + cur_end, table, cur_end * sizeof *table);
        cur_end <<= 1;
      }
    } while ((count = counts[len]) == 0);
  }

  // Codes longer than the root.  A sub-table is as wide as it must be to
  // hold every code sharing its root prefix.
  const unsigned root_mask = (1u << root) - 1;
  cur_end = std::size_t{1} << root;
  unsigned prefix = ~0u;
  std::size_t sub_start = 0;
  for (;;) {
    if ((codeword & root_mask) != prefix) {
      prefix = codeword & root_mask;
      sub_start = cur_end;
      unsigned sub_bits = len - root;
      unsigned used = count;
      while (used < (1u << sub_bits)) {
        ++sub_bits;
        used = (used << 1) + counts[root + sub_bits];
      }
      cur_end = sub_start + (std::size_t{1} << sub_bits);
      MLIO_ASSERT(cur_end <= capacity);
      table[prefix] = kExceptional | kLink | (static_cast<std::uint32_t>(sub_start) << 16) |
                      (sub_bits << 8) | root;
    }
    const std::uint32_t e = make_entry(protos[*sym++], len - root);
    for (std::size_t i = sub_start + (codeword >> root); i < cur_end;
         i += std::size_t{1} << (len - root)) {
      table[i] = e;
    }
    if (codeword == (1u << len) - 1) return;
    codeword = next_codeword(codeword, len);
    --count;
    while (count == 0) count = counts[++len];
  }
}

struct FixedTables {
  HuffmanTable litlen;
  HuffmanTable dist;
};

const FixedTables& fixed_tables() {
  static const FixedTables tables = [] {
    FixedTables t;
    std::uint8_t ll[288];
    std::fill(ll, ll + 144, std::uint8_t{8});
    std::fill(ll + 144, ll + 256, std::uint8_t{9});
    std::fill(ll + 256, ll + 280, std::uint8_t{7});
    std::fill(ll + 280, ll + 288, std::uint8_t{8});
    build_table(ll, 288, kLitlenRootBits, kLitlenProtos.data(), CodeSet::kLitlen,
                kLitlenCapacity, t.litlen);
    std::uint8_t dd[32];
    std::fill(dd, dd + 32, std::uint8_t{5});
    build_table(dd, 32, kDistRootBits, kDistProtos.data(), CodeSet::kDist, kDistCapacity,
                t.dist);
    return t;
  }();
  return tables;
}

// ---------------------------------------------------------------------------
// Bit reader: LSB-first 64-bit buffer.  `cnt` low bits of `buf` are
// counted; the 8-byte refill may leave valid-but-uncounted stream bits above
// cnt (they are the low bits of the byte `in` points at), which a later
// refill ORs in again idempotently.  When `in == end` every bit above cnt is
// zero, so a truncated code indexes a longer entry and the length > cnt
// check fires.

struct BitReader {
  const unsigned char* in;
  const unsigned char* end;
  std::uint64_t buf = 0;
  unsigned cnt = 0;

  // Leaves cnt >= 56 unless the input is exhausted: a branchless 8-byte
  // load while 8 bytes remain, byte by byte after that.
  void refill() {
    if (std::endian::native == std::endian::little && end - in >= 8) {
      std::uint64_t w = 0;
      std::memcpy(&w, in, 8);
      buf |= w << cnt;
      in += (63 - cnt) >> 3;
      cnt |= 56;
      return;
    }
    while (cnt <= 56 && in < end) {
      buf |= static_cast<std::uint64_t>(*in++) << cnt;
      cnt += 8;
    }
  }

  void consume(unsigned n) {
    buf >>= n;
    cnt -= n;
  }

  std::uint32_t take(unsigned n) {
    if (cnt < n) {
      refill();
      if (cnt < n) fail();  // truncated stream
    }
    const auto v = static_cast<std::uint32_t>(low_bits(buf, n));
    consume(n);
    return v;
  }
};

// Resolve one symbol with full checks: refills, follows a link, rejects
// invalid entries and truncation, consumes.  Returns a literal, length, end
// of block, distance or code-length entry; `saved` is the buffer before its
// final consume, for e_extra_value.
std::uint32_t decode_safe(BitReader& br, const HuffmanTable& t, std::uint64_t& saved) {
  br.refill();
  const std::uint32_t* const table = t.entries.data();
  std::uint32_t e = table[low_bits(br.buf, t.root_bits)];
  if (e & kLink) {
    if (e_total(e) > br.cnt) fail();  // input ran out mid-code
    br.consume(e_total(e));
    e = table[e_val(e) + low_bits(br.buf, e_codelen(e))];
  }
  if ((e & kExceptional) && !(e & kEob)) fail();  // invalid code
  if (e_total(e) > br.cnt) fail();                 // input ran out mid-code
  saved = br.buf;
  br.consume(e_total(e));
  return e;
}

// Match copy for the fast loop, which guarantees 272 bytes of room at `dst`:
// 16-byte chunks (the first two unconditional; most matches are <= 32 bytes)
// overshoot to at most 272 for a 258-byte match.
inline void copy_match_fast(unsigned char* dst, std::size_t dist, unsigned len) {
  const unsigned char* src = dst - dist;
  unsigned char* const end = dst + len;
  if (dist >= 16) {
    std::memcpy(dst, src, 16);
    std::memcpy(dst + 16, src + 16, 16);
    if (len > 32) {
      dst += 32;
      src += 32;
      do {
        std::memcpy(dst, src, 16);
        dst += 16;
        src += 16;
      } while (dst < end);
    }
  } else if (dist >= 8) {
    do {
      std::memcpy(dst, src, 8);
      dst += 8;
      src += 8;
    } while (dst < end);
  } else if (dist == 1) {
    std::memset(dst, *src, len);
  } else {
    do {
      *dst++ = *src++;
    } while (dst < end);
  }
}

// Fast-loop margins.  Output: two literals and a 258-byte match copied as
// 272 bytes.  Input: three refills (after a litlen sub-table entry, before
// the distance, after the next preload) advance at most 7 bytes each and
// read 8.
constexpr std::ptrdiff_t kFastOutMargin = 2 + 272;
constexpr std::ptrdiff_t kFastInMargin = 2 * 7 + 8;

struct Decoder {
  BitReader br;
  unsigned char* const out_begin;
  unsigned char* out;
  unsigned char* const out_end;

  // Decode the payload of one Huffman-coded block (fixed or dynamic tables).
  void decode_block(const HuffmanTable& ll, const HuffmanTable& dt) {
    const std::uint32_t* const llt = ll.entries.data();
    const std::uint32_t* const dtt = dt.entries.data();
    const std::uint64_t ll_mask = (std::uint64_t{1} << ll.root_bits) - 1;
    const std::uint64_t d_mask = (std::uint64_t{1} << dt.root_bits) - 1;

    // Fast loop.  Each pass starts refilled (>= 56 bits) with the next litlen
    // entry already looked up.  Bit budget: three root literals (33 bits) and
    // the next lookup (11) fit one refill; a litlen sub-table entry gets a
    // refill of its own, and a distance (<= 28 bits) plus the next lookup
    // refill first only if fewer than 39 bits are left.
    //
    // The bit buffer, input and output pointers live in locals here: byte
    // stores through `o` may alias anything, which would otherwise force
    // the members back to memory on every literal.  As in libdeflate, `bits`
    // is only meaningful in its low byte, so a whole entry can be subtracted
    // without masking out its code length + extra bits first.
    if (std::endian::native == std::endian::little && out_end - out >= kFastOutMargin &&
        br.end - br.in >= kFastInMargin) {
      std::uint64_t buf = br.buf;
      std::uint32_t bits = br.cnt;
      const unsigned char* in = br.in;
      unsigned char* o = out;
      const unsigned char* const in_stop = br.end - kFastInMargin;
      unsigned char* const out_stop = out_end - kFastOutMargin;
      const auto refill = [&] {  // BitReader::refill's 8-byte load on the locals
        std::uint64_t w = 0;
        std::memcpy(&w, in, 8);
        buf |= w << static_cast<std::uint8_t>(bits);
        in += 7 - ((bits >> 3) & 7);
        bits |= 56;
      };
      const auto consume = [&](std::uint32_t entry) {
        buf >>= static_cast<std::uint8_t>(entry);
        bits -= entry;
      };
      const auto sync = [&] {
        br.buf = buf;
        br.cnt = static_cast<std::uint8_t>(bits);
        br.in = in;
        out = o;
      };

      refill();
      std::uint32_t e = llt[buf & ll_mask];
      do {
        std::uint64_t saved = buf;
        consume(e);
        if (e & kLiteral) {
          *o++ = e_literal(e);
          e = llt[buf & ll_mask];
          saved = buf;
          consume(e);
          if (e & kLiteral) {
            *o++ = e_literal(e);
            e = llt[buf & ll_mask];
            saved = buf;
            consume(e);
            if (e & kLiteral) {
              *o++ = e_literal(e);
              e = llt[buf & ll_mask];
              refill();
              continue;
            }
          }
        }
        if (e & kExceptional) {
          if (e & kEob) {
            sync();
            return;
          }
          if (!(e & kLink)) fail();  // invalid litlen code
          e = llt[e_val(e) + low_bits(buf, e_codelen(e))];
          saved = buf;
          consume(e);
          refill();
          if (e & kLiteral) {
            *o++ = e_literal(e);
            e = llt[buf & ll_mask];
            continue;
          }
          if (e & kExceptional) {
            if (e & kEob) {
              sync();
              return;
            }
            fail();
          }
        }
        const unsigned len = e_val(e) + e_extra_value(saved, e);
        if (static_cast<std::uint8_t>(bits) < 28 + 11) refill();
        std::uint32_t d = dtt[buf & d_mask];
        if (d & kExceptional) {
          if (!(d & kLink)) fail();  // invalid distance code
          consume(d);
          d = dtt[e_val(d) + low_bits(buf, e_codelen(d))];
          if (d & kExceptional) fail();
        }
        saved = buf;
        consume(d);
        const std::size_t dist = e_val(d) + e_extra_value(saved, d);
        if (dist > static_cast<std::size_t>(o - out_begin)) fail();
        // Look up the next entry before the copy so the two overlap.
        e = llt[buf & ll_mask];
        refill();
        copy_match_fast(o, dist, len);
        o += len;
      } while (o <= out_stop && in <= in_stop);
      sync();
    }

    // Safe tail: per-symbol bounds and refill checks.
    for (;;) {
      std::uint64_t saved = 0;
      const std::uint32_t e = decode_safe(br, ll, saved);
      if (e & kLiteral) {
        if (out == out_end) throw FormatError("decompressed size mismatch");
        *out++ = e_literal(e);
        continue;
      }
      if (e & kEob) return;
      const unsigned len = e_val(e) + e_extra_value(saved, e);
      const std::uint32_t d = decode_safe(br, dt, saved);
      const std::size_t dist = e_val(d) + e_extra_value(saved, d);
      if (dist > static_cast<std::size_t>(out - out_begin)) fail();
      if (len > static_cast<std::size_t>(out_end - out)) {
        throw FormatError("decompressed size mismatch");
      }
      const unsigned char* src = out - dist;
      for (unsigned i = 0; i < len; ++i) *out++ = *src++;
    }
  }

  void stored_block() {
    br.consume(br.cnt & 7);  // byte-align
    const std::uint32_t len = br.take(16);
    const std::uint32_t nlen = br.take(16);
    if (len != (~nlen & 0xffffu)) fail();
    if (len > static_cast<std::size_t>(out_end - out)) {
      throw FormatError("decompressed size mismatch");
    }
    std::uint32_t n = len;
    while (br.cnt >= 8 && n > 0) {  // drain whole bytes still in the bit buffer
      *out++ = static_cast<unsigned char>(br.buf & 0xff);
      br.consume(8);
      --n;
    }
    if (n > 0) {
      // cnt is now 0; drop any uncounted lookahead bits before touching `in`
      // directly, or the next refill would re-buffer stale bytes.
      br.buf = 0;
      if (static_cast<std::size_t>(br.end - br.in) < n) fail();
      std::memcpy(out, br.in, n);
      out += n;
      br.in += n;
    }
  }

  void dynamic_tables(InflateScratch& scratch) {
    const unsigned hlit = br.take(5) + 257;
    const unsigned hdist = br.take(5) + 1;
    const unsigned hclen = br.take(4) + 4;
    if (hlit > 286 || hdist > 30) fail();  // zlib: too many symbols
    std::uint8_t cl_lens[19] = {};
    for (unsigned i = 0; i < hclen; ++i) {
      cl_lens[kPrecodeOrder[i]] = static_cast<std::uint8_t>(br.take(3));
    }
    build_table(cl_lens, 19, kCodelenRootBits, kCodelenProtos.data(), CodeSet::kCodelen,
                kCodelenCapacity, scratch.codelen);

    std::uint8_t lens[286 + 30];
    const unsigned total = hlit + hdist;
    unsigned i = 0;
    while (i < total) {
      std::uint64_t saved = 0;
      const std::uint32_t sym = e_val(decode_safe(br, scratch.codelen, saved));
      if (sym < 16) {
        lens[i++] = static_cast<std::uint8_t>(sym);
        continue;
      }
      std::uint8_t value = 0;
      unsigned rep;
      if (sym == 16) {
        if (i == 0) fail();  // repeat with no previous length
        value = lens[i - 1];
        rep = 3 + br.take(2);
      } else if (sym == 17) {
        rep = 3 + br.take(3);
      } else {
        rep = 11 + br.take(7);
      }
      if (i + rep > total) fail();
      std::memset(lens + i, value, rep);
      i += rep;
    }
    if (lens[256] == 0) fail();  // no end-of-block code
    build_table(lens, hlit, kLitlenRootBits, kLitlenProtos.data(), CodeSet::kLitlen,
                kLitlenCapacity, scratch.litlen);
    build_table(lens + hlit, hdist, kDistRootBits, kDistProtos.data(), CodeSet::kDist,
                kDistCapacity, scratch.dist);
  }
};

}  // namespace

void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  InflateScratch& scratch, bool verify_checksum) {
  const auto* in = reinterpret_cast<const unsigned char*>(input.data());
  const auto* const in_end = in + input.size();
  if (input.size() < 2) fail();
  const unsigned cmf = in[0], flg = in[1];
  if ((cmf & 0x0f) != 8) fail();           // not DEFLATE
  if ((cmf >> 4) > 7) fail();              // window larger than 32 KiB
  if (((cmf << 8) | flg) % 31 != 0) fail();  // header check bits
  if (flg & 0x20) fail();                  // preset dictionary: never written

  Decoder dec{
      BitReader{in + 2, in_end},
      reinterpret_cast<unsigned char*>(out.data()),
      reinterpret_cast<unsigned char*>(out.data()),
      reinterpret_cast<unsigned char*>(out.data()) + out.size(),
  };

  for (;;) {
    const std::uint32_t hdr = dec.br.take(3);
    const bool final = (hdr & 1) != 0;
    switch (hdr >> 1) {
      case 0:
        dec.stored_block();
        break;
      case 1: {
        const FixedTables& f = fixed_tables();
        dec.decode_block(f.litlen, f.dist);
        break;
      }
      case 2:
        dec.dynamic_tables(scratch);
        dec.decode_block(scratch.litlen, scratch.dist);
        break;
      default:
        fail();  // reserved block type
    }
    if (final) break;
  }

  if (dec.out != dec.out_end) throw FormatError("decompressed size mismatch");
  dec.br.consume(dec.br.cnt & 7);
  std::uint32_t stored_adler = 0;  // trailer is big-endian
  for (int i = 0; i < 4; ++i) stored_adler = (stored_adler << 8) | dec.br.take(8);
  if (verify_checksum) {
    if (adler32(out) != stored_adler) fail();
  }
}

void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  bool verify_checksum) {
  InflateScratch scratch;
  inflate_zlib(input, out, scratch, verify_checksum);
}

}  // namespace mlio::util
