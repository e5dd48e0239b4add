// Fast whole-buffer zlib-stream (RFC 1950/1951) decoder.
//
// The archive cold scan is inflate-bound: zlib's streaming inflate pays for
// generality the log reader never uses (incremental input, unknown output
// size, dictionary support).  This decoder exploits what the log format
// guarantees — the whole compressed payload is in memory and the exact
// decompressed size is recorded in the frame header — to run a
// libdeflate-style fast loop: a 64-bit bit buffer refilled 8 bytes at a
// time, two-level Huffman tables (an 11-bit litlen root) whose entries carry
// each code's length together with its extra bits, up to three literals per
// refill, and 16-byte chunked match copies with hoisted bounds checks.
//
// Strictness matches zlib's inflate: any malformation (bad header,
// oversubscribed/incomplete code sets, invalid symbols, distances before the
// output start, truncated input, wrong output size) throws
// util::FormatError.  The optional Adler-32 verification exists for callers
// whose payload has no other integrity check; the log reader skips it
// because the frame's CRC-32 of the body is verified immediately after.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mlio::util {

/// One two-level Huffman decode table: 2^root_bits root entries, then the
/// sub-tables of the codes longer than the root.
struct HuffmanTable {
  std::vector<std::uint32_t> entries;
  unsigned root_bits = 0;
};

/// Reusable Huffman-table storage so per-block dynamic table builds do not
/// allocate after the first log.  One instance per worker thread.
struct InflateScratch {
  HuffmanTable litlen;   ///< literal/length table
  HuffmanTable dist;     ///< distance table
  HuffmanTable codelen;  ///< code-length table (dynamic header)
};

/// Decompress the complete zlib stream `input` into `out`, which must be
/// sized to the exact expected decompressed size.  Throws FormatError if the
/// stream is malformed, truncated, or decodes to a different size.  When
/// `verify_checksum` is set the trailing Adler-32 is recomputed and checked;
/// callers that CRC the output themselves can skip it.
void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  InflateScratch& scratch, bool verify_checksum = true);

/// One-shot convenience (owns a temporary InflateScratch).
void inflate_zlib(std::span<const std::byte> input, std::span<std::byte> out,
                  bool verify_checksum = true);

}  // namespace mlio::util
