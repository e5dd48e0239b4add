// zlib-stream (DEFLATE) helpers used by the Darshan log format.
//
// The free functions are one-shot conveniences.  Deflater owns the fast
// encoder's matchfinder and block state, and Inflater the fast decoder's
// Huffman tables, so hot loops (the pipeline's log roundtrip path serializes
// millions of logs) pay the allocation cost once per worker instead of once
// per log.  zlib itself supplies only the CRC-32 reference and Adler-32.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/deflate_fast.hpp"
#include "util/inflate_fast.hpp"

namespace mlio::util {

/// Reusable encoder state.  Each compress() call is an independent stream,
/// so one instance serves any number of buffers; not thread-safe.
class Deflater {
 public:
  /// Deflate `input` at `level` (1..9) into `out` (capacity is reused) with
  /// the whole-buffer encoder in util/deflate_fast.hpp.  Throws ConfigError
  /// on a bad level.
  void compress(std::span<const std::byte> input, int level, std::vector<std::byte>& out);

 private:
  DeflateScratch scratch_;  ///< matchfinder and block state reused across streams
};

/// Reusable inflate state; the mirror of Deflater.
class Inflater {
 public:
  /// Inflate `input` into `out`, which is resized to `expected_size` (the
  /// exact decompressed size recorded in the log header), with the
  /// whole-buffer decoder in util/inflate_fast.hpp.  Throws FormatError on
  /// corrupt data or size mismatch.  The stream's Adler-32 trailer is
  /// verified only when `verify_checksum` is set; callers that CRC the
  /// output afterwards skip the redundant pass.
  void decompress(std::span<const std::byte> input, std::size_t expected_size,
                  std::vector<std::byte>& out, bool verify_checksum = true);

 private:
  InflateScratch scratch_;  ///< Huffman-table storage reused across streams
};

/// Deflate `input` at the given level (1..9, zlib's scale; 6 is the format
/// default).
std::vector<std::byte> zlib_compress(std::span<const std::byte> input, int level = 6);

/// Inflate `input`; `expected_size` is the exact decompressed size recorded
/// in the log header.  Throws FormatError on corrupt data or size mismatch.
std::vector<std::byte> zlib_decompress(std::span<const std::byte> input,
                                       std::size_t expected_size);

/// CRC-32 (zlib polynomial) of `input`.  On x86-64 CPUs with PCLMULQDQ and
/// SSE4.1 (checked at run time) the 16-byte multiple of any span of at least
/// 64 bytes is folded by carry-less multiplication and zlib's crc32 finishes
/// the tail; elsewhere zlib computes all of it.  The result is zlib's either
/// way.  Safe for buffers past zlib's 32-bit single-call bound: the input is
/// fed in chunks (segment files on the scale path can exceed 4 GiB, and a
/// truncated-length CRC would silently pass the wrong checksum into the
/// manifest).
std::uint32_t crc32(std::span<const std::byte> input);

/// Chunked CRC seam: identical result to crc32() for any `chunk_bytes >= 1`.
/// Exposed so tests can prove chunking invariance without a 4 GiB buffer.
std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes);

}  // namespace mlio::util
