// zlib (DEFLATE) helpers used by the Darshan log format.
//
// The free functions are one-shot conveniences.  Deflater owns a reusable
// z_stream plus its internal window state, and Inflater the fast decoder's
// Huffman tables, so hot loops (the pipeline's log roundtrip path serializes
// millions of logs) pay the allocation cost once per worker instead of once
// per log.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "util/inflate_fast.hpp"

namespace mlio::util {

/// Reusable DEFLATE stream.  compress() resets the stream, so one instance
/// serves any number of independent buffers; not thread-safe.
class Deflater {
 public:
  Deflater();
  ~Deflater();
  Deflater(Deflater&&) noexcept;
  Deflater& operator=(Deflater&&) noexcept;

  /// Deflate `input` at `level` (1..9) into `out` (cleared first; capacity is
  /// reused).  Throws ConfigError on a bad level, FormatError on failure.
  void compress(std::span<const std::byte> input, int level, std::vector<std::byte>& out);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
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

/// Deflate `input` at the given zlib level (1..9; 6 is the format default).
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
