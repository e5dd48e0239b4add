// zlib-stream (DEFLATE) helpers used by the Darshan log format.
//
// zlib_compress is a one-shot convenience.  Deflater owns the fast
// encoder's matchfinder and block state, and Inflater the fast decoder's
// Huffman tables, so hot loops (batch ingest serializes millions of logs,
// and every shard rebuild inflates them) pay the allocation cost once per
// worker instead of once per log.  The checksums (util/checksum.hpp) come
// with this header, so the frame codecs need one include; nothing here
// links zlib.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/checksum.hpp"
#include "util/deflate_fast.hpp"
#include "util/inflate_fast.hpp"

namespace mlio::util {

/// Reusable encoder state.  Each compress() call is an independent stream,
/// so one instance serves any number of buffers; not thread-safe.
class Deflater {
 public:
  /// Deflate `input` into `out` (capacity is reused) with the whole-buffer
  /// encoder in util/deflate_fast.hpp.
  void compress(std::span<const std::byte> input, std::vector<std::byte>& out);

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

/// Deflate `input` as Deflater::compress does, into a new buffer.
std::vector<std::byte> zlib_compress(std::span<const std::byte> input);

}  // namespace mlio::util
