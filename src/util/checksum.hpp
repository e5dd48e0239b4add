// The two checksums of the storage formats: CRC-32 (every log frame,
// segment, index, snapshot and manifest) and Adler-32 (the trailer of a
// zlib stream, util/deflate_fast.hpp and util/inflate_fast.hpp).  Both are
// written here, so the library links no zlib; the tests compare them with
// zlib's over lengths around every block and fold boundary.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace mlio::util {

/// CRC-32 (the zlib / gzip polynomial, reflected, pre- and post-inverted) of
/// `input`.  On x86-64 CPUs with PCLMULQDQ and SSE4.1 (checked at run time)
/// the 16-byte multiple of any span of at least 64 bytes is folded by
/// carry-less multiplication and a slicing-by-8 table loop finishes the
/// tail; elsewhere the table loop computes all of it.  Lengths are size_t
/// throughout, so a segment past 4 GiB checksums whole.
std::uint32_t crc32(std::span<const std::byte> input);

/// CRC-32 of `input` fed in chunks of `chunk_bytes` (>= 1): identical to
/// crc32() at every chunk size, so tests can move the fold's hand-off to
/// any offset.
std::uint32_t crc32_chunked(std::span<const std::byte> input, std::size_t chunk_bytes);

/// Adler-32 (RFC 1950) of `input`, continuing from `adler` (1 starts a
/// stream).  Sums are reduced mod 65521 every 5,552 bytes, the longest run
/// whose sums fit 32 bits; on x86-64 each run is summed 16 bytes per step
/// with SSE2.
std::uint32_t adler32(std::span<const std::byte> input, std::uint32_t adler = 1);

}  // namespace mlio::util
