#include "util/compress.hpp"

#include <limits>

#include "util/error.hpp"

namespace mlio::util {

// Log frames are MBs at most, so a size past 32 bits is a typed failure for
// corrupt/hostile headers, not a real limit.
constexpr std::size_t kMaxZlibSingleShot = std::numeric_limits<std::uint32_t>::max();

void Deflater::compress(std::span<const std::byte> input, std::vector<std::byte>& out) {
  deflate_zlib(input, out, scratch_);
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

std::vector<std::byte> zlib_compress(std::span<const std::byte> input) {
  Deflater deflater;
  std::vector<std::byte> out;
  deflater.compress(input, out);
  return out;
}

}  // namespace mlio::util
