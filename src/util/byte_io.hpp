// Bounds-checked little-endian byte serialization used by the Darshan log
// format.  All multi-byte integers on disk are little-endian regardless of
// host order (the hosts we target are LE; the explicit shifts make the format
// portable anyway).
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace mlio::util {

/// The little-endian T (an unsigned integer) stored at `p`, which needs no
/// alignment.  Callers check bounds: this is the unchecked load under
/// ByteReader and the log codec's in-place record views.
template <typename T>
T load_le(const std::byte* p) {
  T v;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&v, p, sizeof(T));
  } else {
    v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(std::to_integer<std::uint8_t>(p[i])) << (8 * i)));
    }
  }
  return v;
}

/// Store `v` (an unsigned integer) little-endian at `p`, which needs no
/// alignment: the mirror of load_le.
template <typename T>
void store_le(std::byte* p, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(T));
  } else {
    for (std::size_t i = 0; i < sizeof(T); ++i) p[i] = static_cast<std::byte>(v >> (8 * i));
  }
}

/// Zigzag map of a signed integer onto an unsigned one, 0, -1, 1, -2, ... to
/// 0, 1, 2, 3, ..., so a value of small magnitude has a short varint.
constexpr std::uint64_t zigzag_encode(std::int64_t v) {
  return (static_cast<std::uint64_t>(v) << 1) ^ static_cast<std::uint64_t>(v >> 63);
}
constexpr std::int64_t zigzag_decode(std::uint64_t z) {
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

/// Append-only byte buffer with typed little-endian writes.
///
/// The fixed-width writes are inline, the mirror of ByteReader's reads: one
/// resize, then on little-endian hosts one unaligned store (the log encoder
/// calls them once per header field).
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void u16(std::uint16_t v) { fixed(v); }
  void u32(std::uint32_t v) { fixed(v); }
  void u64(std::uint64_t v) { fixed(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// LEB128: seven bits per byte, low group first, the high bit set on every
  /// byte but the last; the shortest encoding of `v` (1 to 10 bytes).
  void uvarint(std::uint64_t v) {
    for (; v >= 0x80; v >>= 7) buf_.push_back(static_cast<std::byte>(v | 0x80));
    buf_.push_back(static_cast<std::byte>(v));
  }
  /// Length-prefixed (u32) string.
  void str(std::string_view s);
  void bytes(std::span<const std::byte> data);

  /// Room for at most `n` more bytes: returns where they start.  The caller
  /// writes through the pointer, then commit()s the end of what it wrote;
  /// the room past it is dropped.  For an encoder with a small bound on its
  /// output, which then checks capacity once rather than per byte.
  std::byte* reserve_tail(std::size_t n) {
    const std::size_t pos = buf_.size();
    buf_.resize(pos + n);
    return buf_.data() + pos;
  }
  void commit(const std::byte* end) {
    buf_.resize(static_cast<std::size_t>(end - buf_.data()));
  }

  std::span<const std::byte> view() const { return buf_; }
  std::vector<std::byte> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }
  /// Forget the contents but keep the capacity — for buffer-reuse loops.
  void clear() { buf_.clear(); }

 private:
  template <typename T>
  void fixed(T v) {
    const std::size_t pos = buf_.size();
    buf_.resize(pos + sizeof(T));
    store_le(buf_.data() + pos, v);
  }

  std::vector<std::byte> buf_;
};

/// Sequential reader over a byte span; throws FormatError on underrun.
///
/// The integer reads are defined inline: the log decoder calls them once per
/// counter, so an out-of-line byte-at-a-time loop was the single largest
/// cost in a cold archive scan.  On little-endian hosts they compile to one
/// bounds check plus an unaligned load; the shift fallback keeps the format
/// portable.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return std::to_integer<std::uint8_t>(data_[pos_++]);
  }
  std::uint16_t u16() { return fixed<std::uint16_t>(); }
  std::uint32_t u32() { return fixed<std::uint32_t>(); }
  std::uint64_t u64() { return fixed<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  std::string str();
  /// Length-prefixed string as a view into the underlying buffer — no copy,
  /// no allocation.  Valid only while the buffer passed to the constructor
  /// lives (the log codec's arena fill relies on this).
  std::string_view str_view();
  /// Read exactly n raw bytes.
  std::span<const std::byte> bytes(std::size_t n);
  /// The bytes not read yet, for a caller that decodes them in place and
  /// then skip()s what it used.
  std::span<const std::byte> rest() const { return data_.subspan(pos_); }
  void skip(std::size_t n) {
    need(n);
    pos_ += n;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (data_.size() - pos_ < n) throw FormatError("unexpected end of data");
  }

  template <typename T>
  T fixed() {
    need(sizeof(T));
    const T v = load_le<T>(data_.data() + pos_);
    pos_ += sizeof(T);
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

/// Read an entire file into memory.  Throws IoError when the file cannot be
/// opened or read.
std::vector<std::byte> read_file_bytes(const std::filesystem::path& path);

/// Write `data` to `path` atomically and durably: the bytes land in a
/// sibling temporary file which is fsynced and then renamed over the
/// target, followed by an fsync of the parent directory — so readers never
/// observe a partial file and a crash right after the call cannot tear the
/// published bytes (the archive manifest update protocol relies on both).
/// Convenience wrapper around Vfs::write_file_atomic on the real
/// filesystem (util/vfs.hpp).
void write_file_atomic(const std::filesystem::path& path, std::span<const std::byte> data);

}  // namespace mlio::util
