// A hand encoder of the log format's record block (version 3), written from
// the format description and independent of the library's writer, for the
// suites that build log bodies byte by byte (test_format_fuzz,
// test_ingest_differential).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "darshan/record.hpp"
#include "util/byte_io.hpp"

namespace mlio::harness {

/// Append `v` as a zigzag LEB128: the sign moved to bit 0 (v >= 0 maps to
/// 2v, v < 0 to -2v - 1), then seven bits per byte, low group first, the
/// high bit set on every byte but the last.
inline void write_zigzag_varint(util::ByteWriter& w, std::int64_t v) {
  std::uint64_t z = v >= 0 ? 2 * static_cast<std::uint64_t>(v)
                           : 2 * (~static_cast<std::uint64_t>(v)) + 1;
  while (z >= 0x80) {
    w.u8(static_cast<std::uint8_t>(0x80 | (z & 0x7f)));
    z >>= 7;
  }
  w.u8(static_cast<std::uint8_t>(z));
}

/// Append one record block: id, rank as a zigzag varint, a bitmap of
/// ceil(n / 8) bytes over the record's n words (the counters, then the
/// fcounters by bit pattern), word i at bit i % 8 of byte i / 8 and set when
/// the word is non-zero, then the non-zero words in order, each counter a
/// zigzag varint and each fcounter its 8-byte pattern.
inline void write_record_block(util::ByteWriter& w, const darshan::FileRecord& rec) {
  const std::size_t nc = rec.counters.size();
  std::vector<std::uint64_t> words;
  for (const std::int64_t c : rec.counters) words.push_back(static_cast<std::uint64_t>(c));
  for (const double f : rec.fcounters) words.push_back(std::bit_cast<std::uint64_t>(f));
  w.u64(rec.record_id);
  write_zigzag_varint(w, rec.rank);
  for (std::size_t byte = 0; byte < (words.size() + 7) / 8; ++byte) {
    std::uint8_t bits = 0;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::size_t i = 8 * byte + bit;
      if (i < words.size() && words[i] != 0) bits = static_cast<std::uint8_t>(bits | (1u << bit));
    }
    w.u8(bits);
  }
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (words[i] == 0) continue;
    if (i < nc) {
      write_zigzag_varint(w, rec.counters[i]);
    } else {
      w.u64(words[i]);
    }
  }
}

}  // namespace mlio::harness
