// A hand encoder of the log format's record block (version 2), written from
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

/// Append one record block: id, rank, a bitmap of ceil(n / 8) bytes over the
/// record's n words (the counters, then the fcounters by bit pattern), word
/// i at bit i % 8 of byte i / 8 and set when the word is non-zero, then the
/// non-zero words in order.
inline void write_record_block(util::ByteWriter& w, const darshan::FileRecord& rec) {
  std::vector<std::uint64_t> words;
  for (const std::int64_t c : rec.counters) words.push_back(static_cast<std::uint64_t>(c));
  for (const double f : rec.fcounters) words.push_back(std::bit_cast<std::uint64_t>(f));
  w.u64(rec.record_id);
  w.u32(static_cast<std::uint32_t>(rec.rank));
  for (std::size_t byte = 0; byte < (words.size() + 7) / 8; ++byte) {
    std::uint8_t bits = 0;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      const std::size_t i = 8 * byte + bit;
      if (i < words.size() && words[i] != 0) bits = static_cast<std::uint8_t>(bits | (1u << bit));
    }
    w.u8(bits);
  }
  for (const std::uint64_t word : words) {
    if (word != 0) w.u64(word);
  }
}

}  // namespace mlio::harness
