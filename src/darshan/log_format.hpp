// On-disk Darshan-style log format.
//
// Layout (fixed-width integers little-endian):
//
//   u32  magic            "DSHN" (0x4e485344)
//   u16  version          currently 3
//   u16  flags            bit 0: body is zlib-compressed (the writer always
//                         sets it; a frame without it, as builds with an
//                         uncompressed option wrote, is still read)
//   u32  crc32            of the uncompressed body
//   u64  body_size        uncompressed body size in bytes
//   u64  stored_size      size of the (possibly compressed) body that follows
//   []   body
//
// Body (self-describing):
//   job record, mount table, name map, then one region per module that has
//   records: { u8 module, u32 counter_count, u32 fcounter_count,
//   u32 record_count, records... }, then the DXT region.
//
// Record block (version 3): u64 record_id, the rank as a zigzag LEB128
// varint, then a bitmap of the record's non-zero words, then only those
// words.  The words are the module's counters followed by its fcounters
// (word nc + i is fcounter i), so the bitmap is ceil((nc + nf) / 8) bytes,
// word i at bit i % 8 of byte i / 8 (every module has at most 64 words).
// A stored counter is a zigzag LEB128 varint (seven bits per byte, low
// group first, the high bit set on every byte but the last; zigzag maps
// 0, -1, 1, -2, ... to 0, 1, 2, 3, ...), and a stored fcounter is its
// 8-byte bit pattern.  A word is zero when its bit pattern is: -0.0 is
// non-zero and is stored.  Each record has exactly one encoding: the rank
// is a minimal varint of an int32; no bit at or beyond nc + nf; a counter
// varint is at most 10 bytes, its 10th byte at most 1 and its last byte
// non-zero (which rejects an overlong varint and a stored zero at once);
// and no stored fcounter word is zero.  Most counters of a production
// record are zero and most of the rest are small, so the v3 block is about
// two thirds of v2's (which stored each set word in 8 bytes) and a third of
// v1's dense one.  Versions 1 and 2 are not read.
//
// Like real Darshan logs, a file is written once at job end and read by
// analysis tooling, whole and in order, never at random.  Write and read
// costs are weighed by how often a stored log is inflated: the archive
// answers queries from per-partition snapshots, so a log is inflated once
// per snapshot build (the first query after ingest, and again after each
// compaction that merges its partition) and once per deep verify, a handful
// of times over its life (DESIGN §10 counts them).  The record block and
// the default deflate level are picked on CPU per log over that one write
// and those few reads, then on compactness.
//
// The body has one encoder, exported piece by piece (write_job ...
// write_record_block ... write_dxt_region): write_log_body composes it for
// a LogData, and darshan::Runtime::write_body composes it for the
// runtime's record table, so the ingest path frames (frame_log_body)
// bodies that were never a LogData.  Both give the same bytes for the same
// log.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string_view>
#include <vector>

#include "darshan/record.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/flat_map.hpp"

namespace mlio::darshan {

inline constexpr std::uint32_t kLogMagic = 0x4e485344;  // "DSHN"
inline constexpr std::uint16_t kLogVersion = 3;
inline constexpr std::uint16_t kFlagCompressed = 0x1;

/// Population count, inline: on a baseline x86-64 build (no POPCNT)
/// std::popcount is a call into libgcc, and the record accessors below
/// count bits on every stored-word read.
inline int popcount64(std::uint64_t x) {
#if defined(__POPCNT__) || !defined(__x86_64__)
  return std::popcount(x);
#else
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
  return static_cast<int>((x * 0x0101010101010101ull) >> 56);
#endif
}

/// One file record of a walked body: the bitmap of its stored words and a
/// pointer to those words, which the walk decoded into LogBody::words (8
/// little-endian bytes each, in word order).  Same accessor names as
/// FileRecord, so code written against one record type reads the other.
struct RecordView {
  std::uint64_t record_id = 0;
  std::int32_t rank = kSharedRank;
  ModuleId module = ModuleId::kPosix;
  std::uint8_t n_counters = 0;     ///< bit of fcounter 0 in `mask`
  std::uint64_t mask = 0;          ///< bit i set: word i is stored (non-zero)
  const std::byte* values = nullptr;  ///< popcount(mask) words, in word order

  std::int64_t c(std::size_t idx) const { return static_cast<std::int64_t>(word(idx)); }
  double f(std::size_t idx) const { return std::bit_cast<double>(word(n_counters + idx)); }

  /// Word `idx` of the record: 0 when its bit is clear, else the stored word
  /// after the popcount(mask below idx) words stored before it.
  std::uint64_t word(std::size_t idx) const {
    const std::uint64_t bit = std::uint64_t{1} << idx;
    if ((mask & bit) == 0) return 0;
    return util::load_le<std::uint64_t>(values + 8 * popcount64(mask & (bit - 1)));
  }
};

/// One DXT trace segment of a walked body; `events` points at `n_events`
/// packed events of kDxtEventBytes each.
struct DxtView {
  std::uint64_t record_id = 0;
  ModuleId module = ModuleId::kPosix;
  std::uint32_t n_events = 0;
  const std::byte* events = nullptr;
};

/// On-disk size of one DXT event: op u8, rank u32, offset u64, length u64,
/// start f64, end f64.
inline constexpr std::size_t kDxtEventBytes = 37;

/// A log body validated and indexed in one pass: the job record, the mount
/// table and the records' stored words are decoded (their storage is reused
/// across logs), the names and DXT events are views into the body bytes and
/// are valid only while those bytes are.  Move-only: the record views point
/// into `words`, which a copy would not carry along.
struct LogBody {
  LogBody() = default;
  LogBody(const LogBody&) = delete;
  LogBody& operator=(const LogBody&) = delete;
  LogBody(LogBody&&) = default;
  LogBody& operator=(LogBody&&) = default;

  JobRecord job;
  std::vector<MountEntry> mounts;
  /// Record id -> path, first entry wins for a repeated id (as in
  /// LogData::names); insertion order is the body's name order.
  util::FlatU64Map<std::string_view> names;
  std::vector<RecordView> records;  ///< body order: module regions, then records
  /// Every record's stored words in body order, counters decoded from their
  /// varints; each RecordView::values points at its record's first word.
  /// Only grows: the words past the last record's are left over.
  std::vector<std::uint64_t> words;
  std::vector<DxtView> dxt;

  /// Path for a record id, or empty view if unknown.
  std::string_view path_of(std::uint64_t record_id) const {
    const std::string_view* p = names.find(record_id);
    return p != nullptr ? *p : std::string_view{};
  }
};

/// The one body parser: walk `body` (an inflated, CRC-checked log body, as
/// read_log_frame_body returns) into `out`.  Its checks define the body
/// format: element counts against the bytes left, module ids, each region's
/// counter layout, each record block's one encoding (a minimal int32 rank,
/// no bitmap bit beyond the module's words, each counter a minimal varint
/// of at most 10 bytes and not zero, no zero fcounter word, the set words
/// within the bytes left), the DXT structure and no trailing bytes.  Throws
/// FormatError on the first violation; `out` is then unspecified.
void walk_log_body(std::span<const std::byte> body, LogBody& out);

/// Scratch buffers for the allocation-free codec entry points below.  One
/// instance per worker thread: every buffer (body, framed output, compressed
/// payload, zlib stream state) is grown once and reused across logs.
struct LogIoBuffers {
  util::ByteWriter body;             ///< uncompressed body under construction
  util::ByteWriter frame;            ///< header + payload (the on-disk bytes)
  std::vector<std::byte> packed;     ///< compressed payload (write path)
  std::vector<std::byte> unpacked;   ///< decompressed body (read path)
  util::Deflater deflater;
  util::Inflater inflater;
  /// Per-module record buckets for write_log_body's region grouping, in
  /// numeric ModuleId order; reused across logs.
  std::array<std::vector<const FileRecord*>, kModuleCount> module_buckets;
  /// The walk under read_log_body_into, reused across logs.
  LogBody walked;
  /// Husk pool for read_log_body_into: when a parsed log has fewer records than
  /// the previous one, the tail records (and their counter storage) park
  /// here instead of being destroyed, so record counts varying across logs
  /// cost moves, not allocations.  Bounded by the largest log seen.
  std::vector<FileRecord> record_pool;
};

/// The body encoder, piece by piece in body order: job record, mount table,
/// name map, `n_regions` (u32) and each module region (its header, then its
/// record blocks), then the DXT region.  write_log_body composes them for a
/// LogData; darshan::Runtime composes them for its record table.  Either way
/// a log has one body encoding.
void write_job(util::ByteWriter& w, const JobRecord& job);
void write_mounts(util::ByteWriter& w, std::span<const MountEntry> mounts);
/// The name map in the iteration order of `names` (any map of record id to
/// path): a u32 count, then each id and its path.
template <class Names>
void write_names(util::ByteWriter& w, const Names& names) {
  w.u32(static_cast<std::uint32_t>(names.size()));
  for (const auto& [id, path] : names) {
    w.u64(id);
    w.str(path);
  }
}
void write_region_header(util::ByteWriter& w, ModuleId module, std::uint32_t n_records);
/// One record block.  `words` are the record's words as RecordView::word
/// reads them: its module's counters (two's complement), then its fcounters'
/// bit patterns; the first `n_counters` are counters.
void write_record_block(util::ByteWriter& w, std::uint64_t record_id, std::int32_t rank,
                        std::span<const std::uint64_t> words, std::size_t n_counters);
void write_dxt_region(util::ByteWriter& w, std::span<const DxtRecord> dxt);

/// The uncompressed body of `log`: its records grouped into module regions
/// in numeric ModuleId order, in their LogData order within a region.
void write_log_body(util::ByteWriter& w, const LogData& log, LogIoBuffers& io);

/// Frame the body in `io.body`: CRC-32 it, deflate it and write the header
/// and payload into `io.frame`.  Returns the framed bytes, valid until the
/// next write into the same `io`.
std::span<const std::byte> frame_log_body(LogIoBuffers& io);

/// Serialize a log to bytes / a file.  The body is always deflated, with
/// util/deflate_fast.hpp's one setting.
std::vector<std::byte> write_log_bytes(const LogData& log);
void write_log_file(const LogData& log, const std::filesystem::path& path);

/// Buffer-reuse variant: write_log_body into `io.body`, then frame_log_body.
/// Returns a view of the framed bytes, valid until the next write into the
/// same `io`.
std::span<const std::byte> write_log_bytes_into(const LogData& log, LogIoBuffers& io);

/// Parse a log from bytes / a file.  Throws FormatError on malformed input
/// (bad magic, version, CRC, truncated regions, counter-count mismatches,
/// a record block with more than one encoding).
LogData read_log_bytes(std::span<const std::byte> data);
LogData read_log_file(const std::filesystem::path& path);

/// Buffer-reuse variant: parses into `out`, recycling its record vectors
/// (including each record's counter storage) instead of reallocating.  `out`
/// may be the very LogData that produced `data` via write_log_bytes_into —
/// the source is fully framed into `io` before parsing begins.
void read_log_bytes_into(std::span<const std::byte> data, LogIoBuffers& io, LogData& out);

/// Stage split of read_log_bytes_into.  The archive's scan decodes frames
/// with read_log_frame_body and hands the bodies to the analysis kernel,
/// which walks them in place (walk_log_body) without building a LogData.
///
/// read_log_frame_body validates the frame header, decompresses (or, for an
/// uncompressed frame, aliases) the body, and verifies its CRC; the returned
/// view is valid until the next decode into the same `io` (for an
/// uncompressed frame it aliases `data`, which must outlive the parse).
/// read_log_body_into walks a body so obtained and materializes the walk
/// into `out`.  Composing the two with the same `io` is exactly
/// read_log_bytes_into.
std::span<const std::byte> read_log_frame_body(std::span<const std::byte> data,
                                               LogIoBuffers& io);
void read_log_body_into(std::span<const std::byte> body, LogIoBuffers& io, LogData& out);

}  // namespace mlio::darshan
