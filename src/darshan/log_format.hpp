// On-disk Darshan-style log format.
//
// Layout (all integers little-endian):
//
//   u32  magic            "DSHN" (0x4e485344)
//   u16  version          currently 1
//   u16  flags            bit 0: body is zlib-compressed
//   u32  crc32            of the uncompressed body
//   u64  body_size        uncompressed body size in bytes
//   u64  stored_size      size of the (possibly compressed) body that follows
//   []   body
//
// Body (self-describing):
//   job record, mount table, name map, then one region per module that has
//   records: { u8 module, u32 record_count, records... }.
//
// Like real Darshan logs, a file is written once at job end and read many
// times by analysis tooling, so the format optimizes for decode speed and
// compactness, not random access.
#pragma once

#include <array>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "darshan/record.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"

namespace mlio::darshan {

inline constexpr std::uint32_t kLogMagic = 0x4e485344;  // "DSHN"
inline constexpr std::uint16_t kLogVersion = 1;
inline constexpr std::uint16_t kFlagCompressed = 0x1;

struct WriteOptions {
  bool compress = true;
  int zlib_level = 6;
};

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
  /// Per-module record buckets for write_body's region grouping (numeric
  /// ModuleId order equals the old std::map order, so emitted bytes are
  /// unchanged); reused across logs.
  std::array<std::vector<const FileRecord*>, kModuleCount> module_buckets;
  /// Husk pool for read_body_into: when a parsed log has fewer records than
  /// the previous one, the tail records (and their counter storage) park
  /// here instead of being destroyed, so record counts varying across logs
  /// cost moves, not allocations.  Bounded by the largest log seen.
  std::vector<FileRecord> record_pool;
};

/// Serialize a log to bytes / a file.
std::vector<std::byte> write_log_bytes(const LogData& log, const WriteOptions& opts = {});
void write_log_file(const LogData& log, const std::filesystem::path& path,
                    const WriteOptions& opts = {});

/// Buffer-reuse variant: serializes into `io` and returns a view of the
/// framed bytes, valid until the next write into the same `io`.
std::span<const std::byte> write_log_bytes_into(const LogData& log, LogIoBuffers& io,
                                                const WriteOptions& opts = {});

/// Parse a log from bytes / a file.  Throws FormatError on malformed input
/// (bad magic, version, CRC, truncated regions, counter-count mismatches).
LogData read_log_bytes(std::span<const std::byte> data);
LogData read_log_file(const std::filesystem::path& path);

/// Buffer-reuse variant: parses into `out`, recycling its record vectors
/// (including each record's counter storage) instead of reallocating.  `out`
/// may be the very LogData that produced `data` via write_log_bytes_into —
/// the source is fully framed into `io` before parsing begins.
void read_log_bytes_into(std::span<const std::byte> data, LogIoBuffers& io, LogData& out);

/// Stage split of read_log_bytes_into, used by the archive's software-
/// pipelined scan so frame decode and body parse of *different* logs can be
/// kept in flight together.
///
/// read_log_frame_body validates the frame header, decompresses (or, for an
/// uncompressed frame, aliases) the body, and verifies its CRC; the returned
/// view is valid until the next decode into the same `io` (for an
/// uncompressed frame it aliases `data`, which must outlive the parse).
/// read_log_body_into parses a body so obtained.  Composing the two with the
/// same `io` is exactly read_log_bytes_into.
std::span<const std::byte> read_log_frame_body(std::span<const std::byte> data,
                                               LogIoBuffers& io);
void read_log_body_into(std::span<const std::byte> body, LogIoBuffers& io, LogData& out);

}  // namespace mlio::darshan
