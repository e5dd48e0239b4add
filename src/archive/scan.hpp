// MLP-aware segment scan: the per-worker frame decoder behind the archive's
// read path.
//
// scan_frames decodes each frame of a segment — header checks, inflate,
// body CRC — and hands the validated body to its consumer, which is the
// read kernel: the shard builders walk the body in place
// (darshan::walk_log_body) straight into core::Analysis::add, and only the
// LogData wrapper, Archive::scan_partition, materializes a log.
//
// One log at a time, each frame's cache misses would serialize behind the
// previous log's work and the worker would run at memory *latency*.  The
// scan keeps `mlp_depth` logs in flight instead: a batch of K frames is
// decoded first, prefetching frames ahead, then consumed, prefetching the
// next body, so K independent miss chains overlap and the worker approaches
// memory *bandwidth* (DESIGN.md §10).  A depth of 1 is the same loop with a
// batch of one.
//
// Determinism: the consumer is called in exact ingest order and each
// in-flight log owns a private decode slot, so any depth produces
// bit-identical analysis results.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "archive/manifest.hpp"
#include "darshan/log_format.hpp"

namespace mlio::archive {

/// Logs kept in flight per worker by default: the latency→bandwidth knee
/// measured on record-heavy frames (decoded bodies ~25 KB).  Deeper
/// pipelines keep paying off for metadata-heavy scans — tiny frames
/// scattered across a large segment — but crowd the cache once the batch's
/// decoded bodies stop fitting, so the default sits at the knee of the
/// record-heavy case.
inline constexpr unsigned kDefaultMlpDepth = 2;

struct ScanOptions {
  /// Logs in flight per worker; values above the knee buy nothing but stay
  /// correct.  0 is clamped to 1.
  unsigned mlp_depth = kDefaultMlpDepth;
};

/// Reusable decode state for scan_frames: the codec buffers persist across
/// frames (and across partitions when the caller keeps the scratch), so a
/// cold shard rebuild decodes with no per-log allocation.
struct ScanScratch {
  /// One decode slot per in-flight log; grown on use to min(mlp_depth, the
  /// scanned partition's log count).
  struct Slot {
    darshan::LogIoBuffers io;
    std::span<const std::byte> body;  ///< decoded body, valid until the slot's next decode
  };
  std::vector<Slot> slots;

  /// The LogData wrapper's state (Archive::scan_partition): the log it
  /// materializes each body into, and the walk and record pool behind it.
  darshan::LogData log;
  darshan::LogIoBuffers io;
};

/// Decode `entries` over an in-memory segment in entry order, calling `fn`
/// once per frame with its validated (inflated, CRC-checked) body; the span
/// is valid only during the call.  `min_offset` is the first byte entries
/// may touch (the segment header size; 0 for a headerless buffer).  Throws
/// FormatError on an entry out of bounds or a malformed frame; `label` is
/// the object named in those errors ("partition 3").
void scan_frames(std::span<const std::byte> segment, std::span<const IndexEntry> entries,
                 std::uint64_t min_offset,
                 const std::function<void(std::span<const std::byte>)>& fn,
                 ScanScratch& scratch, const ScanOptions& opts, const std::string& label);

}  // namespace mlio::archive
