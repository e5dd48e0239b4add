// MLP-aware segment scan: the per-worker decode engine behind
// Archive::scan_partition.
//
// A depth-1 scan walks one dependent chain per log — decode the frame,
// parse the body, feed the analysis — so every cache miss serializes
// behind the previous one and the worker runs at memory *latency*.  The
// pipelined scan keeps `mlp_depth` logs in flight instead: a batch of K
// frames is driven through three stage loops (frame decode/inflate+CRC,
// body parse, consume), each stage prefetching the next item's bytes while
// working on the current one, so K independent miss chains overlap and the
// worker approaches memory *bandwidth* (DESIGN.md §10).
//
// Determinism: stages never reorder logs — the consume stage fires the
// callback in exact ingest order, and each in-flight log owns a private
// decode slot — so any depth produces bit-identical analysis results, and
// `mlp_depth = 1` runs the seed's loop verbatim.
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
/// record-heavy case and the knob covers the rest.
inline constexpr unsigned kDefaultMlpDepth = 2;

struct ScanOptions {
  /// Logs in flight per worker.  1 = the seed's one-log-at-a-time loop
  /// (bit-identical baseline lane); values above the knee buy nothing but
  /// stay correct.  0 is clamped to 1.
  unsigned mlp_depth = kDefaultMlpDepth;
};

/// Reusable decode state for scan_frames: the LogData and codec buffers
/// persist across frames (and across partitions when the caller keeps the
/// scratch), so a cold shard rebuild parses with no per-log allocation.
struct ScanScratch {
  darshan::LogData log;        ///< depth-1 lane's single in-flight log
  darshan::LogIoBuffers io;
  /// Wall-clock spent inside the frame decoder is added here.  Non-owning;
  /// null disables timing, so an untimed scan makes no clock calls.
  double* parse_seconds = nullptr;

  /// One decode slot per in-flight log for the pipelined lane; grown on
  /// use to min(mlp_depth, the scanned partition's log count).
  struct Slot {
    darshan::LogData log;
    darshan::LogIoBuffers io;
    std::span<const std::byte> body;  ///< stage-1 output, stage-2 input
  };
  std::vector<Slot> slots;
};

/// Replay `entries` over an in-memory segment in entry order, calling `fn`
/// once per decoded log.  `min_offset` is the first byte entries may touch
/// (the segment header size; 0 for a headerless buffer).  Throws
/// FormatError on an entry out of bounds or a malformed frame; `label` is
/// the object named in those errors ("partition 3").
void scan_frames(std::span<const std::byte> segment, std::span<const IndexEntry> entries,
                 std::uint64_t min_offset,
                 const std::function<void(const darshan::LogData&)>& fn, ScanScratch& scratch,
                 const ScanOptions& opts, const std::string& label);

}  // namespace mlio::archive
