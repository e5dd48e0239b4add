// Framed on-disk container for a serialized core::Analysis.
//
// Layout (all integers little-endian, mirroring the Darshan log frame):
//
//   u32  magic            "MSNP" (0x504e534d)
//   u16  version          currently 2 (1: double sums, reservoir samples)
//   u16  flags            bit 0: body is zlib-compressed (always set; a
//                         snapshot without it is rejected, which costs a
//                         rescan of its partition)
//   u64  tag              caller-defined (the archive stores the partition's
//                         data generation here to detect stale snapshots)
//   u32  crc32            of the uncompressed body
//   u64  body_size        uncompressed body size in bytes
//   u64  stored_size      size of the compressed body that follows
//   []   body             Analysis::save byte stream, deflated with the
//                         log frames' one setting (util/deflate_fast.hpp)
//
// The body is canonical (Analysis::save sorts its unordered containers), so
// equal analysis states produce byte-identical snapshot files — the archive
// e2e test leans on that to prove cached and recomputed shards are the same.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/analysis.hpp"

namespace mlio::core {

inline constexpr std::uint32_t kSnapshotMagic = 0x504e534d;  // "MSNP"
inline constexpr std::uint16_t kSnapshotVersion = 2;
inline constexpr std::uint16_t kSnapshotFlagCompressed = 0x1;

/// Serialize `analysis` into a framed snapshot tagged with `tag`.
std::vector<std::byte> write_snapshot_bytes(const Analysis& analysis, std::uint64_t tag);

/// Parse a framed snapshot.  Throws util::FormatError on bad magic, version,
/// an uncompressed body, CRC, or a malformed body.  `tag` (optional)
/// receives the stored tag.
Analysis read_snapshot_bytes(std::span<const std::byte> data, std::uint64_t* tag = nullptr);

/// Uncompressed serialized size of an analysis — the canonical byte weight a
/// resident Analysis is charged against a memory budget (the service's
/// shared shard cache uses it; the heap footprint tracks it closely because
/// Analysis::save writes every accumulator verbatim).
std::uint64_t serialized_analysis_bytes(const Analysis& analysis);

}  // namespace mlio::core
