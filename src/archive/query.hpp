// The archive's shard resolver and window selection, the pieces the query
// engine (service/service.hpp, ArchiveService) is built from.
//
// Every answer is one job: resolve one core::Analysis shard per partition —
// the cached snapshot when it is valid (present, CRC-clean, stamped with the
// partition's current data generation), otherwise a rescan of the segment —
// then fold the shards in manifest partition order.  resolve_shard below is
// the one implementation of the first half; ArchiveService puts its shard
// cache in front of it, resolves partitions on its merge pool, and folds
// them with Analysis::merge_ordered.
//
// Determinism contract (DESIGN.md §6, §12): a partition's shard is the
// sequential accumulation of its logs in ingest order, and shards merge in
// partition order.  Rescans are therefore bit-identical to the snapshots
// they replace, so the answer never depends on cache state, thread count,
// or which partitions happened to need a rescan.
#pragma once

#include <memory>
#include <vector>

#include "archive/archive.hpp"
#include "core/analysis.hpp"
#include "core/load_timeline.hpp"

namespace mlio::archive {

/// Reusable decode and analysis state for resolve_shard: one per resolving
/// thread, reused across partitions and queries so warm rebuilds allocate
/// nothing per log.
struct ShardScratch {
  Archive::ScanScratch scan;
  darshan::LogBody body;  ///< the walk of the body being analyzed
  core::AnalyzeScratch analyze;
};

/// Per-query telemetry.  This is the ONE aggregation vocabulary of the
/// query engine: the service's per-request stats embed a QueryStats, and
/// every consumer (the service, perfbench, the CLI) folds instances
/// together through merge() and reads the hit rate through
/// cache_hit_rate() — never through ad-hoc field sums — so "cache hit rate"
/// means exactly one thing everywhere.
struct QueryStats {
  std::uint64_t partitions = 0;         ///< partitions in the queried manifest
  std::uint64_t cache_hits = 0;         ///< shards served from the in-memory shared cache
  std::uint64_t snapshot_hits = 0;      ///< shards served from on-disk snapshots
  std::uint64_t partitions_scanned = 0; ///< shards rebuilt from segments
  std::uint64_t logs_scanned = 0;       ///< logs decoded during rebuilds
  std::uint64_t snapshots_written = 0;  ///< shards written back
  /// Generation-delta accounting (the service's answer memo and fold).
  std::uint64_t merged_hits = 0;        ///< whole queries served from the merged-result cache
  std::uint64_t prefix_merges = 0;      ///< queries answered by extending a cached prefix
  std::uint64_t full_merges = 0;        ///< queries that merged every shard
  std::uint64_t partitions_reused = 0;  ///< shards skipped thanks to a memoized prefix
  std::uint64_t tree_merges = 0;        ///< full merges that ran the parallel tree
  double total_seconds = 0;             ///< wall clock of the get

  /// Field-wise accumulation (counts and seconds both sum).
  void merge(const QueryStats& other);

  /// Shards resolved by this query, however they were produced.
  std::uint64_t shards_served() const { return cache_hits + snapshot_hits + partitions_scanned; }
  /// Fraction of shards served without a segment rescan (memory + disk
  /// snapshot hits over shards served); 0 when nothing was served.
  double cache_hit_rate() const {
    const std::uint64_t served = shards_served();
    return served ? static_cast<double>(cache_hits + snapshot_hits) /
                        static_cast<double>(served)
                  : 0.0;
  }
};

/// Resolve one partition's shard: its valid snapshot, else a rescan of its
/// segment at the default scan depth, each validated body walked straight
/// into the shard (Analysis::add of a LogBody).  The shard is built in
/// place in shared storage, its sample cells value-ordered once, ready for
/// a cache to keep and for merges to read without a copy.  Counts the
/// outcome into `stats` (snapshot_hits, or partitions_scanned and
/// logs_scanned).  Throws what scan_bodies throws on a damaged or vanished
/// segment (the service retries a vanished one against a fresh manifest).
/// Safe to call concurrently for any partitions, each caller with its own
/// scratch.
std::shared_ptr<const core::Analysis> resolve_shard(const Archive& archive,
                                                    const PartitionInfo& partition,
                                                    ShardScratch& scratch, QueryStats& stats);

/// The partition suffix answering "the last N windows" (DESIGN.md §14).
/// Selection is PARTITION-granular: walking back from the manifest tail,
/// every partition whose window_max reaches the cutoff is included, and the
/// walk stops at the first that does not (batch partitions, window_max 0,
/// always stop it).  At aligned window cuts the suffix is exactly the
/// requested windows; after a leveled merge coarsened history across the
/// cutoff, the suffix honestly widens (windows_covered reports the real
/// span) rather than silently truncating merged logs.  Streaming appends in
/// time order and compaction only merges neighbors, so window ranges are
/// non-decreasing along the partition list and the suffix is well defined;
/// on a hostile manifest the walk still terminates and stays in bounds.
struct WindowSelection {
  std::size_t first = 0;            ///< index of the first selected partition
  std::size_t count = 0;            ///< selected partitions (suffix length)
  std::uint64_t newest_window = 0;  ///< max window id in the manifest (0 = none)
  std::uint64_t cutoff = 0;         ///< oldest window id requested; 0 = whole archive
  std::uint64_t windows_covered = 0;  ///< window span actually selected
  bool whole_archive() const { return first == 0; }
};

/// Pure function of (manifest, last_windows).  last_windows == 0, a request
/// exceeding the archive's window span (out-of-range ids clamp, never
/// overflow), or a manifest with no windowed partitions all select the
/// whole archive.
WindowSelection select_last_windows(const Manifest& m, std::uint64_t last_windows);

/// Ops-view consumer of a window selection: replay the selected partitions'
/// logs into a LoadTimeline (core/load_timeline.hpp).  `m` must be the
/// manifest the selection was computed from: the pinned manifest the
/// windowed answer was folded from.
core::LoadTimeline window_timeline(const Archive& archive, const Manifest& m,
                                   const WindowSelection& sel, std::int64_t horizon_seconds,
                                   std::size_t n_buckets);

}  // namespace mlio::archive
