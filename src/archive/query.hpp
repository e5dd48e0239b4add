// Incremental, snapshot-cached query engine over a partitioned archive.
//
// Every answer is one job: resolve one core::Analysis shard per partition —
// the cached snapshot when it is valid (present, CRC-clean, stamped with the
// partition's current data generation), otherwise a rescan of the segment —
// then fold the shards in manifest partition order.  resolve_shard below is
// the one implementation of the first half; query_archive (every
// partition), query_window (a partition suffix) and the archive service
// (service/service.hpp, with its shard cache in front) all call it.
//
// Determinism contract (DESIGN.md §6, §12): a partition's shard is the
// sequential accumulation of its logs in ingest order, and shards merge in
// partition order.  Rescans are therefore bit-identical to the snapshots
// they replace, so the query result never depends on cache state, thread
// count, or which partitions happened to need a rescan.  Both query entry
// points resolve partitions in parallel through
// ThreadPool::parallel_for_dynamic (one partition per block), and the final
// merge runs as a fixed-shape tree (Analysis::merge_ordered) whose bits are
// pinned to the serial partition-order fold.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "archive/archive.hpp"
#include "core/analysis.hpp"
#include "core/load_timeline.hpp"
#include "util/error.hpp"

namespace mlio::archive {

/// Thrown when a query pinned at manifest generation G loses the race with a
/// concurrent compaction: the pinned manifest references segment files that a
/// newer generation's garbage collection already deleted.  The archive itself
/// is healthy — the caller should reopen (or re-pin) and retry at the current
/// generation.  Distinct from IoError/FormatError so front ends can report
/// "retry" instead of "corruption" (mlio_archive exits 4 on it).
class StaleReadError : public util::Error {
 public:
  StaleReadError(std::uint64_t pinned_generation, std::uint64_t current_generation,
                 std::uint64_t partition_id)
      : util::Error("stale read: partition " + std::to_string(partition_id) +
                    " of manifest generation " + std::to_string(pinned_generation) +
                    " was removed by a concurrent compaction (archive is now at generation " +
                    std::to_string(current_generation) + "); reopen and retry the query"),
        pinned_generation_(pinned_generation),
        current_generation_(current_generation),
        partition_id_(partition_id) {}

  std::uint64_t pinned_generation() const { return pinned_generation_; }
  std::uint64_t current_generation() const { return current_generation_; }
  std::uint64_t partition_id() const { return partition_id_; }

 private:
  std::uint64_t pinned_generation_;
  std::uint64_t current_generation_;
  std::uint64_t partition_id_;
};

struct QueryOptions {
  unsigned threads = 0;  ///< 0 = hardware concurrency
  /// Write rebuilt shards back as snapshots so the next query is all cache
  /// hits.
  bool write_snapshots = true;
  /// Logs in flight per worker during cold rebuilds (scan.hpp).  Results
  /// are bit-identical at any depth.
  unsigned mlp_depth = kDefaultMlpDepth;
};

/// Reusable decode and analysis state for resolve_shard: one per resolving
/// thread, reused across partitions and queries so warm rebuilds allocate
/// nothing per log.  `phases`, when engaged, collects decode and analyze
/// time; left empty, a rebuild makes no clock calls.
struct ShardScratch {
  /// Wall-clock of the rebuilds, per phase.
  struct Phases {
    double decode_seconds = 0;   ///< frame decode: inflate + body CRC
    double analyze_seconds = 0;  ///< walk + summarize + accumulate
  };
  Archive::ScanScratch scan;
  darshan::LogBody body;  ///< the walk of the body being analyzed
  core::AnalyzeScratch analyze;
  std::optional<Phases> phases;
};

/// Per-worker scratch for query_archive, indexed by the pool's dense worker
/// slot; it grows to the largest thread count seen, so one instance serves
/// any sequence of queries from one querying thread.
using QueryScratch = std::vector<ShardScratch>;

/// Per-query telemetry.  This is the ONE aggregation vocabulary for the
/// query engine and the archive service: the service's per-request stats
/// embed a QueryStats, and every consumer (the service, perfbench, the CLI)
/// folds instances together through merge() and reads the hit rate
/// through cache_hit_rate() — never through ad-hoc field sums — so "cache
/// hit rate" means exactly one thing everywhere.
struct QueryStats {
  std::uint64_t partitions = 0;         ///< partitions in the queried manifest
  std::uint64_t cache_hits = 0;         ///< shards served from the in-memory shared cache
  std::uint64_t snapshot_hits = 0;      ///< shards served from on-disk snapshots
  std::uint64_t partitions_scanned = 0; ///< shards rebuilt from segments
  std::uint64_t logs_scanned = 0;       ///< logs decoded during rebuilds
  std::uint64_t snapshots_written = 0;  ///< shards written back
  /// Generation-delta accounting (service memoization + query merge path).
  std::uint64_t merged_hits = 0;        ///< whole queries served from the merged-result cache
  std::uint64_t prefix_merges = 0;      ///< queries answered by extending a cached prefix
  std::uint64_t full_merges = 0;        ///< queries that merged every shard
  std::uint64_t partitions_reused = 0;  ///< shards skipped thanks to a memoized prefix
  std::uint64_t tree_merges = 0;        ///< full merges that ran the parallel tree
  double scan_seconds = 0;   ///< snapshot loads + parallel rebuilds (+ snapshot writeback)
  double merge_seconds = 0;  ///< partition-ordered shard merging
  double total_seconds = 0;
  /// Per-phase cost of the cold rebuilds, summed across workers — CPU
  /// seconds, not wall clock, so with N threads the sum can exceed
  /// scan_seconds.  All zero when every shard came from a snapshot.
  double decode_seconds = 0;   ///< frame decode: inflate + body CRC
  double analyze_seconds = 0;  ///< the read kernel: walk + summarize + accumulate

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

struct QueryResult {
  core::Analysis analysis;
  QueryStats stats;
};

/// Resolve one partition's shard: its valid snapshot, else a rescan of its
/// segment at `mlp_depth`, each validated body walked straight into the
/// shard (Analysis::add of a LogBody).  The shard is built in place in
/// shared storage, its sample cells value-ordered once, ready for a cache
/// to keep and for merges to read without a copy.  Counts the outcome into `stats`
/// (snapshot_hits, or partitions_scanned and logs_scanned).  Throws what
/// scan_bodies throws on a damaged or vanished segment, untranslated: only
/// query_partitions classifies a lost compaction race as StaleReadError.
/// Safe to call concurrently for any partitions, each caller with its own
/// scratch.
std::shared_ptr<const core::Analysis> resolve_shard(const Archive& archive,
                                                    const PartitionInfo& partition,
                                                    ShardScratch& scratch, unsigned mlp_depth,
                                                    QueryStats& stats);

QueryResult query_archive(Archive& archive, const QueryOptions& opts = {});

/// Scratch-reuse variant: per-worker buffers come from (and persist in)
/// `scratch`.  Stats still cover only this query.
QueryResult query_archive(Archive& archive, const QueryOptions& opts, QueryScratch& scratch);

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

/// Fold ONLY the selected suffix's shards (valid snapshot else rescan), in
/// manifest order — the windowed Table 2.  Cost is proportional to the
/// window, not the archive.  The same pooled resolve-and-merge as
/// query_archive, on `opts.threads` workers; writes no snapshots whatever
/// `opts.write_snapshots` says.  `selection`, when non-null, receives the
/// evaluated WindowSelection.
QueryResult query_window(Archive& archive, std::uint64_t last_windows,
                         const QueryOptions& opts = {}, WindowSelection* selection = nullptr);

/// Ops-view consumer of a window selection: replay the selected partitions'
/// logs into a LoadTimeline (core/load_timeline.hpp).  `m` must be the
/// manifest the selection was computed from (the service passes a pinned
/// manifest; the CLI passes archive.manifest()).
core::LoadTimeline window_timeline(const Archive& archive, const Manifest& m,
                                   const WindowSelection& sel, std::int64_t horizon_seconds,
                                   std::size_t n_buckets);

}  // namespace mlio::archive
