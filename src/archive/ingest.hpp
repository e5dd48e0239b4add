// Ingest paths into the archive: the synthetic workload pipeline and
// directories of standalone Darshan log files.
//
// Both paths build partitions over the same deterministic cuts as ever —
// the cut list is a pure function of (n_jobs, batches) — but publish them
// as ONE group: every partition of an ingest call is staged to disk first
// and registered by a single Archive::commit_group manifest write (one
// generation bump, one fsync-rename-dirsync per call).  The generated path
// splits each cut into job blocks (wl::plan_blocks) and builds them through
// wl::build_in_order on one pool of `ingest_threads` workers (generate,
// execute, serialize, deflate, optional block shard — pure compute via
// wl::serialize_block); the calling thread takes the blocks in (cut, block)
// order, appends their frames, and stages each partition at its cut's last
// block.  All file I/O stays on the
// calling thread in partition-id order, so the VFS op sequence — and the
// archive bytes — are identical at every thread count (DESIGN.md §13).
// A util::Error before the group commit removes, best effort, the files of
// every partition the call staged, so a failed ingest leaves the directory
// as it found it.  A failing commit_group leaves them: its manifest rename
// may already have landed.
#pragma once

#include <cstdint>
#include <filesystem>
#include <vector>

#include "archive/archive.hpp"
#include "workload/pipeline.hpp"

namespace mlio::archive {

struct IngestOptions {
  /// Split the generator's bulk stratum into this many partitions (ingest
  /// batches); jobs are divided as evenly as possible, in index order.
  std::uint64_t batches = 1;
  /// Append the full-scale >1 TB hero stratum as one final partition.
  bool include_huge = true;
  /// Compute each partition's analysis shard while ingesting and cache it,
  /// so the very first query is all snapshot hits.  Costs one extra decode
  /// per log (the shard must be accumulated from decoded logs in ingest
  /// order — exactly what a rescan would compute).
  bool write_snapshots = false;
  /// Block build workers of ingest_generated; 0 = hardware concurrency.
  /// Archive bytes are identical at every setting.
  unsigned ingest_threads = 0;
  /// Upper bound on logs per partition for ingest_log_files (0 = none):
  /// the file list is split into max(batches, ceil(n / bound)) even shards.
  std::uint64_t max_logs_per_partition = 0;
};

/// Phase timings: the *_ns phases are CPU time summed across build workers
/// (thread-ns, not wall clock), except publish_ns which is wall time on the
/// committing thread.
struct IngestStats {
  std::uint64_t partitions = 0;
  std::uint64_t groups = 0;  ///< manifest commits (generation bumps)
  std::uint64_t logs = 0;
  std::uint64_t bytes = 0;  ///< segment payload bytes appended
  std::uint64_t serialize_ns = 0;  ///< generate + simulate
  std::uint64_t compress_ns = 0;   ///< frame + deflate
  std::uint64_t snapshot_ns = 0;   ///< shard accumulate + snapshot encode
  std::uint64_t publish_ns = 0;    ///< stage files + manifest commit (wall)
  double seconds = 0;

  double logs_per_second() const {
    return seconds > 0 ? static_cast<double>(logs) / seconds : 0;
  }
};

/// Generate the workload and append it as `batches` (+ optional huge)
/// partitions, committed as one group.  Log order within a partition is
/// exact generation order; the archive bytes are bit-identical at every
/// ingest_threads setting.
IngestStats ingest_generated(Archive& archive, const wl::WorkloadGenerator& gen,
                             const IngestOptions& opts = {});

/// Append existing on-disk Darshan logs (e.g. a facility's daily drop
/// directory), sharded into partitions per `batches` /
/// `max_logs_per_partition` and committed as one group.  Files are read in
/// the given order; each must parse (throws FormatError otherwise — corrupt
/// inputs never enter the archive).
IngestStats ingest_log_files(Archive& archive, const std::vector<std::filesystem::path>& files,
                             const IngestOptions& opts = {});

}  // namespace mlio::archive
