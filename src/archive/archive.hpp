// Persistent partitioned Darshan log archive (manifest.hpp has the layout).
//
// Write path: `begin_partition()` returns a PartitionWriter; logs are
// appended (already-framed bytes straight from the pipeline sink, or
// LogData via the convenience overload) and buffered in memory; `seal()`
// writes the segment + index files and registers the partition in the
// manifest atomically (temp-file + rename, manifest last), so a crash
// mid-ingest leaves at worst unreferenced files, never a partial partition.
// Batch writers split the same path in two: builders `finish()` pending
// partitions on any thread (pure compute), the committing thread
// `stage_partition_files()` each one and registers the whole batch with a
// single `commit_group()` manifest write — one generation bump per ingest
// batch instead of per partition (DESIGN.md §13).
//
// Read path: `scan_bodies` decodes a partition's frames in ingest order
// (verifying the segment CRC first) for the read kernel, and
// `scan_partition` replays them as parsed logs; `load_snapshot` returns the cached
// analysis shard when it is present, uncorrupted, and stamped with the
// partition's current data generation.  archive/query.hpp resolves one
// partition's shard from these; the query engine on top is the archive
// service (service/service.hpp).
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "archive/manifest.hpp"
#include "archive/scan.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "util/vfs.hpp"

namespace mlio::archive {

/// One planned merge: manifest.partitions[first, first + count) collapse
/// into a single partition at target_level.  The planners (archive/
/// stream.hpp) decide; Archive::compact does.
struct CompactionPlan {
  std::size_t first = 0;
  std::size_t count = 0;
  std::uint32_t target_level = 0;
};

class Archive {
 public:
  /// Create an empty archive (writes an empty manifest).  Throws ConfigError
  /// when the directory already contains a manifest.  Every file operation
  /// of the archive flows through `vfs` (util/vfs.hpp) — the default is the
  /// real filesystem; tests substitute a FaultVfs to inject crashes and
  /// I/O faults.  The Vfs must outlive the Archive (not owned).
  static Archive create(const std::filesystem::path& dir, util::Vfs& vfs = util::real_vfs());
  /// Open an existing archive.  Throws IoError when the manifest is missing,
  /// FormatError when it is corrupt.
  static Archive open(const std::filesystem::path& dir, util::Vfs& vfs = util::real_vfs());
  static Archive open_or_create(const std::filesystem::path& dir,
                                util::Vfs& vfs = util::real_vfs());

  const std::filesystem::path& dir() const { return dir_; }
  const Manifest& manifest() const { return manifest_; }
  util::Vfs& vfs() const { return *vfs_; }

  std::filesystem::path manifest_path() const;
  std::filesystem::path segment_path(std::uint64_t id) const;
  std::filesystem::path index_path(std::uint64_t id) const;
  std::filesystem::path snapshot_path(std::uint64_t id) const;

  /// Re-read the manifest from disk, replacing the in-memory view.  Lets a
  /// long-lived handle observe generations published by another process (the
  /// service uses it to recover when an external compactor deleted files
  /// its pinned manifest still named).  Throws like open().
  void reload();

  /// One fully built but not yet published partition: its manifest entry
  /// plus the exact file payloads (segment, index, optional snapshot) that
  /// stage_partition_files will write.  Produced by PartitionWriter::finish
  /// on any thread — building touches no shared archive state — then staged
  /// and registered on the committing thread (DESIGN.md §13).
  struct PendingPartition {
    PartitionInfo info;
    std::vector<std::byte> segment;   ///< header + frames
    std::vector<std::byte> index;     ///< write_index_bytes output
    std::vector<std::byte> snapshot;  ///< framed shard; empty unless info.has_snapshot

    /// Carry `shard` (the analysis of exactly this partition's logs, in
    /// ingest order) as the partition's snapshot, stamped with
    /// info.data_generation — which the builder must already have set to
    /// the commit's target generation.
    void attach_snapshot(const core::Analysis& shard);
  };

  /// Buffers one partition's logs and seals them into the archive.
  class PartitionWriter {
   public:
    /// Append one already-framed Darshan log (bytes as produced by
    /// darshan::write_log_bytes*).
    void append_frame(const darshan::JobRecord& job, std::span<const std::byte> frame);
    std::uint64_t log_count() const { return entries_.size(); }

    /// Write segment + index, register the partition, and return its info.
    /// The writer is spent afterwards.  Equivalent to
    /// finish + stage_partition_files + a single-partition commit_group —
    /// same files, same bytes, same manifest-last write order.
    PartitionInfo seal();

    /// Close the buffered partition without touching the filesystem or the
    /// manifest: computes the segment CRC, serializes the index, and returns
    /// everything as a PendingPartition (info.data_generation left 0 for
    /// commit_group to stamp; builders that also produce a snapshot stamp it
    /// with the group's target generation themselves).  The writer is spent.
    /// Pure compute — safe to run concurrently with other writers.
    PendingPartition finish();

   private:
    friend class Archive;
    PartitionWriter(Archive& owner, std::uint64_t id);

    Archive* owner_;
    std::uint64_t id_;
    std::vector<std::byte> segment_;  ///< header + frames
    std::vector<IndexEntry> entries_;
    std::uint64_t job_id_min_ = 0;
    std::uint64_t job_id_max_ = 0;
  };
  PartitionWriter begin_partition();
  /// Writer for an explicit partition id, for builders that reserve a
  /// contiguous id range up front (next_partition_id + k) and construct the
  /// partitions in parallel.  Reads no mutable archive state, so concurrent
  /// calls with DISTINCT ids are safe; the ids only become real at
  /// commit_group, which checks they extend the manifest contiguously.
  PartitionWriter begin_partition_at(std::uint64_t id);

  /// Write a pending partition's files (segment, index, snapshot if any)
  /// with the usual atomic temp+rename, WITHOUT touching the manifest — the
  /// partition stays invisible until commit_group registers it.  The staged
  /// payload vectors are released (the scale path keeps at most the
  /// in-flight builds in memory, not the whole batch).  Const because no
  /// in-memory archive state changes; must be called from the committing
  /// thread only (file-op order is part of the crash-sweep contract).
  void stage_partition_files(PendingPartition& p) const;

  /// Register a batch of staged partitions in ONE atomic manifest commit —
  /// a single generation bump and a single fsync-rename-dirsync per ingest
  /// batch, however many partitions it carries.  Requirements (ConfigError
  /// otherwise): ids are contiguous from next_partition_id in order, and any
  /// generation stamp a builder already placed (data_generation, snapshot
  /// fields) equals generation + 1 — a stale stamp means the manifest moved
  /// under the builder.  A crash before the manifest rename leaves every
  /// staged file unreferenced: readers see whole groups or nothing.
  /// Returns the registered infos; an empty group is a no-op.
  std::vector<PartitionInfo> commit_group(std::span<const PendingPartition> group);

  /// Reusable decode state for scan_partition (scan.hpp); kept as a nested
  /// alias because the shard resolver and tests name it through the Archive.
  using ScanScratch = archive::ScanScratch;

  /// Decode a partition's frames in ingest order, calling `fn` with each
  /// validated log body (scan.hpp) — the read kernel's input.  Verifies the
  /// segment file's CRC and the index before the first callback; throws
  /// FormatError on any corruption (a truncated or bit-flipped segment never
  /// yields a body).  `opts.mlp_depth` logs are in flight per worker; any
  /// depth yields the same bodies in the same order.
  void scan_bodies(const PartitionInfo& p,
                   const std::function<void(std::span<const std::byte>)>& fn,
                   ScanScratch& scratch, const ScanOptions& opts) const;

  /// Replay a partition's logs in ingest order: scan_bodies, with each body
  /// materialized into a LogData owned by the scratch.  Throws what
  /// scan_bodies throws.
  void scan_partition(const PartitionInfo& p, const std::function<void(const darshan::LogData&)>& fn,
                      ScanScratch& scratch, const ScanOptions& opts) const;

  /// Load the partition's cached analysis shard, or nullopt when the
  /// snapshot is missing, corrupt (CRC/parse), or stale
  /// (snapshot_generation != data_generation).  Invalid snapshots are never
  /// silently used — callers fall back to scan_partition.
  std::optional<core::Analysis> load_snapshot(const PartitionInfo& p) const;

  /// One snapshot file written ahead of its manifest registration — the
  /// two-phase write path: workers emit files concurrently with
  /// write_snapshot_file (no shared state touched), then a single
  /// commit_snapshots call registers the batch under ONE generation bump.
  struct SnapshotReceipt {
    std::uint64_t partition_id = 0;
    std::uint64_t data_generation = 0;  ///< stamp the file was written under
    std::uint32_t crc = 0;              ///< CRC of the framed snapshot bytes
  };

  /// Write the partition's snapshot file (atomic temp+rename) without
  /// touching the manifest.  Safe to call concurrently for DISTINCT
  /// partitions; the snapshot stays invisible to readers until committed
  /// (load_snapshot checks the manifest stamp, and the old file, if any, is
  /// only replaced at the rename).
  SnapshotReceipt write_snapshot_file(const PartitionInfo& p, const core::Analysis& shard) const;

  /// Register previously written snapshot files in one atomic manifest
  /// commit (a single generation bump, manifest-last).  Receipts whose
  /// partition vanished or whose data generation no longer matches are
  /// skipped — the partition was rewritten after the file was produced, so
  /// the stale file is simply never referenced.  Returns the number
  /// registered; writes nothing when every receipt is stale.
  std::size_t commit_snapshots(std::span<const SnapshotReceipt> receipts);

  /// One partition a compaction published and the partitions it consumed,
  /// in manifest order (its logs are theirs, in this order).
  struct CompactedRun {
    PartitionInfo merged;
    std::vector<PartitionInfo> inputs;
  };

  /// Execute compaction plans (archive/stream.hpp's planners produce them):
  /// each plan's run of adjacent partitions collapses into ONE new partition
  /// at the run's position, stamped the plan's target_level — raw frame copy
  /// in ingest order, window ranges unioned, the sources' snapshots dropped
  /// (the merge tree changed, so shards must be recomputed).  Every plan is
  /// validated before any file is staged: count >= 2, inside the manifest,
  /// ascending and non-overlapping, else ConfigError with nothing written.
  /// The merged partitions are built in plan order (ids allocated in that
  /// order) and registered by ONE manifest write — one generation bump.
  /// Source files go only after that write is durable: deleted here, where a
  /// failed removal is deliberately non-fatal (the files are unreferenced
  /// garbage by then; logged to stderr and kept in gc_errors()), or, when
  /// `deferred_gc` is given, appended to it for an MVCC host to remove once
  /// no pinned reader can still reference the old generation (the archive
  /// service's pin registry drives this).  Returns one run per plan; an empty
  /// plan list writes nothing.
  std::vector<CompactedRun> compact(std::span<const CompactionPlan> plans,
                                    std::vector<std::filesystem::path>* deferred_gc = nullptr);

  /// Failed garbage-collection removals of the most recent compact() —
  /// empty when every unreferenced file was deleted.
  const std::vector<std::string>& gc_errors() const { return gc_errors_; }

  struct VerifyReport {
    std::vector<std::string> issues;  ///< empty == archive is sound
    std::uint64_t partitions = 0;
    std::uint64_t logs_checked = 0;
    std::uint64_t snapshots_valid = 0;
    std::uint64_t snapshots_stale = 0;
    std::uint64_t snapshots_missing = 0;
    bool ok() const { return issues.empty(); }
  };
  /// Integrity check: segment sizes and CRCs, index consistency (count,
  /// offsets, bounds), snapshot validity/staleness.  `deep` additionally
  /// parses every log frame and cross-checks job ids against the index.
  VerifyReport verify(bool deep) const;

 private:
  Archive(std::filesystem::path dir, Manifest manifest, util::Vfs& vfs);

  /// Atomically persist `next`, stamped one generation past the current
  /// manifest, then adopt it.  The in-memory manifest changes only after
  /// the write lands: a failed publish leaves this handle as it was.
  void publish_manifest(Manifest next);

  /// Build and stage (segment + index files, no manifest write) one
  /// plan's merged partition as partition `id`.  The returned info is
  /// stamped data_generation = generation + 1 for compact()'s manifest
  /// publish to make real.
  PartitionInfo build_merged_partition(const CompactionPlan& plan, std::uint64_t id);

  /// Delete (or defer) the three files of every input of `runs`.
  void gc_partitions(std::span<const CompactedRun> runs,
                     std::vector<std::filesystem::path>* deferred_gc);

  std::filesystem::path dir_;
  Manifest manifest_;
  util::Vfs* vfs_;
  std::vector<std::string> gc_errors_;
};

}  // namespace mlio::archive
