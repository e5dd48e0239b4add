// Continuous mode for the partitioned archive (DESIGN.md §14).
//
// Two pieces turn the batch archive into a live system:
//
//   * StreamIngester — logs arrive one at a time (framed bytes, the same
//     wire format batch ingest uses) and buffer into an OPEN time window.
//     When an arriving log's window id advances past the open window — or a
//     size cap trips first — the open window is CUT: built into one
//     partition (level 0, window range stamped into its manifest entry) and
//     published through the group-commit path, one generation bump per
//     window.  Until the cut, buffered logs are invisible to readers; after
//     it, they are durable — the crash story is exactly the batch one
//     (whole windows or nothing).
//
//   * LeveledPolicy / plan_leveled — an LSM-style compaction planner.  Every
//     partition carries a level (0 = fresh); when `fanout` ADJACENT
//     partitions sit at the same level, the plan merges the oldest `fanout`
//     of them into one partition at level + 1 (lowest level first, leftmost
//     run first).  Streaming appends windows at level 0, so the live
//     partition count stays bounded by ~fanout partitions per level —
//     O(fanout · log_fanout(windows)) instead of one partition per window.
//     Its batch sibling, plan_small_runs, merges every run of small
//     partitions; Archive::compact executes either planner's output.
//
// Window ids are 1-based: `window_id_for(t, w) = floor(t / w) + 1`, clamped
// to 1 (pre-epoch times collapse into the first window).  Id 0 is reserved
// for "not windowed" — batch-ingested partitions.  Late arrivals (a log
// whose window id is BELOW the open window's) land in the open window and
// widen its stamped [window_min, window_max] range downward; only a FORWARD
// boundary crossing cuts.  Determinism: the partition sequence, every
// segment byte, and every stamp are a pure function of the (job, frame)
// arrival sequence and the options — "fixed cuts → fixed bits".
//
// Thread safety: a StreamIngester is single-writer, like PartitionWriter.
// The archive service wraps it behind its writer mutex and races it against
// the background compactor and MVCC-pinned readers (service/service.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "archive/archive.hpp"
#include "core/analysis.hpp"
#include "darshan/log_format.hpp"

namespace mlio::archive {

/// 1-based time-window id of a log start time; window id 0 is reserved for
/// "not windowed".  Floor division (negative times round toward -inf) with
/// the pre-epoch result clamped to window 1.  Throws ConfigError when
/// window_seconds <= 0.
std::uint64_t window_id_for(std::int64_t start_time, std::int64_t window_seconds);

struct StreamOptions {
  /// Wall-clock width of one window (of JobRecord::start_time seconds).
  std::int64_t window_seconds = 3600;
  /// Cut the open window before it exceeds this many logs (0 = uncapped).
  std::uint64_t max_window_logs = 0;
  /// Cut the open window before its frame bytes exceed this (0 = uncapped).
  /// A single frame larger than the cap still forms a (one-log) window.
  std::uint64_t max_window_bytes = 0;
  /// Stamp each published window with its analysis shard snapshot, riding
  /// the same single commit (the windowed query path then never rescans).
  bool write_snapshots = false;
};

struct StreamStats {
  std::uint64_t logs = 0;               ///< frames appended
  std::uint64_t bytes = 0;              ///< frame bytes appended
  std::uint64_t windows_published = 0;  ///< partitions committed
  std::uint64_t boundary_cuts = 0;      ///< cuts from a window-id advance
  std::uint64_t cap_cuts = 0;           ///< cuts from a size cap
  std::uint64_t late_logs = 0;          ///< arrivals below the open window id
};

class StreamIngester {
 public:
  /// The archive (and its Vfs) must outlive the ingester.  Throws
  /// ConfigError on window_seconds <= 0.
  StreamIngester(Archive& archive, const StreamOptions& opts);

  /// Buffer one framed log into the open window, cutting and publishing the
  /// previous window first when this log crosses a window boundary or a cap
  /// would overflow.  Returns the published window's info when a cut
  /// happened, nullopt otherwise.  File I/O (and a generation bump) happens
  /// only on the cut path.
  std::optional<PartitionInfo> append(const darshan::JobRecord& job,
                                      std::span<const std::byte> frame);

  /// Cut and publish the open window regardless of boundaries; nullopt when
  /// nothing is buffered.  Call before destroying the ingester — buffered
  /// logs are dropped otherwise (they were never promised durable).
  std::optional<PartitionInfo> flush();

  std::uint64_t open_logs() const { return open_.size(); }
  std::uint64_t open_bytes() const { return open_bytes_; }
  /// Window id the open buffer would publish under (its newest id); 0 when
  /// nothing is buffered.
  std::uint64_t open_window() const { return open_wmax_; }
  const StreamStats& stats() const { return stats_; }

 private:
  PartitionInfo publish_open();

  struct Buffered {
    darshan::JobRecord job;
    std::vector<std::byte> frame;
  };

  Archive* archive_;
  StreamOptions opts_;
  StreamStats stats_;
  std::vector<Buffered> open_;
  std::uint64_t open_bytes_ = 0;
  std::uint64_t open_wmin_ = 0;  ///< 0 while empty
  std::uint64_t open_wmax_ = 0;
  /// Read-kernel state of snapshot-writing cuts, reused across windows.
  darshan::LogIoBuffers io_;
  darshan::LogBody body_;
  core::AnalyzeScratch analyze_;
};

/// LSM-style leveled compaction policy: merge when `fanout` adjacent
/// partitions share a level.
struct LeveledPolicy {
  std::uint32_t fanout = 4;  ///< run length that triggers a merge (>= 2)
};

// The compaction planners share one shape, (const Manifest&, X) ->
// std::vector<CompactionPlan>: pure functions of the manifest whose plans
// Archive::compact executes in one manifest write.

/// Choose the next leveled merge: the leftmost run of >= fanout adjacent
/// same-level partitions, lowest level first; the plan takes the OLDEST
/// `fanout` of the run (time order is preserved — partitions only ever
/// merge with their neighbors).  Zero plans when no level holds a full run,
/// else one.  Throws ConfigError on fanout < 2.
std::vector<CompactionPlan> plan_leveled(const Manifest& m, const LeveledPolicy& policy);

/// Size-based planner: every maximal run of >= 2 adjacent partitions that
/// each hold fewer than `max_logs` logs merges into one partition, one level
/// above the run's highest (clamped at UINT32_MAX).  max_logs == 0 plans
/// nothing.
std::vector<CompactionPlan> plan_small_runs(const Manifest& m, std::uint64_t max_logs);

}  // namespace mlio::archive
