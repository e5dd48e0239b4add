#include "archive/query.hpp"

#include <chrono>
#include <exception>
#include <mutex>
#include <vector>

#include "util/thread_pool.hpp"

namespace mlio::archive {

namespace {
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// A rebuild failed with `error` on `partition`.  When the on-disk manifest
/// has moved past the pinned one and no longer references that partition's
/// data generation, the failure is a lost race with a concurrent compaction
/// (its GC deleted the pinned segment), not corruption — report it as such.
[[noreturn]] void rethrow_rebuild_error(const Archive& archive, const PartitionInfo& partition,
                                        std::exception_ptr error) {
  try {
    const Manifest fresh = read_manifest_bytes(archive.vfs().read_file(archive.manifest_path()));
    if (fresh.generation > archive.manifest().generation) {
      bool still_referenced = false;
      for (const PartitionInfo& p : fresh.partitions) {
        if (p.id == partition.id && p.data_generation == partition.data_generation) {
          still_referenced = true;
          break;
        }
      }
      if (!still_referenced) {
        throw StaleReadError(archive.manifest().generation, fresh.generation, partition.id);
      }
    }
  } catch (const StaleReadError&) {
    throw;
  } catch (...) {
    // The manifest probe itself failed — fall through to the original error.
  }
  std::rethrow_exception(error);
}
}  // namespace

void QueryStats::merge(const QueryStats& other) {
  partitions += other.partitions;
  cache_hits += other.cache_hits;
  snapshot_hits += other.snapshot_hits;
  partitions_scanned += other.partitions_scanned;
  logs_scanned += other.logs_scanned;
  snapshots_written += other.snapshots_written;
  merged_hits += other.merged_hits;
  prefix_merges += other.prefix_merges;
  full_merges += other.full_merges;
  partitions_reused += other.partitions_reused;
  tree_merges += other.tree_merges;
  scan_seconds += other.scan_seconds;
  merge_seconds += other.merge_seconds;
  total_seconds += other.total_seconds;
  parse_seconds += other.parse_seconds;
  summarize_seconds += other.summarize_seconds;
  accumulate_seconds += other.accumulate_seconds;
}

QueryResult query_archive(Archive& archive, const QueryOptions& opts) {
  QueryScratch scratch;
  return query_archive(archive, opts, scratch);
}

QueryResult query_archive(Archive& archive, const QueryOptions& opts, QueryScratch& scratch) {
  const auto t0 = SteadyClock::now();
  QueryResult result;
  QueryStats& stats = result.stats;
  const std::vector<PartitionInfo> partitions = archive.manifest().partitions;
  stats.partitions = partitions.size();

  util::ThreadPool pool(opts.threads);
  // Pool workers are noexcept, so corruption errors (FormatError from a
  // damaged segment) are carried out by hand and rethrown on the caller.
  std::exception_ptr first_error;
  std::size_t first_error_slot = 0;  ///< partition index of first_error
  std::mutex error_mu;
  const auto record_error = [&](std::size_t slot) {
    const std::scoped_lock lock(error_mu);
    if (!first_error) {
      first_error = std::current_exception();
      first_error_slot = slot;
    }
  };

  // Pass 1: load snapshots on the pool — each load is an independent file
  // read + inflate + parse into its own slot, so parallelism cannot change
  // a bit of any shard.
  std::vector<std::optional<core::Analysis>> shards(partitions.size());
  pool.parallel_for_dynamic(0, partitions.size(), 1,
                            [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi, unsigned) {
                              (void)b;
                              for (std::uint64_t i = lo; i < hi; ++i) {
                                const auto slot = static_cast<std::size_t>(i);
                                try {
                                  shards[slot] = archive.load_snapshot(partitions[slot]);
                                } catch (...) {
                                  record_error(slot);
                                }
                              }
                            });
  if (first_error) rethrow_rebuild_error(archive, partitions[first_error_slot], first_error);
  std::vector<std::size_t> rebuild;
  for (std::size_t i = 0; i < partitions.size(); ++i) {
    if (shards[i].has_value()) {
      stats.snapshot_hits += 1;
    } else {
      rebuild.push_back(i);
    }
  }

  // Pass 2: rebuild missing shards in parallel — one partition per block,
  // handed to idle workers.  Each shard is a sequential accumulation over
  // its own logs, so parallelism never changes a single bit of the result.
  // Rebuilt shards that should be persisted are written back as snapshot
  // FILES right here on the worker that built them (write_snapshot_file
  // touches no shared state); the manifest registers the whole batch in one
  // commit after the join.
  if (!rebuild.empty()) {
    // Per-worker decode/summarize scratch, indexed by the dense worker slot.
    // The buffers live in the caller's QueryScratch, so repeated queries —
    // warm or cold — reuse warmed allocations; only the per-query timers
    // reset here (stats cover this query alone).
    if (scratch.scan.size() < pool.thread_count()) scratch.scan.resize(pool.thread_count());
    if (scratch.phases.size() < pool.thread_count()) scratch.phases.resize(pool.thread_count());
    if (scratch.analyze.size() < pool.thread_count()) scratch.analyze.resize(pool.thread_count());
    ScanOptions scan_opts;
    scan_opts.mlp_depth = opts.mlp_depth;
    // Per-worker log tallies, cache-line padded: the workers' inner loops
    // bump these per log, so adjacent counters must not share a line.
    struct alignas(64) WorkerTally {
      std::uint64_t logs = 0;
    };
    std::vector<WorkerTally> tallies(pool.thread_count());
    for (unsigned i = 0; i < pool.thread_count(); ++i) {
      scratch.scan[i].parse_seconds = 0;
      scratch.phases[i] = core::AnalyzePhases{};
      scratch.analyze[i].phases = &scratch.phases[i];
    }
    std::vector<Archive::SnapshotReceipt> receipts(rebuild.size());
    pool.parallel_for_dynamic(
        0, rebuild.size(), 1,
        [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi, unsigned w) {
          (void)b;
          for (std::uint64_t r = lo; r < hi; ++r) {
            const std::size_t slot = rebuild[static_cast<std::size_t>(r)];
            try {
              core::Analysis shard;
              archive.scan_partition(
                  partitions[slot],
                  [&](const darshan::LogData& log) {
                    shard.add(log, scratch.analyze[w]);
                    tallies[w].logs += 1;
                  },
                  scratch.scan[w], scan_opts);
              if (opts.write_snapshots) {
                receipts[static_cast<std::size_t>(r)] =
                    archive.write_snapshot_file(partitions[slot], shard, opts.snapshot_options);
              }
              shards[slot] = std::move(shard);
            } catch (...) {
              record_error(slot);
            }
          }
        });
    if (first_error) rethrow_rebuild_error(archive, partitions[first_error_slot], first_error);
    stats.partitions_scanned = rebuild.size();
    for (const WorkerTally& t : tallies) stats.logs_scanned += t.logs;
    for (unsigned i = 0; i < pool.thread_count(); ++i) {
      stats.parse_seconds += scratch.scan[i].parse_seconds;
      stats.summarize_seconds += scratch.phases[i].summarize_seconds;
      stats.accumulate_seconds += scratch.phases[i].accumulate_seconds;
    }
    if (opts.write_snapshots) {
      stats.snapshots_written = archive.commit_snapshots(receipts);
    }
  }
  stats.scan_seconds = seconds_since(t0);

  // Pass 3: merge, as a tree on the pool (Analysis::merge_ordered gives the
  // serial left fold's bits at any thread count).
  const auto t_merge = SteadyClock::now();
  std::vector<const core::Analysis*> shard_ptrs;
  shard_ptrs.reserve(shards.size());
  for (const auto& shard : shards) shard_ptrs.push_back(&*shard);
  result.analysis = core::Analysis::merge_ordered(shard_ptrs, &pool);
  stats.full_merges = 1;
  stats.tree_merges = shard_ptrs.size() >= 2 ? 1 : 0;
  stats.merge_seconds = seconds_since(t_merge);
  stats.total_seconds = seconds_since(t0);
  return result;
}

WindowSelection select_last_windows(const Manifest& m, std::uint64_t last_windows) {
  WindowSelection sel;
  const std::vector<PartitionInfo>& parts = m.partitions;
  for (const PartitionInfo& p : parts) {
    sel.newest_window = std::max(sel.newest_window, p.window_max);
  }
  if (last_windows == 0 || sel.newest_window == 0 || last_windows >= sel.newest_window) {
    // Whole archive: nothing to cut off (also the clamp for out-of-range
    // requests and the fallback for purely batch archives).
    sel.first = 0;
    sel.count = parts.size();
    sel.cutoff = 0;
  } else {
    sel.cutoff = sel.newest_window - last_windows + 1;
    std::size_t first = parts.size();
    while (first > 0 && parts[first - 1].window_max >= sel.cutoff) --first;
    sel.first = first;
    sel.count = parts.size() - first;
  }
  // The span the suffix actually covers: window_min 0 in the selection
  // means it reaches into unwindowed history, i.e. the full span.
  std::uint64_t wmin = 0;
  for (std::size_t i = sel.first; i < parts.size(); ++i) {
    if (i == sel.first) {
      wmin = parts[i].window_min;
    } else {
      wmin = std::min(wmin, parts[i].window_min);
    }
  }
  if (sel.count == 0 || sel.newest_window == 0) {
    sel.windows_covered = 0;
  } else if (wmin == 0 || wmin > sel.newest_window) {
    sel.windows_covered = sel.newest_window;  // hostile wmin clamps here too
  } else {
    sel.windows_covered = sel.newest_window - wmin + 1;
  }
  return sel;
}

QueryResult query_window(Archive& archive, std::uint64_t last_windows, const QueryOptions& opts,
                         WindowSelection* selection) {
  const auto t0 = SteadyClock::now();
  QueryResult result;
  QueryStats& stats = result.stats;
  // Copy the entries so a reload under the caller's feet cannot move them.
  const std::vector<PartitionInfo> partitions = archive.manifest().partitions;
  const WindowSelection sel = select_last_windows(archive.manifest(), last_windows);
  if (selection != nullptr) *selection = sel;
  stats.partitions = sel.count;

  Archive::ScanScratch scan_scratch;
  core::AnalyzeScratch analyze_scratch;
  ScanOptions scan_opts;
  scan_opts.mlp_depth = opts.mlp_depth;
  for (std::size_t i = sel.first; i < partitions.size(); ++i) {
    const PartitionInfo& p = partitions[i];
    std::optional<core::Analysis> shard;
    try {
      shard = archive.load_snapshot(p);
      if (shard.has_value()) {
        stats.snapshot_hits += 1;
      } else {
        core::Analysis rebuilt;
        std::uint64_t logs = 0;
        archive.scan_partition(
            p,
            [&](const darshan::LogData& log) {
              rebuilt.add(log, analyze_scratch);
              logs += 1;
            },
            scan_scratch, scan_opts);
        stats.partitions_scanned += 1;
        stats.logs_scanned += logs;
        shard = std::move(rebuilt);
      }
    } catch (...) {
      rethrow_rebuild_error(archive, p, std::current_exception());
    }
    result.analysis.merge(*shard);
  }
  stats.full_merges = 1;
  stats.total_seconds = seconds_since(t0);
  return result;
}

core::LoadTimeline window_timeline(const Archive& archive, const Manifest& m,
                                   const WindowSelection& sel, std::int64_t horizon_seconds,
                                   std::size_t n_buckets) {
  core::LoadTimeline timeline(horizon_seconds, n_buckets);
  Archive::ScanScratch scratch;
  for (std::size_t i = sel.first; i < m.partitions.size(); ++i) {
    archive.scan_partition(
        m.partitions[i], [&](const darshan::LogData& log) { timeline.add_log(log); }, scratch);
  }
  return timeline;
}

}  // namespace mlio::archive
