#include "archive/query.hpp"

#include <chrono>
#include <span>
#include <vector>

#include "util/thread_pool.hpp"

namespace mlio::archive {

namespace {
using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// A rebuild of `partition` failed; call from inside the catch handler.
/// When the on-disk manifest has moved past the pinned one and no longer
/// references that partition's data generation, the failure is a lost race
/// with a concurrent compaction (its GC deleted the pinned segment), not
/// corruption — report it as such.  Otherwise rethrow the original error.
[[noreturn]] void rethrow_rebuild_error(const Archive& archive, const PartitionInfo& partition) {
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
  throw;
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
  decode_seconds += other.decode_seconds;
  analyze_seconds += other.analyze_seconds;
}

std::shared_ptr<const core::Analysis> resolve_shard(const Archive& archive,
                                                    const PartitionInfo& partition,
                                                    ShardScratch& scratch, unsigned mlp_depth,
                                                    QueryStats& stats) {
  if (std::optional<core::Analysis> snap = archive.load_snapshot(partition)) {
    stats.snapshot_hits += 1;
    return std::make_shared<const core::Analysis>(*std::move(snap));
  }
  const bool timed = scratch.phases.has_value();
  scratch.scan.decode_seconds = timed ? &scratch.phases->decode_seconds : nullptr;
  ScanOptions scan_opts;
  scan_opts.mlp_depth = mlp_depth;
  auto shard = std::make_shared<core::Analysis>();
  std::uint64_t logs = 0;
  archive.scan_bodies(
      partition,
      [&](std::span<const std::byte> body) {
        const auto t0 = timed ? SteadyClock::now() : SteadyClock::time_point{};
        darshan::walk_log_body(body, scratch.body);
        shard->add(scratch.body, scratch.analyze);
        if (timed) scratch.phases->analyze_seconds += seconds_since(t0);
        logs += 1;
      },
      scratch.scan, scan_opts);
  shard->order_samples();
  stats.partitions_scanned += 1;
  stats.logs_scanned += logs;
  return shard;
}

namespace {
/// The one query body behind query_archive and query_window: resolve every
/// partition of `parts` on the pool (one partition per block, each worker
/// with its own scratch and stats), write rebuilt shards back as snapshot
/// files on the worker that built them (write_snapshot_file touches no
/// shared state) and register them in ONE manifest commit after the join,
/// then fold the shards with the fixed-shape tree.  A failure is reported
/// for the lowest-indexed failing partition, translated by
/// rethrow_rebuild_error.
QueryResult query_partitions(Archive& archive, std::span<const PartitionInfo> parts,
                             const QueryOptions& opts, QueryScratch& scratch) {
  const auto t0 = SteadyClock::now();
  QueryResult result;
  QueryStats& stats = result.stats;
  stats.partitions = parts.size();

  util::ThreadPool pool(opts.threads);
  const unsigned workers = pool.thread_count();
  if (scratch.size() < workers) scratch.resize(workers);
  for (unsigned w = 0; w < workers; ++w) {
    scratch[w].phases.emplace();  // timers cover this query alone
  }
  std::vector<QueryStats> worker_stats(workers);
  std::vector<std::shared_ptr<const core::Analysis>> shards(parts.size());
  std::vector<std::optional<Archive::SnapshotReceipt>> written(parts.size());
  pool.parallel_for_dynamic(
      0, parts.size(), 1, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        for (std::uint64_t i = lo; i < hi; ++i) {
          try {
            const std::uint64_t scanned = worker_stats[w].partitions_scanned;
            shards[i] = resolve_shard(archive, parts[i], scratch[w], opts.mlp_depth,
                                      worker_stats[w]);
            // Only rescans are written back: a snapshot hit is already on disk.
            if (opts.write_snapshots && worker_stats[w].partitions_scanned != scanned) {
              written[i] = archive.write_snapshot_file(parts[i], *shards[i]);
            }
          } catch (...) {
            rethrow_rebuild_error(archive, parts[i]);
          }
        }
      });
  for (unsigned w = 0; w < workers; ++w) {
    stats.merge(worker_stats[w]);
    stats.decode_seconds += scratch[w].phases->decode_seconds;
    stats.analyze_seconds += scratch[w].phases->analyze_seconds;
  }
  std::vector<Archive::SnapshotReceipt> receipts;
  for (const std::optional<Archive::SnapshotReceipt>& r : written) {
    if (r) receipts.push_back(*r);
  }
  if (!receipts.empty()) stats.snapshots_written = archive.commit_snapshots(receipts);
  stats.scan_seconds = seconds_since(t0);

  // Merge as a tree on the pool (Analysis::merge_ordered gives the serial
  // left fold's bits at any thread count).
  const auto t_merge = SteadyClock::now();
  std::vector<const core::Analysis*> shard_ptrs;
  shard_ptrs.reserve(shards.size());
  for (const auto& shard : shards) shard_ptrs.push_back(shard.get());
  result.analysis = core::Analysis::merge_ordered(shard_ptrs, &pool);
  stats.full_merges = 1;
  stats.tree_merges = shard_ptrs.size() >= 2 ? 1 : 0;
  stats.merge_seconds = seconds_since(t_merge);
  stats.total_seconds = seconds_since(t0);
  return result;
}
}  // namespace

QueryResult query_archive(Archive& archive, const QueryOptions& opts) {
  QueryScratch scratch;
  return query_archive(archive, opts, scratch);
}

QueryResult query_archive(Archive& archive, const QueryOptions& opts, QueryScratch& scratch) {
  // Copy the entries: the snapshot commit rewrites the manifest under them.
  const std::vector<PartitionInfo> partitions = archive.manifest().partitions;
  return query_partitions(archive, partitions, opts, scratch);
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
  const std::vector<PartitionInfo> partitions = archive.manifest().partitions;
  const WindowSelection sel = select_last_windows(archive.manifest(), last_windows);
  if (selection != nullptr) *selection = sel;
  QueryOptions window_opts = opts;
  window_opts.write_snapshots = false;
  QueryScratch scratch;
  return query_partitions(archive, std::span<const PartitionInfo>(partitions).subspan(sel.first),
                          window_opts, scratch);
}

core::LoadTimeline window_timeline(const Archive& archive, const Manifest& m,
                                   const WindowSelection& sel, std::int64_t horizon_seconds,
                                   std::size_t n_buckets) {
  core::LoadTimeline timeline(horizon_seconds, n_buckets);
  Archive::ScanScratch scratch;
  for (std::size_t i = sel.first; i < m.partitions.size(); ++i) {
    archive.scan_partition(
        m.partitions[i], [&](const darshan::LogData& log) { timeline.add_log(log); }, scratch,
        ScanOptions{});
  }
  return timeline;
}

}  // namespace mlio::archive
