#include "archive/query.hpp"

#include <algorithm>
#include <optional>
#include <span>

namespace mlio::archive {

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
  total_seconds += other.total_seconds;
}

std::shared_ptr<const core::Analysis> resolve_shard(const Archive& archive,
                                                    const PartitionInfo& partition,
                                                    ShardScratch& scratch, QueryStats& stats) {
  if (std::optional<core::Analysis> snap = archive.load_snapshot(partition)) {
    stats.snapshot_hits += 1;
    return std::make_shared<const core::Analysis>(*std::move(snap));
  }
  auto shard = std::make_shared<core::Analysis>();
  std::uint64_t logs = 0;
  archive.scan_bodies(
      partition,
      [&](std::span<const std::byte> body) {
        darshan::walk_log_body(body, scratch.body);
        shard->add(scratch.body, scratch.analyze);
        logs += 1;
      },
      scratch.scan, ScanOptions{});
  shard->order_samples();
  stats.partitions_scanned += 1;
  stats.logs_scanned += logs;
  return shard;
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
