#include "archive/stream.hpp"

#include <algorithm>
#include <limits>

#include "darshan/log_format.hpp"
#include "util/error.hpp"

namespace mlio::archive {

std::uint64_t window_id_for(std::int64_t start_time, std::int64_t window_seconds) {
  if (window_seconds <= 0) {
    throw util::ConfigError("window_id_for: window_seconds must be positive");
  }
  std::int64_t q = start_time / window_seconds;
  if (start_time % window_seconds != 0 && start_time < 0) q -= 1;  // floor, not trunc
  if (q < 0) return 1;  // pre-epoch logs collapse into the first window
  const auto uq = static_cast<std::uint64_t>(q);
  return uq == std::numeric_limits<std::uint64_t>::max() ? uq : uq + 1;
}

StreamIngester::StreamIngester(Archive& archive, const StreamOptions& opts)
    : archive_(&archive), opts_(opts) {
  if (opts.window_seconds <= 0) {
    throw util::ConfigError("stream ingest: window_seconds must be positive");
  }
}

std::optional<PartitionInfo> StreamIngester::append(const darshan::JobRecord& job,
                                                    std::span<const std::byte> frame) {
  const std::uint64_t wid = window_id_for(job.start_time, opts_.window_seconds);
  std::optional<PartitionInfo> published;
  if (!open_.empty()) {
    const bool boundary = wid > open_wmax_;
    const bool log_cap = opts_.max_window_logs > 0 && open_.size() >= opts_.max_window_logs;
    const bool byte_cap =
        opts_.max_window_bytes > 0 && open_bytes_ + frame.size() > opts_.max_window_bytes;
    if (boundary || log_cap || byte_cap) {
      if (boundary) {
        stats_.boundary_cuts += 1;
      } else {
        stats_.cap_cuts += 1;
      }
      published = publish_open();
    }
  }
  if (open_.empty()) {
    open_wmin_ = open_wmax_ = wid;
  } else if (wid < open_wmin_) {
    // Late arrival: it stays in the open window, which now honestly spans
    // down to the straggler's window.
    open_wmin_ = wid;
    stats_.late_logs += 1;
  }
  open_bytes_ += frame.size();
  open_.push_back(Buffered{job, {frame.begin(), frame.end()}});
  stats_.logs += 1;
  stats_.bytes += frame.size();
  return published;
}

std::optional<PartitionInfo> StreamIngester::flush() {
  if (open_.empty()) return std::nullopt;
  return publish_open();
}

PartitionInfo StreamIngester::publish_open() {
  // Build exactly the batch path's bytes: a PartitionWriter fed in arrival
  // order, finished into a pending partition, staged, and registered with a
  // one-element group commit — whole window or nothing.
  Archive::PartitionWriter w = archive_->begin_partition();
  for (const Buffered& b : open_) w.append_frame(b.job, b.frame);
  Archive::PendingPartition pending = w.finish();
  pending.info.data_generation = archive_->manifest().generation + 1;
  pending.info.window_min = open_wmin_;
  pending.info.window_max = open_wmax_;
  pending.info.level = 0;
  if (opts_.write_snapshots) {
    // Accumulate the shard from the buffered frames in arrival order through
    // the read kernel — byte-for-byte what a rescan of the published
    // partition computes.
    core::Analysis shard;
    for (const Buffered& b : open_) {
      darshan::walk_log_body(darshan::read_log_frame_body(b.frame, io_), body_);
      shard.add(body_, analyze_);
    }
    pending.attach_snapshot(shard);
  }
  archive_->stage_partition_files(pending);
  const PartitionInfo info = archive_->commit_group({&pending, 1}).front();
  stats_.windows_published += 1;
  open_.clear();
  open_bytes_ = 0;
  open_wmin_ = open_wmax_ = 0;
  return info;
}

namespace {
/// One level above `level`, clamped instead of wrapping on a hostile level —
/// the plan stays executable and the merged partition simply stops climbing.
std::uint32_t level_above(std::uint32_t level) {
  return level == std::numeric_limits<std::uint32_t>::max() ? level : level + 1;
}
}  // namespace

std::vector<CompactionPlan> plan_leveled(const Manifest& m, const LeveledPolicy& policy) {
  if (policy.fanout < 2) {
    throw util::ConfigError("leveled policy: fanout must be >= 2");
  }
  const std::vector<PartitionInfo>& parts = m.partitions;
  std::vector<CompactionPlan> best;
  std::uint32_t best_level = 0;
  std::size_t i = 0;
  while (i < parts.size()) {
    std::size_t j = i;
    while (j < parts.size() && parts[j].level == parts[i].level) ++j;
    if (j - i >= policy.fanout && (best.empty() || parts[i].level < best_level)) {
      best = {CompactionPlan{i, policy.fanout, level_above(parts[i].level)}};
      best_level = parts[i].level;
    }
    i = j;
  }
  return best;
}

std::vector<CompactionPlan> plan_small_runs(const Manifest& m, std::uint64_t max_logs) {
  const std::vector<PartitionInfo>& parts = m.partitions;
  std::vector<CompactionPlan> plans;
  std::size_t i = 0;
  while (i < parts.size()) {
    std::size_t j = i;
    std::uint32_t level = 0;
    while (j < parts.size() && parts[j].log_count < max_logs) {
      level = std::max(level, parts[j].level);
      ++j;
    }
    if (j - i < 2) {
      ++i;
      continue;
    }
    plans.push_back(CompactionPlan{i, j - i, level_above(level)});
    i = j;
  }
  return plans;
}

}  // namespace mlio::archive
