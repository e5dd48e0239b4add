#include "archive/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>

#include "util/error.hpp"

namespace mlio::archive {

namespace {
using SteadyClock = std::chrono::steady_clock;

std::uint64_t ns_since(SteadyClock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(SteadyClock::now() - t0).count());
}

/// One planned partition: a job range of a stratum.  The cut list is a pure
/// function of (n_jobs, batches) — the determinism contract's "fixed cuts".
struct Cut {
  wl::Stratum stratum = wl::Stratum::kBulk;
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

std::vector<Cut> plan_cuts(const wl::WorkloadGenerator& gen, const IngestOptions& opts) {
  const std::uint64_t n_jobs = gen.config().n_jobs;
  const std::uint64_t batches = std::max<std::uint64_t>(1, std::min(opts.batches, n_jobs));
  std::vector<Cut> cuts;
  cuts.reserve(batches + 1);
  for (std::uint64_t b = 0; b < batches; ++b) {
    cuts.push_back({wl::Stratum::kBulk, n_jobs * b / batches, n_jobs * (b + 1) / batches});
  }
  if (opts.include_huge && gen.huge_job_count() > 0) {
    cuts.push_back({wl::Stratum::kHuge, 0, gen.huge_job_count()});
  }
  return cuts;
}

/// One job block of a cut: the unit of build work.
struct Block {
  std::size_t cut = 0;
  wl::JobBlock jobs;
};

/// Every cut's job blocks in (cut, block) order, by wl::plan_blocks.  A cut
/// always yields at least one block, so an empty cut still forms its
/// (empty) partition.
std::vector<Block> plan_cut_blocks(const std::vector<Cut>& cuts) {
  std::vector<Block> blocks;
  for (std::size_t k = 0; k < cuts.size(); ++k) {
    for (const wl::JobBlock& jobs : wl::plan_blocks(cuts[k].stratum, cuts[k].lo, cuts[k].hi)) {
      blocks.push_back({k, jobs});
    }
  }
  return blocks;
}

/// Per-thread build state, reused across every block a pool thread builds:
/// the serializer's scratch plus the read-kernel state of snapshot-on-ingest.
struct BlockScratch {
  wl::SerializeScratch serialize;
  darshan::LogBody body;
  core::AnalyzeScratch analyze;
};

/// One built block: its frames, its analysis shard when snapshots are on,
/// and its CPU phase times.
struct BuiltBlock {
  wl::FrameBlock frames;
  std::optional<core::Analysis> shard;
  wl::SerializePhases phases;
  std::uint64_t snapshot_ns = 0;
};

/// Close a partition on the calling thread: stamp the commit's generation,
/// attach `shard` as its snapshot when given, queue it for the group commit
/// and stage its files.  It is queued first, so `group` names every
/// partition whose staging began, a failed one included.
void stage_partition(Archive& archive, Archive::PartitionWriter& writer, std::uint64_t commit_gen,
                     const core::Analysis* shard, std::vector<Archive::PendingPartition>& group,
                     IngestStats& stats) {
  Archive::PendingPartition& pending = group.emplace_back(writer.finish());
  pending.info.data_generation = commit_gen;
  if (shard != nullptr) {
    const auto t0 = SteadyClock::now();
    pending.attach_snapshot(*shard);
    stats.snapshot_ns += ns_since(t0);
  }
  const auto t0 = SteadyClock::now();
  archive.stage_partition_files(pending);
  stats.publish_ns += ns_since(t0);
}

/// After an error before the group commit, remove the files `group` staged:
/// no manifest will reference them.  Best effort — a failed removal is
/// swallowed, so the caller rethrows the original error.
void unstage(const Archive& archive, const std::vector<Archive::PendingPartition>& group) {
  const auto remove = [&](const std::filesystem::path& path) {
    try {
      archive.vfs().remove(path);
    } catch (const util::Error&) {
    }
  };
  for (const Archive::PendingPartition& p : group) {
    remove(archive.segment_path(p.info.id));
    remove(archive.index_path(p.info.id));
    if (p.info.has_snapshot) remove(archive.snapshot_path(p.info.id));
  }
}

/// Register every staged partition with one manifest write.
void commit(Archive& archive, const std::vector<Archive::PendingPartition>& group,
            IngestStats& stats) {
  const auto t0 = SteadyClock::now();
  archive.commit_group(group);
  stats.publish_ns += ns_since(t0);
  stats.groups += 1;
  stats.partitions += group.size();
}

}  // namespace

IngestStats ingest_generated(Archive& archive, const wl::WorkloadGenerator& gen,
                             const IngestOptions& opts) {
  const auto t0 = SteadyClock::now();
  IngestStats stats;
  const std::vector<Cut> cuts = plan_cuts(gen, opts);
  const std::vector<Block> blocks = plan_cut_blocks(cuts);
  const std::uint64_t base_id = archive.manifest().next_partition_id;
  const std::uint64_t commit_gen = archive.manifest().generation + 1;

  // Pure compute on a pool thread: serialize the block and, when snapshots
  // are on, walk each log's body into a block shard while the serializer
  // still holds it uncompressed, so no frame is inflated again.
  const auto build = [&](std::size_t i) {
    thread_local BlockScratch ws;
    const Block& b = blocks[i];
    BuiltBlock out;
    wl::BodyHook add_to_shard;
    if (opts.write_snapshots) {
      out.shard.emplace();
      add_to_shard = [&](std::span<const std::byte> body) {
        const auto ts = SteadyClock::now();
        darshan::walk_log_body(body, ws.body);
        out.shard->add(ws.body, ws.analyze);
        out.snapshot_ns += ns_since(ts);
      };
    }
    out.frames = wl::serialize_block(gen, cuts[b.cut].stratum, b.jobs.lo, b.jobs.hi, ws.serialize,
                                     &out.phases, add_to_shard);
    return out;
  };

  // The calling thread takes the built blocks in (cut, block) order,
  // appends each block's frames to its cut's writer, and stages the
  // partition at the cut's last block — so every file operation happens
  // here, in the same order at any worker count.  Any util::Error before
  // the commit, a build error included, first removes the partitions
  // already staged.
  std::vector<Archive::PendingPartition> group;
  group.reserve(cuts.size());
  std::optional<Archive::PartitionWriter> writer;
  std::optional<core::Analysis> cut_shard;
  const auto take = [&](std::size_t i, BuiltBlock built) {
    const Block& b = blocks[i];
    if (!writer) writer.emplace(archive.begin_partition_at(base_id + b.cut));
    built.frames.for_each([&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
      writer->append_frame(job, frame);
    });
    stats.logs += built.frames.sizes.size();
    stats.bytes += built.frames.bytes.size();
    stats.serialize_ns += built.phases.serialize_ns;
    stats.compress_ns += built.phases.compress_ns;
    stats.snapshot_ns += built.snapshot_ns;
    if (built.shard) {
      const auto ts = SteadyClock::now();
      if (!cut_shard) cut_shard.emplace();
      cut_shard->merge(*built.shard);
      stats.snapshot_ns += ns_since(ts);
    }

    if (i + 1 < blocks.size() && blocks[i + 1].cut == b.cut) return;
    stage_partition(archive, *writer, commit_gen, cut_shard ? &*cut_shard : nullptr, group, stats);
    writer.reset();
    cut_shard.reset();
  };
  try {
    wl::build_in_order(blocks.size(), opts.ingest_threads, build, take);
  } catch (const util::Error&) {
    unstage(archive, group);
    throw;
  }
  commit(archive, group, stats);

  stats.seconds = std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return stats;
}

IngestStats ingest_log_files(Archive& archive, const std::vector<std::filesystem::path>& files,
                             const IngestOptions& opts) {
  const auto t0 = SteadyClock::now();
  IngestStats stats;
  const std::uint64_t n = files.size();
  // Same even-split rule as the generated path's bulk cuts; an empty file
  // list still forms one (empty) partition, as it always has.
  std::uint64_t shards = std::max<std::uint64_t>(
      1, std::min(opts.batches, std::max<std::uint64_t>(n, 1)));
  if (opts.max_logs_per_partition > 0 && n > 0) {
    shards = std::max(shards, (n + opts.max_logs_per_partition - 1) / opts.max_logs_per_partition);
    shards = std::min(shards, n);
  }
  const std::uint64_t base_id = archive.manifest().next_partition_id;
  const std::uint64_t commit_gen = archive.manifest().generation + 1;

  // File reads go through the archive's Vfs, so the whole path runs on the
  // calling thread (deterministic op order); sharding bounds partition
  // sizes, it is not parallelism.
  std::vector<Archive::PendingPartition> group;
  group.reserve(shards);
  darshan::LogIoBuffers io;
  darshan::LogBody body;
  core::AnalyzeScratch analyze;
  try {
    for (std::uint64_t s = 0; s < shards; ++s) {
      Archive::PartitionWriter writer = archive.begin_partition_at(base_id + s);
      core::Analysis shard;
      for (std::uint64_t i = n * s / shards; i < n * (s + 1) / shards; ++i) {
        const std::vector<std::byte> frame = archive.vfs().read_file(files[i]);
        // Walk up front: corrupt files are rejected here instead of
        // poisoning every later scan of the partition.
        darshan::walk_log_body(darshan::read_log_frame_body(frame, io), body);
        writer.append_frame(body.job, frame);
        stats.logs += 1;
        stats.bytes += frame.size();
        if (opts.write_snapshots) {
          const auto ts = SteadyClock::now();
          shard.add(body, analyze);
          stats.snapshot_ns += ns_since(ts);
        }
      }
      stage_partition(archive, writer, commit_gen, opts.write_snapshots ? &shard : nullptr, group,
                      stats);
    }
  } catch (const util::Error&) {
    unstage(archive, group);
    throw;
  }
  commit(archive, group, stats);

  stats.seconds = std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return stats;
}

}  // namespace mlio::archive
