#include "archive/ingest.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>

#include "util/thread_pool.hpp"

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

/// Reusable decode state for the snapshot-on-ingest path: one for the
/// serial build loop, one per build on the parallel path.
struct BuildScratch {
  darshan::LogData decoded;
  darshan::LogIoBuffers io;
  core::AnalyzeScratch analyze;
};

/// One built-but-unpublished partition plus its contribution to the stats.
struct Built {
  Archive::PendingPartition pending;
  std::uint64_t logs = 0;
  std::uint64_t bytes = 0;
  std::uint64_t serialize_ns = 0;
  std::uint64_t compress_ns = 0;
  std::uint64_t snapshot_ns = 0;
};

/// Build one cut into a pending partition: serialize, deflate, CRC, and
/// optionally snapshot.  Pure compute against immutable inputs — safe on any
/// thread.  `serialize_pool` fans the per-log work out when the caller is
/// the only builder; partition-parallel workers pass nullptr and serialize
/// inline (wl::serialize_logs skips pool construction inside a pool worker).
Built build_cut(Archive& archive, const wl::WorkloadGenerator& gen, const Cut& cut,
                std::uint64_t id, std::uint64_t commit_gen, const IngestOptions& opts,
                BuildScratch& ws, util::ThreadPool* serialize_pool) {
  Built out;
  Archive::PartitionWriter writer = archive.begin_partition_at(id);
  core::Analysis shard;

  wl::SerializePhases phases;
  wl::SerializeOptions sopts;
  sopts.threads = opts.threads;
  sopts.write_options = opts.write_options;
  sopts.pool = serialize_pool;
  sopts.phases = &phases;
  wl::serialize_logs(gen, cut.stratum, cut.lo, cut.hi, sopts,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       writer.append_frame(job, frame);
                       out.logs += 1;
                       out.bytes += frame.size();
                       if (opts.write_snapshots) {
                         const auto t0 = SteadyClock::now();
                         darshan::read_log_bytes_into(frame, ws.io, ws.decoded);
                         shard.add(ws.decoded, ws.analyze);
                         out.snapshot_ns += ns_since(t0);
                       }
                     });
  out.serialize_ns = phases.serialize_ns;
  out.compress_ns = phases.compress_ns;

  out.pending = writer.finish();
  out.pending.info.data_generation = commit_gen;
  if (opts.write_snapshots) {
    const auto t0 = SteadyClock::now();
    out.pending.attach_snapshot(shard);
    out.snapshot_ns += ns_since(t0);
  }
  return out;
}

/// The group builder shared by both ingest paths: builds every cut (serially
/// or on `workers` pool threads), stages each partition's files on the
/// CALLING thread in cut order, and registers the whole batch with one
/// commit_group.  `build(k, ws, pool)` must be pure compute (no VFS) — the
/// calling thread owns every file operation, so the op sequence the crash
/// sweep observes is identical at every worker count.
template <typename BuildFn>
void build_and_commit(Archive& archive, std::uint64_t n_cuts, unsigned workers,
                      std::optional<unsigned> serialize_threads, const BuildFn& build,
                      IngestStats& stats) {
  std::vector<Archive::PendingPartition> group;
  group.reserve(n_cuts);

  const auto stage = [&](Built&& b) {
    stats.logs += b.logs;
    stats.bytes += b.bytes;
    stats.serialize_ns += b.serialize_ns;
    stats.compress_ns += b.compress_ns;
    stats.snapshot_ns += b.snapshot_ns;
    const auto t0 = SteadyClock::now();
    archive.stage_partition_files(b.pending);
    stats.publish_ns += ns_since(t0);
    group.push_back(std::move(b.pending));
  };

  if (workers <= 1 || n_cuts <= 1 || util::ThreadPool::in_worker()) {
    // Serial build path: one partition at a time, with serialize fan-out
    // inside each (the shared pool below avoids a thread spawn/join per
    // partition).  Still group-committed — one generation bump per call.
    std::optional<util::ThreadPool> pool;
    if (serialize_threads && !util::ThreadPool::in_worker()) pool.emplace(*serialize_threads);
    BuildScratch ws;
    for (std::uint64_t k = 0; k < n_cuts; ++k) {
      stage(build(k, ws, pool ? &*pool : nullptr));
    }
  } else {
    // Partition-parallel path: the committer keeps at most `window` cuts
    // submitted to the pool, in cut order, takes each build's future in cut
    // order, submits the next cut, then stages the one it took.  A build
    // error surfaces at its cut's get() — the lowest failing cut's error,
    // whatever the timing — and the pool's destructor drains the builds
    // still queued before the exception leaves.
    const std::uint64_t window = std::uint64_t{2} * workers;
    std::deque<std::future<Built>> inflight;
    util::ThreadPool pool(workers);  // after everything its tasks reference
    std::uint64_t next = 0;
    const auto submit_next = [&] {
      auto task = std::make_shared<std::packaged_task<Built()>>([&build, k = next] {
        BuildScratch ws;
        return build(k, ws, nullptr);
      });
      inflight.push_back(task->get_future());
      pool.submit([task] { (*task)(); });
      next += 1;
    };
    while (next < std::min(window, n_cuts)) submit_next();
    while (!inflight.empty()) {
      Built b = inflight.front().get();
      inflight.pop_front();
      if (next < n_cuts) submit_next();
      stage(std::move(b));
    }
  }

  if (!group.empty()) {
    const auto t0 = SteadyClock::now();
    archive.commit_group(group);
    stats.publish_ns += ns_since(t0);
    stats.groups += 1;
    stats.partitions += group.size();
  }
}

unsigned resolve_workers(unsigned ingest_threads) {
  if (ingest_threads != 0) return ingest_threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

IngestStats ingest_generated(Archive& archive, const wl::WorkloadGenerator& gen,
                             const IngestOptions& opts) {
  const auto t0 = SteadyClock::now();
  IngestStats stats;
  const std::vector<Cut> cuts = plan_cuts(gen, opts);
  const std::uint64_t base_id = archive.manifest().next_partition_id;
  const std::uint64_t commit_gen = archive.manifest().generation + 1;
  const unsigned workers = static_cast<unsigned>(std::min<std::uint64_t>(
      resolve_workers(opts.ingest_threads), cuts.size()));

  build_and_commit(
      archive, cuts.size(), workers, opts.threads,
      [&](std::uint64_t k, BuildScratch& ws, util::ThreadPool* serialize_pool) {
        return build_cut(archive, gen, cuts[k], base_id + k, commit_gen, opts, ws,
                         serialize_pool);
      },
      stats);

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

  // File reads go through the archive's Vfs, so building stays on the
  // calling thread (deterministic op order); sharding is about bounding
  // partition sizes, not parallelism, for this path.
  build_and_commit(
      archive, shards, /*workers=*/1, /*serialize_threads=*/std::nullopt,
      [&](std::uint64_t s, BuildScratch& ws, util::ThreadPool*) {
        (void)ws;
        Built out;
        Archive::PartitionWriter writer = archive.begin_partition_at(base_id + s);
        core::Analysis shard;
        const std::uint64_t lo = n * s / shards;
        const std::uint64_t hi = n * (s + 1) / shards;
        for (std::uint64_t i = lo; i < hi; ++i) {
          const std::vector<std::byte> frame = archive.vfs().read_file(files[i]);
          // Parse up front: corrupt files are rejected here instead of
          // poisoning every later scan of the partition.
          const darshan::LogData log = darshan::read_log_bytes(frame);
          writer.append_frame(log.job, frame);
          out.logs += 1;
          out.bytes += frame.size();
          if (opts.write_snapshots) {
            const auto ts = SteadyClock::now();
            shard.add(log);
            out.snapshot_ns += ns_since(ts);
          }
        }
        out.pending = writer.finish();
        out.pending.info.data_generation = commit_gen;
        if (opts.write_snapshots) {
          const auto ts = SteadyClock::now();
          out.pending.attach_snapshot(shard);
          out.snapshot_ns += ns_since(ts);
        }
        return out;
      },
      stats);

  stats.seconds = std::chrono::duration<double>(SteadyClock::now() - t0).count();
  return stats;
}

}  // namespace mlio::archive
