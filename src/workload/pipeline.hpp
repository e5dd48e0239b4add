// End-to-end pipeline: generate -> simulate -> instrument -> analyze.
//
// Parallel over fixed-size job blocks with deterministic results: every job
// is generated from its own index-derived Rng stream, one core::Analysis
// accumulator is kept per block, and block accumulators are merged in block
// order.  The block partition is a pure function of the population size (see
// auto_block_jobs), so the merged analysis is bit-identical across thread
// counts.  The bulk and huge strata are kept in separate accumulators so
// benches can up-scale only the bulk (DESIGN.md §4); both strata run
// through the same work-stealing scheduler: idle workers claim blocks via a
// ticket counter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/analysis.hpp"
#include "darshan/log_format.hpp"
#include "iosim/executor.hpp"
#include "workload/generator.hpp"

namespace mlio::wl {

struct PipelineOptions {
  unsigned threads = 0;       ///< 0 = hardware concurrency
  bool include_huge = true;   ///< generate the full-scale >1 TB stratum
};

/// Throughput telemetry for one run_pipeline call.
struct PipelineStats {
  unsigned threads = 0;
  std::uint64_t bulk_blocks = 0;  ///< ceil(n_jobs / auto_block_jobs(n_jobs))
  std::uint64_t huge_blocks = 0;
  std::uint64_t jobs = 0;         ///< bulk + hero jobs executed
  std::uint64_t logs = 0;         ///< Darshan logs produced and analyzed
  double simulated_bytes = 0;     ///< total traffic moved through the models
  /// Executor hot-path telemetry summed over every job (segments emitted,
  /// per-rank rows touched, opens recorded — see sim::ExecStats).
  sim::ExecStats exec;

  double merge_seconds = 0;       ///< block-ordered accumulator merging
  double total_seconds = 0;
};

struct PipelineResult {
  core::Analysis bulk;
  core::Analysis huge;
  PipelineStats stats;

  /// Combined view (bulk + huge merged) for scale-free statistics.
  core::Analysis combined() const;
};

/// Pick the machine matching a profile ("Summit" / "Cori").
const sim::Machine& machine_for(const SystemProfile& profile);

PipelineResult run_pipeline(const WorkloadGenerator& gen, const PipelineOptions& opts = {});

/// Which generator stratum a job range is drawn from.
enum class Stratum { kBulk, kHuge };

/// Auto block size for a range of `n_jobs` jobs: at most 256 blocks, so a
/// pure function of the range (never of thread count).  run_pipeline,
/// serialize_logs and the batch ingest all split their ranges by it.
std::uint64_t auto_block_jobs(std::uint64_t n_jobs);

/// Per-phase CPU time of serialized job blocks: serialize_block ADDS into
/// the caller's struct, so one instance can accumulate over many blocks.
/// Thread time, not wall: with N workers the sum can exceed the wall clock.
struct SerializePhases {
  std::uint64_t serialize_ns = 0;  ///< generate + simulate + body (execute_body)
  std::uint64_t compress_ns = 0;   ///< CRC + deflate + header (frame_log_body)
};

/// Per-thread reusable state of serialize_block: the runtime every job is
/// executed into (its record table's buffers follow the current job) and
/// the codec buffers (deflate tables included) its bodies are framed
/// through.  Keep one per thread and reuse it across blocks.
struct SerializeScratch {
  darshan::Runtime runtime;
  darshan::LogIoBuffers io;
};

/// One job range's framed logs, in generation order: the frames back to
/// back, each frame's size, and its job record (the archive index keys on
/// the job id).
struct FrameBlock {
  std::vector<std::byte> bytes;
  std::vector<std::size_t> sizes;
  std::vector<darshan::JobRecord> jobs;

  /// Call fn(job, frame) for every log in order; the frame span points into
  /// `bytes`.
  template <typename Fn>
  void for_each(const Fn& fn) const {
    std::size_t offset = 0;
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      fn(jobs[i], std::span<const std::byte>(bytes.data() + offset, sizes[i]));
      offset += sizes[i];
    }
  }
};

/// Called once per log with its uncompressed body, right after the log is
/// framed; the bytes are valid for the call only.
using BodyHook = std::function<void(std::span<const std::byte> body)>;

/// Generate jobs [job_lo, job_hi) of a stratum, execute each on the
/// profile's machine, and frame every log into one FrameBlock.  Each body
/// is written straight from the runtime's table: no LogData is built.  Pure
/// compute against immutable inputs — safe on any thread with its own
/// scratch.
/// When `phases` is set, per-phase CPU time is added into it (the hook's
/// time is not); when `on_body` is set, it sees every log's body.
FrameBlock serialize_block(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                           std::uint64_t job_hi, SerializeScratch& scratch, SerializePhases* phases = nullptr,
                           const BodyHook& on_body = nullptr);

/// One serialized log: the framed on-disk bytes plus its job record.  The
/// frame span is only valid for the duration of the callback.
using SerializedLogSink =
    std::function<void(const darshan::JobRecord& job, std::span<const std::byte> frame)>;

/// Frame-pool mode of the pipeline: serialize jobs [job_lo, job_hi) of a
/// stratum as auto-sized blocks on a pool of one worker per core (never more
/// than there are blocks), then deliver the frames to `sink` on the calling
/// thread in exact generation order.  The whole range is buffered in memory
/// before delivery, so callers should serialize in bounded ranges.  Called
/// from inside a pool task, the blocks run inline on that task's thread.
void serialize_logs(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                    std::uint64_t job_hi, const SerializedLogSink& sink);

}  // namespace mlio::wl
