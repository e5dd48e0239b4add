// End-to-end pipeline: generate -> simulate -> instrument -> analyze.
//
// Parallel over fixed-size job blocks with deterministic results: every job
// is generated from its own index-derived Rng stream, one core::Analysis
// accumulator is kept per block, and block accumulators are merged in block
// order.  The block partition is a pure function of the population size (see
// PipelineOptions::block_jobs), so the merged analysis is bit-identical
// across thread counts.  The bulk and huge strata are kept in separate
// accumulators so benches can up-scale only the bulk (DESIGN.md §4); both
// strata run through the same work-stealing scheduler: idle workers claim
// blocks via a ticket counter.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/analysis.hpp"
#include "darshan/log_format.hpp"
#include "iosim/executor.hpp"
#include "workload/generator.hpp"

namespace mlio::util {
class ThreadPool;
}

namespace mlio::wl {

struct PipelineOptions {
  unsigned threads = 0;       ///< 0 = hardware concurrency
  bool include_huge = true;   ///< generate the full-scale >1 TB stratum
  /// Serialize every log through the on-disk format and parse it back before
  /// analysis — slower, but exercises writer+reader on the whole population.
  bool roundtrip_logs = false;
  /// Log-format settings for the roundtrip (compression on/off, zlib level).
  darshan::WriteOptions write_options;
  /// Jobs per scheduling block.  0 = auto: a pure function of n_jobs (never
  /// of thread count), so the block partition — and with it every analysis
  /// bit — is invariant under threads.
  std::uint64_t block_jobs = 0;
};

/// Throughput telemetry for one run_pipeline call.
struct PipelineStats {
  unsigned threads = 0;
  std::uint64_t block_jobs = 0;   ///< resolved block size (bulk stratum)
  std::uint64_t bulk_blocks = 0;
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

/// Which generator stratum serialize_logs draws from.
enum class Stratum { kBulk, kHuge };

/// Per-phase CPU time of one serialize_logs call, summed across its workers
/// (the same convention as QueryStats' phase seconds: thread-seconds, not
/// wall clock).  serialize_logs ADDS into the caller's struct, so one
/// instance can accumulate over a whole multi-partition ingest.
struct SerializePhases {
  std::uint64_t serialize_ns = 0;  ///< generate + simulate (execute_into)
  std::uint64_t compress_ns = 0;   ///< frame + deflate (write_log_bytes_into)
};

struct SerializeOptions {
  unsigned threads = 0;            ///< 0 = hardware concurrency
  std::uint64_t block_jobs = 0;    ///< 0 = auto (same rule as run_pipeline)
  darshan::WriteOptions write_options;
  /// Reuse an existing pool instead of constructing one per call (a
  /// multi-partition ingest would otherwise spawn and join threads per
  /// partition).  When null and the caller is itself a pool worker, the
  /// blocks run inline on the caller — no pool is constructed at all.
  util::ThreadPool* pool = nullptr;
  /// When set, per-phase CPU time is accumulated into this struct.
  SerializePhases* phases = nullptr;
};

/// One serialized log: the framed on-disk bytes plus its job record (the
/// archive sink uses the job id for its per-partition index).  The frame
/// span is only valid for the duration of the callback.
using SerializedLogSink =
    std::function<void(const darshan::JobRecord& job, std::span<const std::byte> frame)>;

/// Archive-sink mode of the pipeline: generate jobs [job_lo, job_hi) of a
/// stratum, execute and serialize every log in parallel (per-worker scratch
/// reuse, block-ordered buffering), then deliver the frames to `sink` on the
/// calling thread in exact generation order.  The whole batch is buffered in
/// memory before delivery, so callers should ingest in bounded batches.
void serialize_logs(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                    std::uint64_t job_hi, const SerializeOptions& opts,
                    const SerializedLogSink& sink);

}  // namespace mlio::wl
