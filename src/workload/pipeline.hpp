// End-to-end pipeline: generate -> simulate -> instrument -> analyze.
//
// Every consumer of a generated population splits its job range by one
// block plan (plan_blocks): a pure function of the range, never of the
// thread count.  run_pipeline needs no order: both strata run through one
// work-stealing scheduler (idle workers claim blocks via a ticket counter),
// each worker folds its blocks into its own core::Analysis per stratum, and
// the worker accumulators merge at the end.  The analysis state is
// cut-invariant (DESIGN.md §6), so the merged analysis is bit-identical
// across thread counts.  The bulk and huge strata are kept in separate
// accumulators so benches can up-scale only the bulk (DESIGN.md §4).
// Consumers that need frames in generation order (serialize_logs, the batch
// ingest) build blocks through one bounded in-order scheduler
// (build_in_order).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/analysis.hpp"
#include "darshan/log_format.hpp"
#include "iosim/executor.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace mlio::wl {

struct PipelineOptions {
  unsigned threads = 0;       ///< 0 = hardware concurrency
  bool include_huge = true;   ///< generate the full-scale >1 TB stratum
};

struct PipelineResult {
  core::Analysis bulk;
  core::Analysis huge;

  /// Combined view (bulk + huge merged) for scale-free statistics.
  core::Analysis combined() const;
};

/// Pick the machine matching a profile ("Summit" / "Cori").
const sim::Machine& machine_for(const SystemProfile& profile);

PipelineResult run_pipeline(const WorkloadGenerator& gen, const PipelineOptions& opts = {});

/// Which generator stratum a job range is drawn from.
enum class Stratum { kBulk, kHuge };

/// Jobs [lo, hi) of a stratum: the unit of build work.
struct JobBlock {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// The block plan of jobs [lo, hi) of a stratum, in job order: at most 256
/// equal blocks of bulk jobs, one job per block for the hero stratum (few
/// jobs, each heavy).  A pure function of (stratum, lo, hi), never of the
/// thread count.  Blocks end on job boundaries, so every log of a job is
/// built by one worker.  An empty range plans one empty block.
std::vector<JobBlock> plan_blocks(Stratum stratum, std::uint64_t lo, std::uint64_t hi);

/// Block futures build_in_order keeps in flight per build worker.  The
/// calling thread takes blocks in order, so while it waits on one heavy
/// job's block the other workers can only run ahead by the window.
/// Measured on perfbench's `ingest` (2 workers): 2 per worker ran 4.5 K
/// logs/s, 4 ran 5.5 K, 8 ran 6.1 K and 16 ran 6.3 K.  8 keeps most of the
/// gain while the built blocks held stay a small share of the open
/// partition.
inline constexpr std::size_t kBlocksInFlightPerWorker = 8;

/// Build blocks 0 .. n_blocks-1 with build(b) on a pool of `workers`
/// threads (0 = one per core; never more than there are blocks) and hand
/// each result to take(b, result) on the calling thread, in block order.
/// At most kBlocksInFlightPerWorker blocks per worker are in flight or
/// built and not yet taken, so the built blocks held are bounded by that
/// window, not by the range.  `build` runs on pool threads only and must be
/// pure compute; `take` runs on the calling thread, so every side effect
/// there happens in the same order at any worker count.  A build error
/// surfaces at its block's turn, so the error that leaves is the lowest
/// failing block's, whatever the timing; before any error leaves, the pool
/// drains the blocks still queued.  The pool is the call's own, so calling
/// from inside another pool's task cannot deadlock.
template <typename Build, typename Take>
void build_in_order(std::size_t n_blocks, unsigned workers, const Build& build, const Take& take) {
  using Built = std::invoke_result_t<const Build&, std::size_t>;
  if (n_blocks == 0) return;
  if (workers == 0) workers = std::max(1u, std::thread::hardware_concurrency());
  std::deque<std::future<Built>> inflight;
  util::ThreadPool pool(static_cast<unsigned>(std::min<std::size_t>(workers, n_blocks)));
  const std::size_t window = kBlocksInFlightPerWorker * pool.thread_count();
  std::size_t next = 0;
  const auto submit_next = [&] {
    auto task =
        std::make_shared<std::packaged_task<Built()>>([&build, b = next] { return build(b); });
    inflight.push_back(task->get_future());
    pool.submit([task] { (*task)(); });
    next += 1;
  };
  while (next < std::min(window, n_blocks)) submit_next();
  for (std::size_t b = 0; b < n_blocks; ++b) {
    Built built = inflight.front().get();
    inflight.pop_front();
    if (next < n_blocks) submit_next();
    take(b, std::move(built));
  }
}

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

/// Serialize jobs [job_lo, job_hi) of a stratum, block by block per
/// plan_blocks, on `workers` build threads (0 = one per core) through
/// build_in_order, and deliver the frames to `sink` on the calling thread
/// in exact generation order.  Each block is delivered as soon as it is
/// next in order, so at most one window of built blocks is held, not the
/// whole range.  The frames do not depend on `workers`.
void serialize_logs(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                    std::uint64_t job_hi, unsigned workers, const SerializedLogSink& sink);

}  // namespace mlio::wl
