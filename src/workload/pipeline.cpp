#include "workload/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mlio::wl {

namespace {

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// Auto block sizing: at most this many blocks per stratum.  An Analysis
// shard costs ~50 us to construct (histograms + performance sample cells), so the
// cap bounds that overhead while still giving a ticket scheduler plenty of
// blocks to balance a heavy-tailed population across any realistic thread
// count.  Must stay a pure function of the population size — block
// boundaries are part of the determinism contract.
constexpr std::uint64_t kMaxAutoBlocks = 256;

/// Per-worker reusable state: the scratch LogData every job is executed
/// into.
struct WorkerScratch {
  darshan::LogData log;
  sim::ExecStats exec;
  core::AnalyzeScratch analyze;
};

}  // namespace

std::uint64_t auto_block_jobs(std::uint64_t n_jobs) {
  return std::max<std::uint64_t>(1, (n_jobs + kMaxAutoBlocks - 1) / kMaxAutoBlocks);
}

core::Analysis PipelineResult::combined() const {
  core::Analysis all;
  all.merge(bulk);
  all.merge(huge);
  return all;
}

const sim::Machine& machine_for(const SystemProfile& profile) {
  static const sim::Machine summit = sim::Machine::summit();
  static const sim::Machine cori = sim::Machine::cori();
  if (profile.system == "Summit") return summit;
  if (profile.system == "Cori") return cori;
  throw util::ConfigError("machine_for: unknown system " + profile.system);
}

PipelineResult run_pipeline(const WorkloadGenerator& gen, const PipelineOptions& opts) {
  const auto t_start = SteadyClock::now();
  const sim::Machine& machine = machine_for(gen.profile());
  const sim::JobExecutor executor(machine);

  util::ThreadPool pool(opts.threads);

  PipelineResult result;
  PipelineStats& stats = result.stats;
  stats.threads = pool.thread_count();

  // Scratch is per worker slot and lives across both strata.
  std::vector<WorkerScratch> scratch(std::max(1u, pool.thread_count()));

  auto consume = [&](core::Analysis& into, WorkerScratch& ws, const sim::JobSpec& spec) {
    executor.execute_into(spec, ws.log, &ws.exec);
    into.add(ws.log, ws.analyze);
  };

  // Run one stratum of `n` jobs in blocks of `block` through the ticket
  // scheduler; `generate(lo, hi, sink)` produces jobs [lo, hi).  Blocks are
  // chunked on job boundaries so all logs of a job land in one accumulator
  // (the distinct-job censuses rely on it), and shards merge in block order.
  auto run_stratum = [&](std::uint64_t n, std::uint64_t block, core::Analysis& into,
                         const auto& generate) -> std::uint64_t {
    if (n == 0) return 0;
    const std::uint64_t n_blocks = (n + block - 1) / block;
    std::vector<core::Analysis> shards(n_blocks);
    pool.parallel_for_dynamic(
        0, n, block, [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi, unsigned w) {
          generate(lo, hi,
                   [&](const sim::JobSpec& spec) { consume(shards[b], scratch[w], spec); });
        });
    const auto t_merge = SteadyClock::now();
    for (const auto& shard : shards) into.merge(shard);
    stats.merge_seconds += seconds_since(t_merge);
    return n_blocks;
  };

  const std::uint64_t n_jobs = gen.config().n_jobs;
  stats.jobs = n_jobs;

  stats.bulk_blocks = run_stratum(
      n_jobs, auto_block_jobs(n_jobs), result.bulk,
      [&](std::uint64_t lo, std::uint64_t hi, const WorkloadGenerator::JobSink& sink) {
        gen.generate_bulk_range(lo, hi, sink);
      });

  if (opts.include_huge) {
    // Hero jobs are few but individually heavy; one job per block keeps the
    // ticket scheduler free to spread them across every worker.
    const std::uint64_t n_huge = gen.huge_job_count();
    stats.jobs += n_huge;
    stats.huge_blocks = run_stratum(
        n_huge, 1, result.huge,
        [&](std::uint64_t lo, std::uint64_t hi, const WorkloadGenerator::JobSink& sink) {
          gen.generate_huge_range(lo, hi, sink);
        });
  }

  for (const WorkerScratch& ws : scratch) stats.exec.merge(ws.exec);
  stats.logs = result.bulk.summary().logs() + result.huge.summary().logs();
  stats.simulated_bytes = result.bulk.total_bytes() + result.huge.total_bytes();
  stats.total_seconds = seconds_since(t_start);
  return result;
}

FrameBlock serialize_block(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                           std::uint64_t job_hi, SerializeScratch& scratch, SerializePhases* phases,
                           const BodyHook& on_body) {
  const sim::JobExecutor executor(machine_for(gen.profile()));
  FrameBlock out;
  const auto emit = [&](const sim::JobSpec& spec) {
    const auto t0 = phases ? SteadyClock::now() : SteadyClock::time_point{};
    executor.execute_body(spec, scratch.runtime, scratch.io.body);
    const auto t1 = phases ? SteadyClock::now() : SteadyClock::time_point{};
    const auto frame = darshan::frame_log_body(scratch.io);
    if (phases) {
      const auto t2 = SteadyClock::now();
      phases->serialize_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
      phases->compress_ns += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t2 - t1).count());
    }
    out.bytes.insert(out.bytes.end(), frame.begin(), frame.end());
    out.sizes.push_back(frame.size());
    out.jobs.push_back(scratch.runtime.job());
    if (on_body) on_body(scratch.io.body.view());
  };
  if (stratum == Stratum::kBulk) {
    gen.generate_bulk_range(job_lo, job_hi, emit);
  } else {
    gen.generate_huge_range(job_lo, job_hi, emit);
  }
  return out;
}

void serialize_logs(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                    std::uint64_t job_hi, const SerializedLogSink& sink) {
  if (job_hi <= job_lo) return;
  const std::uint64_t n = job_hi - job_lo;
  const std::uint64_t block = auto_block_jobs(n);
  // Blocks are buffered and drained to the sink in index order, so delivery
  // order equals generation order regardless of scheduling.
  std::vector<FrameBlock> blocks((n + block - 1) / block);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  util::ThreadPool pool(static_cast<unsigned>(std::min<std::uint64_t>(hw, blocks.size())));
  std::vector<SerializeScratch> scratch(pool.thread_count());
  pool.parallel_for_dynamic(
      0, n, block, [&](std::uint64_t b, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        blocks[b] = serialize_block(gen, stratum, job_lo + lo, job_lo + hi, scratch[w]);
      });
  for (const FrameBlock& fb : blocks) fb.for_each(sink);
}

}  // namespace mlio::wl
