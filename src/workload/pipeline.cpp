#include "workload/pipeline.hpp"

#include <algorithm>
#include <chrono>
#include <vector>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mlio::wl {

namespace {

using SteadyClock = std::chrono::steady_clock;

// Bulk blocks per range: at most this many.  A block is one ticket of the
// work-stealing scheduler and one future of the in-order one, so the cap
// bounds their overhead while still leaving plenty of blocks to balance a
// heavy-tailed population across any realistic thread count.  Must stay a
// pure function of the range: block boundaries are part of the
// determinism contract.
constexpr std::uint64_t kMaxAutoBlocks = 256;

/// Generate jobs [lo, hi) of a stratum into `sink`.
void generate_range(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t lo,
                    std::uint64_t hi, const WorkloadGenerator::JobSink& sink) {
  if (stratum == Stratum::kBulk) {
    gen.generate_bulk_range(lo, hi, sink);
  } else {
    gen.generate_huge_range(lo, hi, sink);
  }
}

}  // namespace

std::vector<JobBlock> plan_blocks(Stratum stratum, std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t n = hi > lo ? hi - lo : 0;
  const std::uint64_t bulk = std::max<std::uint64_t>(1, (n + kMaxAutoBlocks - 1) / kMaxAutoBlocks);
  const std::uint64_t size = stratum == Stratum::kHuge ? 1 : bulk;
  std::vector<JobBlock> blocks;
  blocks.reserve((n + size - 1) / size + 1);
  do {
    const std::uint64_t end = std::min(hi, lo + size);
    blocks.push_back({lo, end});
    lo = end;
  } while (lo < hi);
  return blocks;
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
  const sim::JobExecutor executor(machine_for(gen.profile()));
  util::ThreadPool pool(opts.threads);

  // Per-worker reusable state: the LogData every job is executed into.
  struct WorkerScratch {
    darshan::LogData log;
    core::AnalyzeScratch analyze;
  };
  std::vector<WorkerScratch> scratch(pool.thread_count());

  // Fold a stratum's blocks through the ticket scheduler, one accumulator
  // per worker slot, then merge the slots into `into`.
  const auto fold = [&](Stratum stratum, std::uint64_t n_jobs, core::Analysis& into) {
    const std::vector<JobBlock> blocks = plan_blocks(stratum, 0, n_jobs);
    std::vector<core::Analysis> per_worker(scratch.size());
    pool.parallel_for_dynamic(
        0, blocks.size(), 1, [&](std::uint64_t b, std::uint64_t, std::uint64_t, unsigned w) {
          WorkerScratch& ws = scratch[w];
          generate_range(gen, stratum, blocks[b].lo, blocks[b].hi, [&](const sim::JobSpec& spec) {
            executor.execute_into(spec, ws.log);
            per_worker[w].add(ws.log, ws.analyze);
          });
        });
    for (const core::Analysis& a : per_worker) into.merge(a);
  };

  PipelineResult result;
  fold(Stratum::kBulk, gen.config().n_jobs, result.bulk);
  if (opts.include_huge) fold(Stratum::kHuge, gen.huge_job_count(), result.huge);
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
  generate_range(gen, stratum, job_lo, job_hi, emit);
  return out;
}

void serialize_logs(const WorkloadGenerator& gen, Stratum stratum, std::uint64_t job_lo,
                    std::uint64_t job_hi, unsigned workers, const SerializedLogSink& sink) {
  if (job_hi <= job_lo) return;
  const std::vector<JobBlock> blocks = plan_blocks(stratum, job_lo, job_hi);
  build_in_order(
      blocks.size(), workers,
      [&](std::size_t b) {
        thread_local SerializeScratch scratch;
        return serialize_block(gen, stratum, blocks[b].lo, blocks[b].hi, scratch);
      },
      [&](std::size_t, const FrameBlock& frames) { frames.for_each(sink); });
}

}  // namespace mlio::wl
