#include "workload/pipeline.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace mlio::wl {
namespace {

GeneratorConfig cfg(std::uint64_t n_jobs, std::uint64_t seed = 3) {
  GeneratorConfig c;
  c.n_jobs = n_jobs;
  c.seed = seed;
  c.logs_per_job_scale = 0.2;
  c.files_per_log_scale = 0.2;
  return c;
}

TEST(Pipeline, EndToEndOnBothSystems) {
  for (const SystemProfile* prof :
       {&SystemProfile::summit_2020(), &SystemProfile::cori_2019()}) {
    const WorkloadGenerator gen(*prof, cfg(60));
    PipelineOptions opts;
    opts.include_huge = false;
    const PipelineResult r = run_pipeline(gen, opts);
    EXPECT_GT(r.bulk.summary().logs(), 0u) << prof->system;
    EXPECT_GT(r.bulk.summary().files(), 100u) << prof->system;
    EXPECT_EQ(r.bulk.unattributed_files(), 0u) << prof->system;
    EXPECT_GT(r.bulk.access().layer(core::Layer::kPfs).bytes_read, 0.0) << prof->system;
  }
}

TEST(Pipeline, DeterministicAcrossThreadCounts) {
  const WorkloadGenerator gen(SystemProfile::summit_2020(), cfg(40));
  PipelineOptions one;
  one.threads = 1;
  one.include_huge = false;
  PipelineOptions four;
  four.threads = 4;
  four.include_huge = false;
  const PipelineResult a = run_pipeline(gen, one);
  const PipelineResult b = run_pipeline(gen, four);
  EXPECT_EQ(a.bulk.summary().logs(), b.bulk.summary().logs());
  EXPECT_EQ(a.bulk.summary().files(), b.bulk.summary().files());
  EXPECT_DOUBLE_EQ(a.bulk.access().layer(core::Layer::kPfs).bytes_read,
                   b.bulk.access().layer(core::Layer::kPfs).bytes_read);
  EXPECT_DOUBLE_EQ(a.bulk.access().layer(core::Layer::kInSystem).bytes_written,
                   b.bulk.access().layer(core::Layer::kInSystem).bytes_written);
  EXPECT_EQ(a.bulk.layers().job_exclusivity().pfs_only,
            b.bulk.layers().job_exclusivity().pfs_only);
}

TEST(Pipeline, BitIdenticalAcrossThreads) {
  // The determinism contract: one Analysis per worker, merged at the end,
  // over block boundaries that are a pure function of the population.  The
  // analysis state is cut-invariant, so which worker folded which block
  // does not matter: on a skewed population (full huge stratum included),
  // every analysis bit — summary counts, CDF bins, performance moments —
  // must be identical across thread counts.
  const WorkloadGenerator gen(SystemProfile::cori_2019(), cfg(30));

  auto run = [&](unsigned threads) {
    PipelineOptions opts;
    opts.threads = threads;
    opts.include_huge = true;
    return run_pipeline(gen, opts);
  };

  const PipelineResult base = run(1);
  const std::uint64_t bulk_fp = base.bulk.fingerprint();
  const std::uint64_t huge_fp = base.huge.fingerprint();
  for (const unsigned threads : {2u, 8u}) {
    const PipelineResult r = run(threads);
    EXPECT_EQ(r.bulk.fingerprint(), bulk_fp) << "threads=" << threads;
    EXPECT_EQ(r.huge.fingerprint(), huge_fp) << "threads=" << threads;
    // Spot-check a few raw values so a fingerprint bug can't mask a drift.
    EXPECT_EQ(r.bulk.summary().files(), base.bulk.summary().files());
    EXPECT_EQ(r.combined().performance().observations(),
              base.combined().performance().observations());
    const auto fn = r.huge.performance().cell(core::Layer::kPfs, 0, 5, false);
    const auto fn_base = base.huge.performance().cell(core::Layer::kPfs, 0, 5, false);
    EXPECT_EQ(fn.count, fn_base.count);
    EXPECT_EQ(fn.median, fn_base.median);  // exact: same merge order required
  }
}

TEST(Pipeline, BlockPlanIsAPureFunctionOfTheRange) {
  // Bulk: at most 256 equal blocks, the last one short; hero: one job per
  // block; an empty range: one empty block.  The blocks tile the range.
  const auto tiles = [](const std::vector<JobBlock>& blocks, std::uint64_t lo, std::uint64_t hi) {
    std::uint64_t at = lo;
    for (const JobBlock& b : blocks) {
      if (b.lo != at || b.hi < b.lo) return false;
      at = b.hi;
    }
    return at == hi;
  };
  const std::vector<JobBlock> bulk = plan_blocks(Stratum::kBulk, 10, 1010);
  EXPECT_EQ(bulk.size(), 250u);  // 1000 jobs in blocks of 4
  EXPECT_EQ(bulk.front().hi - bulk.front().lo, 4u);
  EXPECT_TRUE(tiles(bulk, 10, 1010));
  EXPECT_EQ(plan_blocks(Stratum::kBulk, 0, 1001).size(), 251u);  // blocks of 4, one short
  EXPECT_EQ(plan_blocks(Stratum::kBulk, 0, 20).size(), 20u);
  const std::vector<JobBlock> huge = plan_blocks(Stratum::kHuge, 3, 1003);
  EXPECT_EQ(huge.size(), 1000u);
  EXPECT_TRUE(tiles(huge, 3, 1003));
  for (const Stratum stratum : {Stratum::kBulk, Stratum::kHuge}) {
    const std::vector<JobBlock> empty = plan_blocks(stratum, 7, 7);
    ASSERT_EQ(empty.size(), 1u);
    EXPECT_EQ(empty[0].lo, 7u);
    EXPECT_EQ(empty[0].hi, 7u);
  }
}

// The frames of a job range, as (job id, frame bytes) in delivery order.
using Frames = std::vector<std::pair<std::uint64_t, std::vector<std::byte>>>;

TEST(Pipeline, SerializeLogsDeliversTheBlockFramesInGenerationOrder) {
  // serialize_logs at any worker count delivers exactly serialize_block's
  // frames over the whole range, in generation order: a bulk range with
  // more blocks than the 1-worker window (8), one with fewer blocks than
  // workers, and a hero range.
  const WorkloadGenerator gen(SystemProfile::cori_2019(), cfg(60));
  ASSERT_GE(gen.huge_job_count(), 3u);
  struct Range {
    Stratum stratum;
    std::uint64_t lo;
    std::uint64_t hi;
  };
  for (const Range& r : {Range{Stratum::kBulk, 5, 47}, Range{Stratum::kBulk, 50, 52},
                         Range{Stratum::kHuge, 0, 3}}) {
    SerializeScratch scratch;
    Frames expected;
    serialize_block(gen, r.stratum, r.lo, r.hi, scratch)
        .for_each([&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
          expected.emplace_back(job.job_id, std::vector<std::byte>(frame.begin(), frame.end()));
        });
    ASSERT_FALSE(expected.empty());
    for (const unsigned workers : {1u, 2u, 4u}) {
      Frames got;
      serialize_logs(gen, r.stratum, r.lo, r.hi, workers,
                     [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                       got.emplace_back(job.job_id,
                                        std::vector<std::byte>(frame.begin(), frame.end()));
                     });
      EXPECT_EQ(got, expected) << "jobs [" << r.lo << ", " << r.hi << ") workers=" << workers;
    }
  }
}

TEST(Pipeline, BuildInOrderTakesBlocksInOrderAndRaisesTheLowestFailingBlock) {
  // Blocks 5 and 11 fail.  From 2 workers on, the window (16+) holds both
  // at once and block 11 may fail first; the error that leaves is block
  // 5's, after blocks 0..4 were taken in order, and no build is still
  // running when it does.
  for (const unsigned workers : {1u, 2u, 4u}) {
    std::atomic<int> running{0};
    std::vector<std::size_t> taken;
    const auto build = [&](std::size_t b) {
      running += 1;
      if (b == 11 || b == 5) {
        running -= 1;
        throw util::FormatError("block " + std::to_string(b));
      }
      std::this_thread::sleep_for(std::chrono::microseconds(b % 3 == 0 ? 200 : 0));
      running -= 1;
      return b * 10;
    };
    try {
      build_in_order(40, workers, build, [&](std::size_t b, std::size_t built) {
        EXPECT_EQ(built, b * 10);
        taken.push_back(b);
      });
      ADD_FAILURE() << "no error at workers=" << workers;
    } catch (const util::FormatError& e) {
      EXPECT_STREQ(e.what(), "format error: block 5") << "workers=" << workers;
    }
    EXPECT_EQ(taken, (std::vector<std::size_t>{0, 1, 2, 3, 4})) << "workers=" << workers;
    EXPECT_EQ(running.load(), 0) << "workers=" << workers;
  }
}

TEST(Pipeline, HugeStratumLandsInTable4Census) {
  const WorkloadGenerator gen(SystemProfile::cori_2019(), cfg(5));
  const PipelineResult r = run_pipeline(gen);
  const auto& cbb = r.huge.access().layer(core::Layer::kInSystem);
  const auto& pfs = r.huge.access().layer(core::Layer::kPfs);
  EXPECT_EQ(cbb.huge_read_files, 513u);
  EXPECT_EQ(cbb.huge_write_files, 950u);
  EXPECT_EQ(pfs.huge_read_files, 74u);
  EXPECT_EQ(pfs.huge_write_files, 10045u);
  // Bulk stays below 1 TB by construction.
  EXPECT_EQ(r.bulk.access().layer(core::Layer::kPfs).huge_read_files, 0u);
}

TEST(Pipeline, MachineForRejectsUnknownSystems) {
  SystemProfile p = SystemProfile::summit_2020();
  p.system = "Trinity";
  EXPECT_THROW(machine_for(p), util::ConfigError);
}

TEST(Pipeline, CombinedMergesStrata) {
  const WorkloadGenerator gen(SystemProfile::summit_2020(), cfg(10));
  const PipelineResult r = run_pipeline(gen);
  const core::Analysis all = r.combined();
  EXPECT_EQ(all.summary().logs(), r.bulk.summary().logs() + r.huge.summary().logs());
}

}  // namespace
}  // namespace mlio::wl
