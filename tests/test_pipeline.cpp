#include "workload/pipeline.hpp"

#include <gtest/gtest.h>

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
  // The determinism contract: one Analysis per fixed-size block, merged in
  // block order, with block boundaries a pure function of the population.
  // On a skewed population (full huge stratum included), every analysis bit
  // — summary counts, CDF bins, performance moments — must be identical
  // across thread counts.
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

TEST(Pipeline, StatsReportCensusAndTiming) {
  const WorkloadGenerator gen(SystemProfile::cori_2019(), cfg(20));
  PipelineOptions opts;
  opts.threads = 2;
  const PipelineResult r = run_pipeline(gen, opts);
  const PipelineStats& s = r.stats;
  EXPECT_EQ(s.threads, 2u);
  EXPECT_EQ(s.jobs, 20u + gen.huge_job_count());
  EXPECT_EQ(s.logs, r.bulk.summary().logs() + r.huge.summary().logs());
  EXPECT_GT(s.simulated_bytes, 0.0);
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_EQ(s.huge_blocks, gen.huge_job_count());  // one hero job per block
  const std::uint64_t block = auto_block_jobs(20);
  EXPECT_EQ(s.bulk_blocks, (20 + block - 1) / block);
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
