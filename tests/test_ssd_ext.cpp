#include <gtest/gtest.h>

#include "core/analysis.hpp"
#include "core/ssd_study.hpp"
#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "iosim/executor.hpp"
#include "util/units.hpp"

namespace mlio {
namespace {

using darshan::JobRecord;
using darshan::LogData;
using darshan::ModuleId;
using util::kMB;

TEST(SsdExt, ModuleRegistry) {
  EXPECT_EQ(darshan::module_name(ModuleId::kSsdExt), "SSDEXT");
  EXPECT_EQ(darshan::counter_count(ModuleId::kSsdExt), darshan::ssdext::COUNTER_COUNT);
  EXPECT_EQ(darshan::fcounter_count(ModuleId::kSsdExt), 0u);
  EXPECT_EQ(darshan::counter_name(ModuleId::kSsdExt, darshan::ssdext::WAF_X1000),
            "SSDEXT_WAF_X1000");
}

TEST(SsdExt, RuntimeRecordsAndRoundtrips) {
  JobRecord job;
  job.job_id = 1;
  job.nprocs = 1;
  job.nnodes = 1;
  darshan::Runtime rt(job, {{"/mnt/bb", "xfs"}});
  rt.record_ssd(rt.intern_path("/mnt/bb/ckpt.chk"), /*rewrite=*/2 * kMB, /*seq=*/3 * kMB,
                /*random=*/0, /*static=*/1 * kMB, /*dynamic=*/2 * kMB, /*waf=*/1.75);
  const LogData log = rt.finalize(0, 1);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].module, ModuleId::kSsdExt);
  EXPECT_EQ(log.records[0].c(darshan::ssdext::REWRITE_BYTES),
            static_cast<std::int64_t>(2 * kMB));
  EXPECT_EQ(log.records[0].c(darshan::ssdext::WAF_X1000), 1750);
  EXPECT_TRUE(log == darshan::read_log_bytes(darshan::write_log_bytes(log)));
}

sim::JobSpec spec_with_insys_writes() {
  sim::JobSpec spec;
  spec.job_id = 5;
  spec.nprocs = 1;
  spec.nnodes = 1;
  spec.seed = 9;
  sim::FileAccessSpec f;
  f.path = "/mnt/bb/state.dat";
  f.iface = sim::Interface::kStdio;
  f.write_bytes = 10 * kMB;
  f.write_op_size = 4096;
  f.rewrites = 2;
  f.sequential = false;
  spec.files.push_back(f);
  sim::FileAccessSpec g;
  g.path = "/gpfs/alpine/out.bin";  // PFS: no SSDEXT record
  g.write_bytes = 5 * kMB;
  g.write_op_size = kMB;
  spec.files.push_back(g);
  return spec;
}

TEST(SsdExt, ExecutorEmitsOnlyForFlashLayers) {
  const sim::Machine m = sim::Machine::summit();
  sim::ExecutorConfig cfg;
  cfg.enable_ssd_ext = true;
  const sim::JobExecutor ex(m, cfg);
  const LogData log = ex.execute(spec_with_insys_writes());

  std::size_t ssd_records = 0;
  for (const auto& r : log.records) {
    if (r.module != ModuleId::kSsdExt) continue;
    ++ssd_records;
    EXPECT_EQ(log.path_of(r.record_id), "/mnt/bb/state.dat");
    EXPECT_EQ(r.c(darshan::ssdext::REWRITE_BYTES), static_cast<std::int64_t>(20 * kMB));
    EXPECT_EQ(r.c(darshan::ssdext::RANDOM_WRITE_BYTES), static_cast<std::int64_t>(10 * kMB));
    EXPECT_EQ(r.c(darshan::ssdext::SEQ_WRITE_BYTES), 0);
    EXPECT_EQ(r.c(darshan::ssdext::DYNAMIC_BYTES), static_cast<std::int64_t>(10 * kMB));
    EXPECT_GT(r.c(darshan::ssdext::WAF_X1000), 1000);  // random small writes amplify
  }
  EXPECT_EQ(ssd_records, 1u);
}

TEST(SsdExt, DisabledByDefault) {
  const sim::Machine m = sim::Machine::summit();
  const sim::JobExecutor ex(m);
  const LogData log = ex.execute(spec_with_insys_writes());
  for (const auto& r : log.records) EXPECT_NE(r.module, ModuleId::kSsdExt);
}

TEST(SsdExt, StudyAccumulatesAndMerges) {
  const sim::Machine m = sim::Machine::summit();
  sim::ExecutorConfig cfg;
  cfg.enable_ssd_ext = true;
  const sim::JobExecutor ex(m, cfg);

  core::SsdStudy a, b, all;
  for (std::uint64_t j = 0; j < 6; ++j) {
    sim::JobSpec spec = spec_with_insys_writes();
    spec.job_id = 100 + j;
    const LogData log = ex.execute(spec);
    (j < 3 ? a : b).add_log(log);
    all.add_log(log);
  }
  a.merge(b);
  EXPECT_EQ(a.files(), all.files());
  EXPECT_EQ(a.files(), 6u);
  EXPECT_DOUBLE_EQ(a.rewrite_bytes(), all.rewrite_bytes());
  EXPECT_DOUBLE_EQ(a.dynamic_share(), 1.0);  // every written byte is rewritten here
  EXPECT_GT(a.waf().quantile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(a.cacheable_device_bytes(), 6.0 * 20 * kMB);
}

TEST(SsdExt, AnalysisIgnoresExtensionRecords) {
  // SSDEXT records must not perturb the §3 analyses (no phantom files).
  const sim::Machine m = sim::Machine::summit();
  sim::ExecutorConfig with;
  with.enable_ssd_ext = true;
  const LogData log_with = sim::JobExecutor(m, with).execute(spec_with_insys_writes());
  const LogData log_without = sim::JobExecutor(m).execute(spec_with_insys_writes());
  core::Analysis aw, ao;
  aw.add(log_with);
  ao.add(log_without);
  EXPECT_EQ(aw.summary().files(), ao.summary().files());
  EXPECT_DOUBLE_EQ(aw.access().layer(core::Layer::kInSystem).bytes_written,
                   ao.access().layer(core::Layer::kInSystem).bytes_written);
}

}  // namespace
}  // namespace mlio
