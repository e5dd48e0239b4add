#include "iosim/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string_view>
#include <vector>

#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio::sim {
namespace {

using darshan::FileRecord;
using darshan::kSharedRank;
using darshan::LogData;
using darshan::ModuleId;
using util::kGiB;
using util::kMB;
using util::kMiB;

JobSpec base_spec() {
  JobSpec spec;
  spec.job_id = 42;
  spec.user_id = 7;
  spec.nprocs = 8;
  spec.nnodes = 1;
  spec.exe = "test_app";
  spec.domain = "Physics";
  spec.seed = 1234;
  return spec;
}

std::uint64_t total_counter(const LogData& log, ModuleId mod, std::size_t idx) {
  std::uint64_t total = 0;
  for (const auto& r : log.records) {
    if (r.module == mod) total += static_cast<std::uint64_t>(r.counters[idx]);
  }
  return total;
}

TEST(Executor, ByteTotalsMatchTheSpec) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  FileAccessSpec f;
  f.path = "/gpfs/alpine/p/data.bin";
  f.iface = Interface::kPosix;
  f.read_bytes = 10 * kMB;
  f.write_bytes = 3 * kMB;
  f.read_op_size = 1 * kMB;
  f.write_op_size = 512 * 1000;
  spec.files.push_back(f);

  const LogData log = ex.execute(spec);
  EXPECT_EQ(total_counter(log, ModuleId::kPosix, darshan::posix::BYTES_READ), 10 * kMB);
  EXPECT_EQ(total_counter(log, ModuleId::kPosix, darshan::posix::BYTES_WRITTEN), 3 * kMB);
  EXPECT_EQ(log.job.job_id, 42u);
  EXPECT_EQ(log.job.metadata.at("domain"), "Physics");
  EXPECT_EQ(log.job.metadata.at("machine"), "Summit");
  EXPECT_GT(log.job.end_time, log.job.start_time);
}

TEST(Executor, SharedFileReducesToSharedRecord) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  FileAccessSpec f;
  f.path = "/gpfs/alpine/p/shared.h5";
  f.shared = true;
  f.read_bytes = 64 * kMB;
  f.read_op_size = 1 * kMB;
  spec.files.push_back(f);

  const LogData log = ex.execute(spec);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].rank, kSharedRank);
  EXPECT_EQ(log.records[0].c(darshan::posix::BYTES_READ),
            static_cast<std::int64_t>(64 * kMB));
  EXPECT_GT(log.records[0].f(darshan::posix::F_READ_TIME), 0.0);
}

TEST(Executor, LargeJobSharedFileUsesDirectSharedPath) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  spec.nprocs = 4096;  // above the executor's explicit-rank limit (64)
  spec.nnodes = 98;
  FileAccessSpec f;
  f.path = "/gpfs/alpine/p/big.h5";
  f.shared = true;
  f.write_bytes = 1 * kGiB;
  f.write_op_size = 16 * kMiB;
  spec.files.push_back(f);

  const LogData log = ex.execute(spec);
  ASSERT_EQ(log.records.size(), 1u);
  EXPECT_EQ(log.records[0].rank, kSharedRank);
}

TEST(Executor, MpiioMirrorsIntoPosix) {
  const Machine m = Machine::cori();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  FileAccessSpec f;
  f.path = "/global/cscratch1/sd/x.h5";
  f.iface = Interface::kMpiIo;
  f.shared = true;
  f.collective = true;
  f.read_bytes = 32 * kMB;
  f.read_op_size = 64 * 1000;
  spec.files.push_back(f);

  const LogData log = ex.execute(spec);
  bool has_mpiio = false, has_posix = false, has_lustre = false;
  for (const auto& r : log.records) {
    has_mpiio |= r.module == ModuleId::kMpiIo;
    has_posix |= r.module == ModuleId::kPosix;
    has_lustre |= r.module == ModuleId::kLustre;
  }
  EXPECT_TRUE(has_mpiio);
  EXPECT_TRUE(has_posix);
  EXPECT_TRUE(has_lustre);  // Lustre geometry record on Cori's PFS
  EXPECT_EQ(total_counter(log, ModuleId::kMpiIo, darshan::mpiio::BYTES_READ), 32 * kMB);
  EXPECT_EQ(total_counter(log, ModuleId::kPosix, darshan::posix::BYTES_READ), 32 * kMB);
  // Collective buffering: the tiny 64 KB application requests reach POSIX as
  // multi-MB aggregated transfers (each of the 8 ranks carries 4 MB here, so
  // the aggregated request lands in the 1M-4M bin, not in 10K-100K).
  EXPECT_GT(total_counter(log, ModuleId::kPosix, darshan::posix::SIZE_READ_1M_4M), 0u);
  EXPECT_EQ(total_counter(log, ModuleId::kPosix, darshan::posix::SIZE_READ_10K_100K), 0u);
}

TEST(Executor, StdioFileProducesOnlyStdioRecord) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  FileAccessSpec f;
  f.path = "/mnt/bb/out.log";
  f.iface = Interface::kStdio;
  f.write_bytes = 1 * kMB;
  f.write_op_size = 256;
  spec.files.push_back(f);

  const LogData log = ex.execute(spec);
  ASSERT_GE(log.records.size(), 1u);
  for (const auto& r : log.records) EXPECT_EQ(r.module, ModuleId::kStdio);
  EXPECT_EQ(total_counter(log, ModuleId::kStdio, darshan::stdio::BYTES_WRITTEN), 1 * kMB);
}

TEST(Executor, PathOutsideMountsThrows) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  FileAccessSpec f;
  f.path = "/home/user/oops.txt";
  f.read_bytes = 100;
  spec.files.push_back(f);
  EXPECT_THROW(ex.execute(spec), util::ConfigError);
}

TEST(Executor, DeterministicAcrossRuns) {
  const Machine m = Machine::cori();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  for (int i = 0; i < 10; ++i) {
    FileAccessSpec f;
    f.path = "/global/cscratch1/f" + std::to_string(i) + ".bin";
    f.read_bytes = static_cast<std::uint64_t>(i + 1) * kMB;
    f.read_op_size = 64 * 1000;
    f.shared = i % 2 == 0;
    spec.files.push_back(f);
  }
  EXPECT_TRUE(ex.execute(spec) == ex.execute(spec));
}

TEST(Executor, StagingReportCoversDirectives) {
  const Machine m = Machine::cori();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  spec.dw.capacity_request = 100 * kGiB;
  spec.dw.stage_in.push_back({"/var/opt/cray/dws/in", "/global/cscratch1/in", 50 * kGiB});
  spec.dw.stage_out.push_back({"/var/opt/cray/dws/out", "/global/cscratch1/out", 10 * kGiB});

  const StagingReport rep = ex.estimate_staging(spec);
  EXPECT_EQ(rep.bytes_in, 50 * kGiB);
  EXPECT_EQ(rep.bytes_out, 10 * kGiB);
  EXPECT_GT(rep.seconds_in, 0.0);
  EXPECT_GT(rep.seconds_out, 0.0);
  // Staging runs at bulk-transfer rates: 50 GiB should take seconds-to-
  // minutes, not hours.
  EXPECT_LT(rep.seconds_in, 3600.0);
}

TEST(Executor, EmptyDirectivesReportZero) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  const StagingReport rep = ex.estimate_staging(base_spec());
  EXPECT_EQ(rep.bytes_in + rep.bytes_out, 0u);
  EXPECT_DOUBLE_EQ(rep.seconds_in + rep.seconds_out, 0.0);
}

// --- Golden digests -------------------------------------------------------
//
// Hash the generated logs of a fixed (system, seed, jobs) matrix field by
// field: the job record and its metadata, the mount table, the names in
// insertion order, each record's id, rank, module and every counter and
// fcounter word (doubles by bit pattern), and the DXT events.  The walk
// reads each LogData, not its serialized bytes, so the pins prove the
// executor unchanged across log-format versions.  Any hot-path
// restructuring (path interning, batched rank emission, layer tables) must
// keep every generated field identical, so these values must never change
// without an explicit population bump.  The names are hashed in the
// runtime's hash-map iteration order (see Runtime::finalize_into), so the
// digests additionally pin that order.

struct Fnv1a {
  std::uint64_t h = 1469598103934665603ull;

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
};

void hash_log(Fnv1a& f, const LogData& log) {
  const darshan::JobRecord& job = log.job;
  f.u64(job.job_id);
  f.u64(job.user_id);
  f.u64(job.nprocs);
  f.u64(job.nnodes);
  f.i64(job.start_time);
  f.i64(job.end_time);
  f.str(job.exe);
  f.u64(job.metadata.size());
  for (const auto& [k, v] : job.metadata) {
    f.str(k);
    f.str(v);
  }
  f.u64(log.mounts.size());
  for (const darshan::MountEntry& m : log.mounts) {
    f.str(m.prefix);
    f.str(m.fs_type);
  }
  f.u64(log.names.size());
  for (const auto& [id, path] : log.names) {
    f.u64(id);
    f.str(path);
  }
  f.u64(log.records.size());
  for (const FileRecord& rec : log.records) {
    f.u64(rec.record_id);
    f.i64(rec.rank);
    f.u64(static_cast<std::uint64_t>(rec.module));
    f.u64(rec.counters.size());
    for (const std::int64_t c : rec.counters) f.i64(c);
    f.u64(rec.fcounters.size());
    for (const double x : rec.fcounters) f.f64(x);
  }
  f.u64(log.dxt.size());
  for (const darshan::DxtRecord& rec : log.dxt) {
    f.u64(rec.record_id);
    f.u64(static_cast<std::uint64_t>(rec.module));
    f.u64(rec.events.size());
    for (const darshan::DxtEvent& e : rec.events) {
      f.u64(static_cast<std::uint64_t>(e.op));
      f.i64(e.rank);
      f.u64(e.offset);
      f.u64(e.length);
      f.f64(e.start);
      f.f64(e.end);
    }
  }
}

std::uint64_t population_digest(const wl::SystemProfile& profile, std::uint64_t seed,
                                std::uint64_t jobs, const ExecutorConfig& cfg = {}) {
  wl::GeneratorConfig gc;
  gc.seed = seed;
  gc.n_jobs = jobs;
  gc.logs_per_job_scale = 0.25;
  gc.files_per_log_scale = 0.25;
  const wl::WorkloadGenerator gen(profile, gc);
  const JobExecutor ex(wl::machine_for(profile), cfg);
  darshan::LogData log;
  Fnv1a f;
  gen.generate_bulk_range(0, jobs, [&](const JobSpec& spec) {
    ex.execute_into(spec, log);
    hash_log(f, log);
  });
  return f.h;
}

TEST(Executor, GoldenDigestSummit) {
  EXPECT_EQ(population_digest(wl::SystemProfile::summit_2020(), 42, 12), 8330356133369334639ull);
}

TEST(Executor, GoldenDigestCori) {
  EXPECT_EQ(population_digest(wl::SystemProfile::cori_2019(), 42, 12), 6383985055691448516ull);
}

TEST(Executor, GoldenDigestSecondSeed) {
  EXPECT_EQ(population_digest(wl::SystemProfile::summit_2020(), 7, 5), 5827509387740685342ull);
  EXPECT_EQ(population_digest(wl::SystemProfile::cori_2019(), 7, 5), 3988876576809903865ull);
}

TEST(Executor, GoldenDigestWithExtensions) {
  // DXT traces and SSDEXT records ride the same hot path; pin them too.
  ExecutorConfig cfg;
  cfg.enable_dxt = true;
  cfg.enable_ssd_ext = true;
  EXPECT_EQ(population_digest(wl::SystemProfile::summit_2020(), 1234, 6, cfg),
            14234275583718403522ull);
  EXPECT_EQ(population_digest(wl::SystemProfile::cori_2019(), 1234, 6, cfg), 881376348221370745ull);
}

// --- The direct body writer -----------------------------------------------
//
// execute_body writes each log body straight from the runtime's table;
// execute_into builds the reference LogData.  Every body must be the bytes
// write_log_body writes for that LogData.

/// Jobs of a generated population, bulk and (optionally) hero strata.
std::vector<JobSpec> population(const wl::SystemProfile& profile, std::uint64_t seed,
                                std::uint64_t jobs, bool huge) {
  wl::GeneratorConfig gc;
  gc.seed = seed;
  gc.n_jobs = jobs;
  gc.logs_per_job_scale = 0.25;
  gc.files_per_log_scale = 0.25;
  const wl::WorkloadGenerator gen(profile, gc);
  std::vector<JobSpec> specs;
  const auto keep = [&](const JobSpec& spec) { specs.push_back(spec); };
  gen.generate_bulk_range(0, jobs, keep);
  if (huge) gen.generate_huge_range(0, gen.huge_job_count(), keep);
  return specs;
}

/// The ingest population: 300 Summit-2020 and 300 Cori-2019 jobs at 1/4
/// logs and files, with the hero stratum, under the default generator seed.
std::vector<std::pair<const Machine*, JobSpec>> ingest_population() {
  std::vector<std::pair<const Machine*, JobSpec>> out;
  for (const wl::SystemProfile& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    const Machine& m = wl::machine_for(profile);
    for (JobSpec& spec : population(profile, wl::GeneratorConfig{}.seed, 300, true)) {
      out.emplace_back(&m, std::move(spec));
    }
  }
  return out;
}

/// execute_body's bytes through `rt` against write_log_body of
/// execute_into's LogData, for one job.
void expect_same_body(const JobExecutor& ex, const JobSpec& spec, darshan::Runtime& rt) {
  util::ByteWriter direct;
  ex.execute_body(spec, rt, direct);
  LogData log;
  ex.execute_into(spec, log);
  darshan::LogIoBuffers io;
  darshan::write_log_body(io.body, log, io);
  ASSERT_EQ(direct.size(), io.body.size()) << "job " << spec.job_id;
  EXPECT_TRUE(std::ranges::equal(direct.view(), io.body.view())) << "job " << spec.job_id;
  EXPECT_TRUE(rt.job() == log.job) << "job " << spec.job_id;
}

TEST(Executor, DirectBodyMatchesTheLogDataBodyOverTheIngestPopulation) {
  // One runtime for the whole sweep, as a serializing worker keeps it.
  darshan::Runtime rt;
  std::size_t logs = 0;
  for (const auto& [machine, spec] : ingest_population()) {
    expect_same_body(JobExecutor(*machine), spec, rt);
    logs += 1;
  }
  EXPECT_EQ(logs, 2416u);
}

TEST(Executor, DirectBodyMatchesTheLogDataBodyWithExtensions) {
  // The DXT + SSD-extension configuration GoldenDigestWithExtensions pins.
  ExecutorConfig cfg;
  cfg.enable_dxt = true;
  cfg.enable_ssd_ext = true;
  darshan::Runtime rt;
  for (const wl::SystemProfile& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    const JobExecutor ex(wl::machine_for(profile), cfg);
    for (const JobSpec& spec : population(profile, 1234, 6, false)) expect_same_body(ex, spec, rt);
  }
}

TEST(Executor, DirectBodyMatchesTheLogDataBodyForARepeatedPath) {
  // One path named by two FileAccessSpecs: the second finds the first's
  // groups and adds to their rows, over a different rank range.
  ExecutorConfig cfg;
  cfg.enable_dxt = true;
  cfg.enable_ssd_ext = true;
  const Machine m = Machine::cori();
  const JobExecutor ex(m, cfg);
  JobSpec spec = base_spec();
  FileAccessSpec a;
  a.path = "/global/cscratch1/sd/twice.h5";
  a.iface = Interface::kMpiIo;
  a.ranks = 3;
  a.read_bytes = 5 * kMB + 3;
  a.read_op_size = 64 * 1000;
  FileAccessSpec b = a;
  b.shared = true;
  b.write_bytes = 7 * kMB;
  FileAccessSpec c;
  c.path = "/var/opt/cray/dws/job/twice.out";
  c.write_bytes = 2;  // fewer bytes than ranks: only the remainder rows
  c.ranks = 4;
  FileAccessSpec d = c;
  d.write_bytes = 9 * kMB;
  d.rewrites = 2;
  spec.files = {a, c, b, d};
  darshan::Runtime rt;
  expect_same_body(ex, spec, rt);
  LogData log;
  ex.execute_into(spec, log);
  EXPECT_EQ(log.names.size(), 2u);
}

TEST(Executor, RetainedTableFollowsTheCurrentJob) {
  // The runtime a worker keeps must not hold the largest job's table for
  // the rest of its life: after a small job, its retained words follow the
  // small job.
  const auto jobs = ingest_population();
  darshan::Runtime rt;
  util::ByteWriter body;
  std::size_t largest = 0, smallest = 0, most_words = 0, least_bytes = SIZE_MAX;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    darshan::Runtime fresh;
    JobExecutor(*jobs[i].first).execute_body(jobs[i].second, fresh, body);
    if (fresh.retained_words() > most_words) {
      most_words = fresh.retained_words();
      largest = i;
    }
    if (body.size() < least_bytes) {
      least_bytes = body.size();
      smallest = i;
    }
  }
  JobExecutor(*jobs[largest].first).execute_body(jobs[largest].second, rt, body);
  // The largest job (9,164 rows) needs about 3.2 MB of words.
  EXPECT_GT(rt.retained_words() * 8, std::size_t{2} << 20);
  JobExecutor(*jobs[smallest].first).execute_body(jobs[smallest].second, rt, body);
  // A job of a few rows fits one 64 KiB chunk: twice that plus 128 KiB.
  EXPECT_LE(rt.retained_words() * 8, std::size_t{256} << 10);
}

TEST(Executor, InvalidSpecThrows) {
  const Machine m = Machine::summit();
  const JobExecutor ex(m);
  JobSpec spec = base_spec();
  spec.nprocs = 0;
  EXPECT_THROW(ex.execute(spec), util::ConfigError);
}

}  // namespace
}  // namespace mlio::sim
