// Differential pins for the ingest overhaul: the scratch-reused path
// (arena name table, run-scan summarize, memoized mount resolution) must be
// bit-identical to the seed's allocating path — same FileSummary fields down
// to the double bit patterns, same Analysis fingerprints — over generated
// workloads AND adversarial edge-case logs.  The pipeline and archive
// fingerprints are additionally pinned to literals captured on main before
// this overhaul, so any silent behavior change in the rewrite fails here
// even if both modes drift together.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "archive/query.hpp"
#include "core/analysis.hpp"
#include "core/dataset.hpp"
#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "iosim/executor.hpp"
#include "util/byte_io.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio {
namespace {

using core::FileSummary;
using darshan::LogData;
using darshan::ModuleId;
using darshan::MountEntry;
using darshan::Runtime;

/// FNV-1a 64 over a byte string.
std::uint64_t fnv1a(std::span<const std::byte> bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) h = (h ^ static_cast<std::uint8_t>(b)) * 0x100000001b3ull;
  return h;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// Field-by-field comparison, doubles by bit pattern: "close enough" is not
// the contract — the scratch path promises the identical accumulation order.
void expect_identical(const std::vector<FileSummary>& seed,
                      const std::vector<FileSummary>& scratch, const char* what) {
  ASSERT_EQ(seed.size(), scratch.size()) << what;
  for (std::size_t i = 0; i < seed.size(); ++i) {
    const FileSummary& a = seed[i];
    const FileSummary& b = scratch[i];
    EXPECT_EQ(a.record_id, b.record_id) << what << " file " << i;
    EXPECT_EQ(a.layer, b.layer) << what << " file " << i;
    EXPECT_EQ(a.data_iface, b.data_iface) << what << " file " << i;
    EXPECT_EQ(a.used_posix, b.used_posix) << what << " file " << i;
    EXPECT_EQ(a.used_mpiio, b.used_mpiio) << what << " file " << i;
    EXPECT_EQ(a.used_stdio, b.used_stdio) << what << " file " << i;
    EXPECT_EQ(a.bytes_read, b.bytes_read) << what << " file " << i;
    EXPECT_EQ(a.bytes_written, b.bytes_written) << what << " file " << i;
    EXPECT_TRUE(same_bits(a.read_time, b.read_time)) << what << " file " << i;
    EXPECT_TRUE(same_bits(a.write_time, b.write_time)) << what << " file " << i;
    EXPECT_EQ(a.shared, b.shared) << what << " file " << i;
    EXPECT_EQ(a.req_read, b.req_read) << what << " file " << i;
    EXPECT_EQ(a.req_write, b.req_write) << what << " file " << i;
    EXPECT_EQ(std::string(a.path), std::string(b.path)) << what << " file " << i;
  }
}

// Run one log through both summarize paths and demand identity.  The scratch
// is shared across calls by design — recycling across wildly different logs
// is exactly what production does and what this exercises.
void expect_paths_agree(const LogData& log, core::SummarizeScratch& scratch, const char* what) {
  std::uint64_t dropped_seed = 0;
  std::uint64_t dropped_scratch = 0;
  const auto seed = core::summarize_log(log, &dropped_seed);
  const auto& fast = core::summarize_log(log, scratch, &dropped_scratch);
  EXPECT_EQ(dropped_seed, dropped_scratch) << what;
  expect_identical(seed, fast, what);
}

template <typename Fn>
void for_each_generated_log(const wl::SystemProfile& profile, std::uint64_t n_jobs,
                            std::uint64_t seed, Fn&& fn) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.25;
  cfg.files_per_log_scale = 0.25;
  const wl::WorkloadGenerator gen(profile, cfg);
  const sim::JobExecutor executor(wl::machine_for(profile));
  LogData log;
  gen.generate_bulk_range(0, n_jobs, [&](const sim::JobSpec& spec) {
    executor.execute_into(spec, log);
    fn(log);
  });
}

TEST(IngestDifferential, GeneratedLogsSummitAndCori) {
  for (const auto& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    core::SummarizeScratch scratch;
    std::uint64_t logs = 0;
    for_each_generated_log(profile, 20, 42, [&](const LogData& log) {
      expect_paths_agree(log, scratch, profile.system.c_str());
      ++logs;
    });
    EXPECT_GT(logs, 0u) << profile.system;
  }
}

TEST(IngestDifferential, SerializedLogsRoundTrip) {
  // A frame written from an in-memory log and parsed back must yield the
  // same log semantically: equal name table, equal mounts, and identical
  // summaries.  The reader's buffers are reused across logs of varying size.
  darshan::LogIoBuffers wio;
  darshan::LogIoBuffers rio;
  LogData parsed;
  core::SummarizeScratch scratch;
  const darshan::WriteOptions wopts{false, 0};

  for_each_generated_log(wl::SystemProfile::summit_2020(), 8, 7, [&](const LogData& log) {
    const auto frame = darshan::write_log_bytes_into(log, wio, wopts);
    darshan::read_log_bytes_into(frame, rio, parsed);
    EXPECT_TRUE(parsed.names == log.names);
    EXPECT_TRUE(parsed.mounts == log.mounts);
    expect_paths_agree(parsed, scratch, "roundtrip");
    expect_identical(core::summarize_log(log), core::summarize_log(parsed), "roundtrip");
  });
}

// ---------------------------------------------------------------------------
// Edge cases the generator never emits.  One shared scratch throughout, so
// the memoized mount table sees the mount set change between every log.

darshan::JobRecord small_job(std::uint32_t nprocs) {
  darshan::JobRecord j;
  j.job_id = 9;
  j.nprocs = nprocs;
  j.nnodes = 1;
  return j;
}

TEST(IngestDifferential, EdgeCaseLogs) {
  core::SummarizeScratch scratch;

  {  // Empty mount table: every file is unattributed.
    Runtime rt(small_job(1), {});
    auto h = rt.open_file(ModuleId::kPosix, 0, "/anywhere/x", 0);
    rt.record_reads(h, 0, 4096, 2, 0, 0.1);
    expect_paths_agree(rt.finalize(0, 1), scratch, "empty mounts");
  }
  {  // Mixed attributed and unattributed paths.
    Runtime rt(small_job(1), {{"/gpfs/alpine", "gpfs"}});
    auto h1 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/in", 0);
    rt.record_writes(h1, 0, 1024, 4, 0, 0.2);
    auto h2 = rt.open_file(ModuleId::kPosix, 0, "/home/u/out", 0);
    rt.record_writes(h2, 0, 1024, 4, 0, 0.2);
    expect_paths_agree(rt.finalize(0, 1), scratch, "unattributed mix");
  }
  {  // Shared-rank-only file: all ranks touch it, reduced to one rank -1 row.
    Runtime rt(small_job(4), {{"/gpfs/alpine", "gpfs"}});
    for (std::int32_t r = 0; r < 4; ++r) {
      auto h = rt.open_file(ModuleId::kPosix, r, "/gpfs/alpine/shared.h5", 0);
      rt.record_reads(h, r, 1 << 20, 1, 0, 0.5);
    }
    expect_paths_agree(rt.finalize(0, 1), scratch, "shared-rank-only");
  }
  {  // Empty-prefix mount matches every path (and an unknown fs type shadow).
    Runtime rt(small_job(1), {{"", "gpfs"}, {"/scratch", "weirdfs"}});
    auto h1 = rt.open_file(ModuleId::kStdio, 0, "/scratch/log.txt", 0);
    rt.record_writes(h1, 0, 64, 10, 0, 0.1);
    auto h2 = rt.open_file(ModuleId::kPosix, 0, "relative/path", 0);
    rt.record_reads(h2, 0, 512, 1, 0, 0.1);
    expect_paths_agree(rt.finalize(0, 1), scratch, "empty prefix + unknown fs");
  }
  {  // Duplicate name-map ids: first occurrence wins, as with the seed's map.
    LogData log;
    log.job = small_job(1);
    log.mounts = {{"/gpfs/alpine", "gpfs"}};
    darshan::FileRecord rec(darshan::hash_record_id("/gpfs/alpine/dup"), 0, ModuleId::kPosix);
    rec.counters[darshan::posix::BYTES_READ] = 10;
    rec.counters[darshan::posix::OPENS] = 1;
    log.names.add(rec.record_id, "/gpfs/alpine/dup");
    log.names.add(rec.record_id, "/gpfs/alpine/WRONG");
    log.names.seal();
    log.records.push_back(rec);
    expect_paths_agree(log, scratch, "duplicate name ids");
    const auto files = core::summarize_log(log, scratch);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(std::string(files[0].path), "/gpfs/alpine/dup");
  }
  {  // Lustre/SSDEXT-only log: no data-interface records, no summaries.
    Runtime rt(small_job(1), {{"/global/cscratch1", "lustre"}, {"/mnt/bb", "xfs"}});
    rt.record_lustre("/global/cscratch1/x.h5", 1 << 20, 4, 0, 5, 248);
    rt.record_ssd("/mnt/bb/y", 100, 200, 50, 150, 100, 1.5);
    const LogData log = rt.finalize(0, 1);
    expect_paths_agree(log, scratch, "lustre/ssd only");
    EXPECT_TRUE(core::summarize_log(log, scratch).empty());
  }
}

// ---------------------------------------------------------------------------
// Whole-population equivalence and pinned fingerprints.

TEST(IngestDifferential, AnalysisFingerprintsMatchAcrossModes) {
  for (const auto& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    core::Analysis via_seed;
    core::Analysis via_scratch;
    core::AnalyzeScratch scratch;
    for_each_generated_log(profile, 20, 42, [&](const LogData& log) {
      via_seed.add(log);
      via_scratch.add(log, scratch);
    });
    EXPECT_EQ(via_seed.fingerprint(), via_scratch.fingerprint()) << profile.system;
  }
}

// 30 bulk jobs, seed 42, scales 0.25, two worker threads.  The full
// pipeline — generate, execute, serialize, reparse, analyze — must land on
// these exact fingerprints.
TEST(IngestDifferential, PipelineFingerprintsPinned) {
  struct Pin {
    wl::SystemProfile profile;
    std::uint64_t bulk;
    std::uint64_t huge;
  };
  const Pin pins[] = {
      {wl::SystemProfile::summit_2020(), 7789115842032740151ull, 6759262265164913400ull},
      {wl::SystemProfile::cori_2019(), 14360875598151403283ull, 16571559548920585184ull},
  };
  for (const Pin& pin : pins) {
    wl::GeneratorConfig cfg;
    cfg.seed = 42;
    cfg.n_jobs = 30;
    cfg.logs_per_job_scale = 0.25;
    cfg.files_per_log_scale = 0.25;
    const wl::WorkloadGenerator gen(pin.profile, cfg);
    wl::PipelineOptions opts;
    opts.threads = 2;
    const auto r = wl::run_pipeline(gen, opts);
    EXPECT_EQ(r.bulk.fingerprint(), pin.bulk) << pin.profile.system;
    EXPECT_EQ(r.huge.fingerprint(), pin.huge) << pin.profile.system;
  }
}

// A cold archive scan (no snapshots) over a 24-job Cori ingest.  Pins the
// scratch-threaded scan_partition + Analysis::add chain.
TEST(IngestDifferential, ArchiveColdQueryFingerprintPinned) {
  const auto dir =
      std::filesystem::temp_directory_path() / "mlio_test_ingest_differential_archive";
  std::filesystem::remove_all(dir);
  wl::GeneratorConfig cfg;
  cfg.seed = 7;
  cfg.n_jobs = 24;
  cfg.logs_per_job_scale = 0.25;
  cfg.files_per_log_scale = 0.25;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  archive::Archive ar = archive::Archive::create(dir);
  archive::IngestOptions io;
  io.batches = 4;
  io.ingest_threads = 2;
  io.write_snapshots = false;
  archive::ingest_generated(ar, gen, io);
  archive::QueryOptions qo;
  qo.threads = 2;
  qo.write_snapshots = false;
  const auto q = query_archive(ar, qo);
  EXPECT_EQ(q.analysis.fingerprint(), 681279179527013092ull);
  // The fingerprint hashes neither the per-job maps nor the sample entries;
  // the canonical state bytes cover both.
  util::ByteWriter w;
  q.analysis.save(w);
  EXPECT_EQ(fnv1a(w.take()), 2545916944106061150ull);
  EXPECT_EQ(q.stats.logs_scanned, 244u);
  // The phase split is new telemetry; a cold scan must populate it.
  EXPECT_GT(q.stats.parse_seconds, 0.0);
  EXPECT_GT(q.stats.summarize_seconds, 0.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlio
