// Differential pins for the read path: the read kernel (a log body walked
// in place, summarized through the scratch state) and the scratch summarize
// over a parsed log must agree with the reference — the allocating
// summarize_log / Analysis::add(LogData) pair — on every FileSummary field
// down to the double bit patterns and on the Analysis save() bytes, over
// generated workloads AND adversarial edge-case logs.  The pipeline and
// archive fingerprints are additionally pinned to literals, so a silent
// behavior change fails here even if both paths drift together.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "core/analysis.hpp"
#include "core/dataset.hpp"
#include "darshan/counters.hpp"
#include "darshan/log_format.hpp"
#include "darshan/runtime.hpp"
#include "harness/cold_query.hpp"
#include "harness/plain_frame.hpp"
#include "harness/record_block.hpp"
#include "iosim/executor.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
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

// The kernel emits a log's summaries in order of each file's first record;
// the reference sorts them by record id.  Accumulators are order-free, so
// only the per-file contents must match: compare in record-id order.
std::vector<FileSummary> by_record_id(std::vector<FileSummary> files) {
  std::sort(files.begin(), files.end(),
            [](const FileSummary& a, const FileSummary& b) { return a.record_id < b.record_id; });
  return files;
}

// Run one log through the reference and the scratch summarize and demand
// identity.  The scratch is shared across calls by design — recycling across
// wildly different logs is exactly what production does and what this
// exercises.
void expect_paths_agree(const LogData& log, core::SummarizeScratch& scratch, const char* what) {
  std::uint64_t dropped_seed = 0;
  std::uint64_t dropped_scratch = 0;
  const auto seed = core::summarize_log(log, &dropped_seed);
  const auto fast = by_record_id(core::summarize_log(log, scratch, &dropped_scratch));
  EXPECT_EQ(dropped_seed, dropped_scratch) << what;
  expect_identical(seed, fast, what);
}

std::vector<std::byte> state_bytes(const core::Analysis& a) {
  util::ByteWriter w;
  a.save(w);
  return w.take();
}

/// Reusable state of the body kernel, shared across logs like a scan's.
/// After expect_kernel_agrees, `body` is the walk of `frame`.
struct KernelScratch {
  std::vector<std::byte> frame;
  darshan::LogIoBuffers io;
  darshan::LogBody body;
  core::AnalyzeScratch analyze;
};

// Every word of every walked record, read in place through c(i)/f(i), must
// equal the word of the materialized FileRecord at the same position and of
// the source record it was written from (the body groups records by module,
// in order within a module), doubles by bit pattern.
void expect_views_match(const darshan::LogBody& body, const LogData& parsed, const LogData& log,
                        const char* what) {
  std::vector<const darshan::FileRecord*> source;
  for (std::size_t m = 0; m < darshan::kModuleCount; ++m) {
    for (const darshan::FileRecord& rec : log.records) {
      if (static_cast<std::size_t>(rec.module) == m) source.push_back(&rec);
    }
  }
  ASSERT_EQ(body.records.size(), parsed.records.size()) << what;
  ASSERT_EQ(body.records.size(), source.size()) << what;
  for (std::size_t k = 0; k < body.records.size(); ++k) {
    const darshan::RecordView& view = body.records[k];
    for (const darshan::FileRecord* rec : {&parsed.records[k], source[k]}) {
      ASSERT_EQ(view.record_id, rec->record_id) << what << " record " << k;
      ASSERT_EQ(view.module, rec->module) << what << " record " << k;
      EXPECT_EQ(view.rank, rec->rank) << what << " record " << k;
      ASSERT_EQ(rec->counters.size(), darshan::counter_count(view.module));
      ASSERT_EQ(rec->fcounters.size(), darshan::fcounter_count(view.module));
      for (std::size_t i = 0; i < rec->counters.size(); ++i) {
        EXPECT_EQ(view.c(i), rec->counters[i]) << what << " record " << k << " counter " << i;
      }
      for (std::size_t i = 0; i < rec->fcounters.size(); ++i) {
        EXPECT_TRUE(same_bits(view.f(i), rec->fcounters[i]))
            << what << " record " << k << " fcounter " << i;
      }
    }
  }
}

// Run `frame`, which encodes `log`, through the body kernel: walk the body
// in place, summarize it, add it.  The summaries and the Analysis state must
// equal the reference's, both on the in-memory log and on the log
// read_log_bytes parses back from the frame, and every in-place word must
// equal its materialized and source word.
void expect_frame_agrees(const LogData& log, std::vector<std::byte> frame, KernelScratch& ks,
                         const char* what) {
  ks.frame = std::move(frame);
  const LogData parsed = darshan::read_log_bytes(ks.frame);
  darshan::walk_log_body(darshan::read_log_frame_body(ks.frame, ks.io), ks.body);
  expect_views_match(ks.body, parsed, log, what);

  std::uint64_t dropped_kernel = 0;
  std::uint64_t dropped_ref = 0;
  const auto kernel = by_record_id(core::summarize_log(ks.body, ks.analyze.summarize,
                                                       &dropped_kernel));
  const auto ref = core::summarize_log(log, &dropped_ref);
  EXPECT_EQ(dropped_kernel, dropped_ref) << what;
  expect_identical(ref, kernel, what);
  expect_identical(core::summarize_log(parsed), kernel, what);

  core::Analysis via_kernel;
  via_kernel.add(ks.body, ks.analyze);
  core::Analysis via_log;
  via_log.add(log);
  core::Analysis via_parsed;
  via_parsed.add(parsed);
  EXPECT_EQ(state_bytes(via_kernel), state_bytes(via_log)) << what;
  EXPECT_EQ(state_bytes(via_kernel), state_bytes(via_parsed)) << what;
}

// Frame `log` and check the frame through the body kernel.
void expect_kernel_agrees(const LogData& log, KernelScratch& ks, const char* what) {
  expect_frame_agrees(log, darshan::write_log_bytes(log), ks, what);
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
    KernelScratch ks;
    std::uint64_t logs = 0;
    for_each_generated_log(profile, 20, 42, [&](const LogData& log) {
      expect_paths_agree(log, scratch, profile.system.c_str());
      expect_kernel_agrees(log, ks, profile.system.c_str());
      ++logs;
    });
    EXPECT_GT(logs, 0u) << profile.system;
  }
}

TEST(IngestDifferential, SerializedLogsRoundTrip) {
  // A frame written from an in-memory log and parsed back must yield the
  // same log semantically: equal name map, equal mounts, and identical
  // summaries.  The reader's buffers are reused across logs of varying size.
  darshan::LogIoBuffers wio;
  darshan::LogIoBuffers rio;
  LogData parsed;
  core::SummarizeScratch scratch;

  for_each_generated_log(wl::SystemProfile::summit_2020(), 8, 7, [&](const LogData& log) {
    const auto frame = darshan::write_log_bytes_into(log, wio);
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
  {  // A repeated name-map id: the first insert wins, as with the seed's map.
    LogData log;
    log.job = small_job(1);
    log.mounts = {{"/gpfs/alpine", "gpfs"}};
    darshan::FileRecord rec(darshan::hash_record_id("/gpfs/alpine/dup"), 0, ModuleId::kPosix);
    rec.counters[darshan::posix::BYTES_READ] = 10;
    rec.counters[darshan::posix::OPENS] = 1;
    log.names.try_emplace(rec.record_id, "/gpfs/alpine/dup");
    log.names.try_emplace(rec.record_id, "/gpfs/alpine/WRONG");
    log.records.push_back(rec);
    expect_paths_agree(log, scratch, "duplicate name ids");
    const auto files = core::summarize_log(log, scratch);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(std::string(files[0].path), "/gpfs/alpine/dup");
  }
  {  // Lustre/SSDEXT-only log: no data-interface records, no summaries.
    Runtime rt(small_job(1), {{"/global/cscratch1", "lustre"}, {"/mnt/bb", "xfs"}});
    rt.record_lustre(rt.intern_path("/global/cscratch1/x.h5"), 1 << 20, 4, 0, 5, 248);
    rt.record_ssd(rt.intern_path("/mnt/bb/y"), 100, 200, 50, 150, 100, 1.5);
    const LogData log = rt.finalize(0, 1);
    expect_paths_agree(log, scratch, "lustre/ssd only");
    EXPECT_TRUE(core::summarize_log(log, scratch).empty());
  }
}

// Edge cases through the body kernel: each log is framed, and the frame's
// walk must summarize and accumulate exactly as the reference does.  One
// kernel scratch throughout, as in a scan.
TEST(IngestDifferential, BodyKernelEdgeCases) {
  KernelScratch ks;

  {  // Duplicate name ids in the body: the first entry wins.  A LogData
     // holds one path per id, so the body carrying both is written by hand.
    LogData log;
    log.job = small_job(1);
    log.mounts = {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}};
    darshan::FileRecord rec(darshan::hash_record_id("/gpfs/alpine/dup"), -1, ModuleId::kPosix);
    rec.counters[darshan::posix::BYTES_READ] = 1 << 20;
    rec.fcounters[darshan::posix::F_READ_TIME] = 0.25;
    log.names.try_emplace(rec.record_id, "/gpfs/alpine/dup");
    log.records.push_back(rec);
    const auto frame_with_names = [&](const std::vector<std::string>& paths) {
      util::ByteWriter w;
      w.u64(log.job.job_id);
      w.u32(log.job.user_id);
      w.u32(log.job.nprocs);
      w.u32(log.job.nnodes);
      w.i64(log.job.start_time);
      w.i64(log.job.end_time);
      w.str(log.job.exe);
      w.u32(0);  // metadata
      w.u32(static_cast<std::uint32_t>(log.mounts.size()));
      for (const MountEntry& m : log.mounts) {
        w.str(m.prefix);
        w.str(m.fs_type);
      }
      w.u32(static_cast<std::uint32_t>(paths.size()));
      for (const std::string& path : paths) {
        w.u64(rec.record_id);
        w.str(path);
      }
      w.u32(1);  // one module region holding the one record
      w.u8(static_cast<std::uint8_t>(rec.module));
      w.u32(static_cast<std::uint32_t>(rec.counters.size()));
      w.u32(static_cast<std::uint32_t>(rec.fcounters.size()));
      w.u32(1);
      harness::write_record_block(w, rec);
      w.u32(0);  // DXT
      return harness::plain_frame(w.view());
    };
    // With one name the hand-written body is the writer's own.
    ASSERT_EQ(frame_with_names({"/gpfs/alpine/dup"}), harness::plain_log_frame(log));
    expect_frame_agrees(log, frame_with_names({"/gpfs/alpine/dup", "/mnt/bb/WRONG"}), ks,
                        "duplicate name ids");
    EXPECT_EQ(ks.body.names.size(), 1u);
    EXPECT_EQ(ks.body.path_of(rec.record_id), "/gpfs/alpine/dup");
    EXPECT_TRUE(darshan::read_log_bytes(ks.frame).names == log.names);
    const auto& files = core::summarize_log(ks.body, ks.analyze.summarize);
    ASSERT_EQ(files.size(), 1u);
    EXPECT_EQ(files[0].layer, core::Layer::kPfs);
  }
  {  // A record id with no name: an empty path, unattributed unless a mount
     // with an empty prefix claims it.
    for (const std::vector<MountEntry>& mounts :
         {std::vector<MountEntry>{{"/gpfs/alpine", "gpfs"}},
          std::vector<MountEntry>{{"", "xfs"}, {"/gpfs/alpine", "gpfs"}}}) {
      Runtime rt(small_job(2), mounts);
      auto h = rt.open_file(ModuleId::kPosix, 0, "/gpfs/alpine/named", 0);
      rt.record_writes(h, 0, 4096, 3, 0, 0.1);
      LogData log = rt.finalize(0, 1);
      darshan::FileRecord orphan(0x0123456789abcdefull, -1, ModuleId::kStdio);
      orphan.counters[darshan::stdio::BYTES_WRITTEN] = 512;
      orphan.fcounters[darshan::stdio::F_WRITE_TIME] = 0.5;
      log.records.push_back(orphan);
      ASSERT_TRUE(log.path_of(orphan.record_id).empty());
      expect_kernel_agrees(log, ks, "record id with no name");
    }
  }
  {  // An unknown-fs mount shadows the shorter known mount it sits under.
    Runtime rt(small_job(1), {{"/gpfs", "gpfs"}, {"/gpfs/odd", "weirdfs"}});
    auto h1 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/odd/shadowed", 0);
    rt.record_reads(h1, 0, 8192, 2, 0, 0.1);
    auto h2 = rt.open_file(ModuleId::kPosix, 0, "/gpfs/plain", 0);
    rt.record_reads(h2, 0, 8192, 2, 0, 0.1);
    const LogData log = rt.finalize(0, 1);
    expect_kernel_agrees(log, ks, "unknown fs shadows a shorter mount");
    std::uint64_t dropped = 0;
    const auto& files = core::summarize_log(ks.body, ks.analyze.summarize, &dropped);
    EXPECT_EQ(files.size(), 1u);
    EXPECT_EQ(dropped, 1u);
  }
  {  // Lustre and SSD-extension records beside the data records of the same
     // files: they carry no transfers and must not disturb the summaries.
    Runtime rt(small_job(4), {{"/global/cscratch1", "lustre"}, {"/mnt/bb", "xfs"}});
    for (std::int32_t r = 0; r < 4; ++r) {
      auto h = rt.open_file(ModuleId::kPosix, r, "/global/cscratch1/x.h5", 0);
      rt.record_writes(h, r, 1 << 20, 2, 0, 0.3);
    }
    auto hs = rt.open_file(ModuleId::kStdio, 0, "/mnt/bb/y", 0);
    rt.record_reads(hs, 0, 300, 5, 0, 0.2);
    rt.record_lustre(rt.intern_path("/global/cscratch1/x.h5"), 1 << 20, 4, 0, 5, 248);
    rt.record_ssd(rt.intern_path("/mnt/bb/y"), 100, 200, 50, 150, 100, 1.5);
    const LogData log = rt.finalize(0, 1);
    ASSERT_TRUE(std::any_of(log.records.begin(), log.records.end(), [](const auto& r) {
      return r.module == ModuleId::kLustre;
    }));
    ASSERT_TRUE(std::any_of(log.records.begin(), log.records.end(), [](const auto& r) {
      return r.module == ModuleId::kSsdExt;
    }));
    expect_kernel_agrees(log, ks, "lustre/ssd records");
  }
  {  // Sparse blocks at their extremes: an all-zero record (a bitmap and no
     // words), -0.0 fcounters (a set sign bit is a stored word), and a record
     // with every word set, negative counters among them.
    LogData log;
    log.job = small_job(2);
    log.mounts = {{"/gpfs/alpine", "gpfs"}, {"/mnt/bb", "xfs"}};
    const auto record = [&](const std::string& path, std::int32_t rank, ModuleId mod) {
      darshan::FileRecord rec(darshan::hash_record_id(path), rank, mod);
      log.names.try_emplace(rec.record_id, path);
      return rec;
    };
    const darshan::FileRecord zero = record("/gpfs/alpine/zero", 0, ModuleId::kPosix);
    darshan::FileRecord neg = record("/gpfs/alpine/negzero", -1, ModuleId::kPosix);
    neg.counters[darshan::posix::BYTES_READ] = 1 << 16;
    neg.fcounters[darshan::posix::F_READ_TIME] = -0.0;
    neg.fcounters[darshan::posix::F_WRITE_TIME] = -0.0;
    darshan::FileRecord full = record("/mnt/bb/full", 1, ModuleId::kStdio);
    for (std::size_t i = 0; i < full.counters.size(); ++i) {
      full.counters[i] = static_cast<std::int64_t>(i) - 3;
    }
    full.counters[3] = 99;  // the one zero above: every word is now non-zero
    for (std::size_t i = 0; i < full.fcounters.size(); ++i) {
      full.fcounters[i] = 0.5 * static_cast<double>(i + 1);
    }
    log.records = {zero, neg, full, record("/mnt/bb/zero", 0, ModuleId::kStdio)};
    expect_kernel_agrees(log, ks, "sparse-block extremes");
    const auto view_of = [&](const darshan::FileRecord& rec) {
      const auto& views = ks.body.records;
      return *std::find_if(views.begin(), views.end(), [&](const darshan::RecordView& v) {
        return v.record_id == rec.record_id;
      });
    };
    EXPECT_EQ(view_of(zero).mask, 0u);
    EXPECT_EQ(std::popcount(view_of(neg).mask), 3);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(view_of(neg).f(darshan::posix::F_READ_TIME)),
              std::bit_cast<std::uint64_t>(-0.0));
    EXPECT_EQ(std::popcount(view_of(full).mask),
              static_cast<int>(full.counters.size() + full.fcounters.size()));
  }
  {  // Zigzag varints at their extremes: INT64_MIN and INT64_MAX take all
     // ten bytes, -1 and 1 one byte each, and the ranks span the int32
     // range.  The values sit in counters the summaries do not read, beside
     // honest transfer counters.
    namespace pc = darshan::posix;
    LogData log;
    log.job = small_job(2);
    log.mounts = {{"/gpfs/alpine", "gpfs"}};
    constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    const std::pair<std::int32_t, std::array<std::int64_t, 5>> rows[] = {
        {std::numeric_limits<std::int32_t>::min(), {kMin, kMax, -1, 1, -2}},
        {std::numeric_limits<std::int32_t>::max(), {kMax, kMin, 1, -1, 2}},
        {0, {-1, 1, kMin + 1, kMax - 1, 63}},
        {-64, {64, -65, -64, 8191, -8192}},
    };
    for (const auto& [rank, values] : rows) {
      const std::string path = "/gpfs/alpine/zz" + std::to_string(rank);
      darshan::FileRecord rec(darshan::hash_record_id(path), rank, ModuleId::kPosix);
      log.names.try_emplace(rec.record_id, path);
      const std::size_t slots[] = {pc::SEEKS, pc::STATS, pc::FSYNCS, pc::CONSEC_READS,
                                   pc::CONSEC_WRITES};
      for (std::size_t k = 0; k < values.size(); ++k) rec.counters[slots[k]] = values[k];
      rec.counters[pc::OPENS] = 1;
      rec.counters[pc::BYTES_READ] = 4096;
      rec.fcounters[pc::F_READ_TIME] = 0.125;
      log.records.push_back(rec);
    }
    for (const bool compress : {false, true}) {
      const auto frame =
          compress ? darshan::write_log_bytes(log) : harness::plain_log_frame(log);
      EXPECT_TRUE(darshan::read_log_bytes(frame) == log) << "compress " << compress;
      expect_frame_agrees(log, frame, ks, "zigzag extremes");
    }
  }
  {  // A non-empty DXT region: walked, checked and skipped by the kernel,
     // materialized intact by read_log_bytes.
    darshan::RuntimeOptions opts;
    opts.enable_dxt = true;
    Runtime rt(small_job(2), {{"/gpfs/alpine", "gpfs"}}, opts);
    for (std::int32_t r = 0; r < 2; ++r) {
      auto h = rt.open_file(ModuleId::kPosix, r, "/gpfs/alpine/traced", 0);
      rt.record_reads(h, r, 4096, 6, 0, 0.2);
      rt.record_writes(h, r, 65536, 3, 0.2, 0.2);
    }
    const LogData log = rt.finalize(0, 1);
    ASSERT_FALSE(log.dxt.empty());
    expect_kernel_agrees(log, ks, "non-empty DXT");
    EXPECT_EQ(ks.body.dxt.size(), log.dxt.size());
    EXPECT_EQ(darshan::read_log_bytes(ks.frame).dxt, log.dxt);
  }
}

// ---------------------------------------------------------------------------
// Whole-population equivalence and pinned fingerprints.

TEST(IngestDifferential, AnalysisFingerprintsMatchAcrossModes) {
  for (const auto& profile :
       {wl::SystemProfile::summit_2020(), wl::SystemProfile::cori_2019()}) {
    core::Analysis via_seed;
    core::Analysis via_scratch;
    core::Analysis via_body;
    core::AnalyzeScratch scratch;
    KernelScratch ks;
    for_each_generated_log(profile, 20, 42, [&](const LogData& log) {
      via_seed.add(log);
      via_scratch.add(log, scratch);
      const auto frame = darshan::write_log_bytes(log);
      darshan::walk_log_body(darshan::read_log_frame_body(frame, ks.io), ks.body);
      via_body.add(ks.body, ks.analyze);
    });
    EXPECT_EQ(via_seed.fingerprint(), via_scratch.fingerprint()) << profile.system;
    EXPECT_EQ(state_bytes(via_seed), state_bytes(via_scratch)) << profile.system;
    EXPECT_EQ(state_bytes(via_seed), state_bytes(via_body)) << profile.system;
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

// A cold archive query (no snapshots) over a 24-job Cori ingest.  Pins the
// service's shard rebuild: scan_bodies, walk_log_body and Analysis::add.
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
  const auto q = harness::cold_get(ar, 0, 2, /*write_back=*/false);
  EXPECT_EQ(q.analysis->fingerprint(), 681279179527013092ull);
  // The fingerprint hashes neither the per-job maps nor the sample entries;
  // the canonical state bytes cover both.
  util::ByteWriter w;
  q.analysis->save(w);
  EXPECT_EQ(fnv1a(w.take()), 2545916944106061150ull);
  EXPECT_EQ(q.stats.query.logs_scanned, 244u);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mlio
