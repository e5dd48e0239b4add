// The parallel sharded ingest contract (DESIGN.md §13): archives built at
// ANY ingest_threads setting, from any calling thread, are byte-identical
// (manifest included) to the 1-worker build; a group commit writes the same segment/index bytes a
// per-partition seal would; one ingest call costs exactly one generation
// bump, snapshots included; ingest_log_files honors batches and
// max_logs_per_partition; and the 32-bit-hazard guards on the scale path
// (>4 GiB index offsets, chunked CRC, zlib single-shot bounds,
// commit_group's staleness checks) hold.
#include <gtest/gtest.h>
#include <zlib.h>

#include <cstddef>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "archive/archive.hpp"
#include "archive/ingest.hpp"
#include "archive/manifest.hpp"
#include "harness/cold_query.hpp"
#include "util/byte_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/vfs.hpp"
#include "workload/generator.hpp"
#include "workload/pipeline.hpp"

namespace mlio::archive {
namespace {

namespace fs = std::filesystem;

wl::WorkloadGenerator make_gen(std::uint64_t n_jobs, std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  return wl::WorkloadGenerator(wl::SystemProfile::cori_2019(), cfg);
}

/// Every regular file in `dir`, by name, with its exact bytes.
std::map<std::string, std::vector<std::byte>> dir_files(const fs::path& dir) {
  std::map<std::string, std::vector<std::byte>> out;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.is_regular_file()) {
      out[e.path().filename().string()] = util::read_file_bytes(e.path());
    }
  }
  return out;
}

/// Every file of `reference` present in `files` with the same bytes, and no
/// file more.
void expect_same_files(const std::map<std::string, std::vector<std::byte>>& reference,
                       const std::map<std::string, std::vector<std::byte>>& files,
                       const std::string& label) {
  ASSERT_EQ(files.size(), reference.size()) << label;
  for (const auto& [name, bytes] : reference) {
    const auto it = files.find(name);
    ASSERT_NE(it, files.end()) << name << " missing at " << label;
    EXPECT_EQ(it->second, bytes) << name << " differs at " << label;
  }
}

/// A cold query on one worker that writes nothing back.
service::ArchiveService::GetResult cold_get(Archive& ar) {
  return harness::cold_get(ar, 0, 1, /*write_back=*/false);
}

std::uint64_t query_fingerprint(Archive& ar) { return cold_get(ar).fingerprint; }

class ParallelIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) / "mlio_parallel_ingest" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

// ---------------------------------------------------------------------------
// The determinism contract: fixed cuts -> fixed bits.  Every file of the
// archive — manifest.bin with its generation values included — must be
// byte-identical whether the blocks were built by 1, 2 or 4 workers, at
// every batch count, with snapshots on and the hero stratum included.
TEST_F(ParallelIngestTest, BitIdenticalAcrossIngestThreads) {
  const wl::WorkloadGenerator gen = make_gen(14, 5);
  ASSERT_GT(gen.huge_job_count(), 0u);
  for (const std::uint64_t batches : {1u, 3u, 8u}) {
    std::map<std::string, std::vector<std::byte>> reference;
    for (const unsigned t : {1u, 2u, 4u}) {
      const std::string label =
          "batches=" + std::to_string(batches) + " ingest_threads=" + std::to_string(t);
      const fs::path d = dir_ / ("b" + std::to_string(batches) + "t" + std::to_string(t));
      Archive ar = Archive::create(d);
      IngestOptions opts;
      opts.batches = batches;
      opts.write_snapshots = true;
      opts.ingest_threads = t;
      const IngestStats stats = ingest_generated(ar, gen, opts);
      EXPECT_EQ(stats.groups, 1u) << label;
      EXPECT_EQ(stats.partitions, batches + 1) << label;  // + the hero cut
      EXPECT_TRUE(ar.verify(true).ok()) << label;

      const auto files = dir_files(d);
      if (t == 1) {
        reference = files;
        continue;
      }
      expect_same_files(reference, files, label);
    }
  }
}

// Called from inside a pool task, ingest builds on a pool of its own and
// writes the same bytes as a call from a plain thread.
TEST_F(ParallelIngestTest, IngestInsidePoolTaskMatches) {
  const wl::WorkloadGenerator gen = make_gen(14, 5);
  IngestOptions opts;
  opts.batches = 3;
  opts.write_snapshots = true;
  opts.ingest_threads = 2;
  const auto ingest_into = [&](const fs::path& d) {
    Archive ar = Archive::create(d);
    (void)ingest_generated(ar, gen, opts);
  };
  ingest_into(dir_ / "direct");

  std::exception_ptr error;
  {
    util::ThreadPool outer(1);
    outer.submit([&] {
      try {
        ingest_into(dir_ / "in_task");
      } catch (...) {
        error = std::current_exception();
      }
    });
    outer.wait_idle();
  }
  if (error) std::rethrow_exception(error);
  expect_same_files(dir_files(dir_ / "direct"), dir_files(dir_ / "in_task"), "in pool task");
}

// ---------------------------------------------------------------------------
// A group commit must produce the exact segment and index bytes that
// sealing each partition individually would have: same cuts (the even-split
// formula is the public contract), same frames, same CRCs.  Only manifest
// generation values may differ (1 bump vs 3).
TEST_F(ParallelIngestTest, GroupCommitMatchesPerSealBytes) {
  const std::uint64_t n_jobs = 12;
  const std::uint64_t batches = 3;
  const wl::WorkloadGenerator gen = make_gen(n_jobs, 11);

  const fs::path grouped = dir_ / "grouped";
  {
    Archive ar = Archive::create(grouped);
    IngestOptions opts;
    opts.batches = batches;
    opts.include_huge = false;
    ingest_generated(ar, gen, opts);
    EXPECT_EQ(ar.manifest().partitions.size(), batches);
  }

  // Reference: the pre-group path — one begin_partition/seal per cut, each
  // with its own manifest write.
  const fs::path sealed = dir_ / "sealed";
  {
    Archive ar = Archive::create(sealed);
    for (std::uint64_t b = 0; b < batches; ++b) {
      Archive::PartitionWriter w = ar.begin_partition();
      wl::serialize_logs(gen, wl::Stratum::kBulk, n_jobs * b / batches,
                         n_jobs * (b + 1) / batches, /*workers=*/0,
                         [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                           w.append_frame(job, frame);
                         });
      w.seal();
    }
    EXPECT_EQ(ar.manifest().generation, 1u + batches);
  }

  for (std::uint64_t id = 1; id <= batches; ++id) {
    char name[16];
    std::snprintf(name, sizeof name, "p%06llu", static_cast<unsigned long long>(id));
    for (const char* ext : {".seg", ".idx"}) {
      const std::string file = std::string(name) + ext;
      EXPECT_EQ(util::read_file_bytes(grouped / file), util::read_file_bytes(sealed / file))
          << file;
    }
  }
  {
    Archive a = Archive::open(grouped);
    Archive b = Archive::open(sealed);
    EXPECT_EQ(a.manifest().generation, 2u);  // create + ONE group commit
    EXPECT_EQ(query_fingerprint(a), query_fingerprint(b));
  }
}

// ---------------------------------------------------------------------------
// One generation bump per ingest call, snapshots included — the invariant
// the MVCC service's memo caches rely on (a bump per partition would purge
// them batches-times per ingest).
TEST_F(ParallelIngestTest, SingleGenerationBumpWithSnapshots) {
  Archive ar = Archive::create(dir_);
  EXPECT_EQ(ar.manifest().generation, 1u);

  IngestOptions opts;
  opts.batches = 4;
  opts.write_snapshots = true;
  opts.ingest_threads = 2;
  const IngestStats s1 = ingest_generated(ar, make_gen(10, 3), opts);
  EXPECT_EQ(ar.manifest().generation, 2u);
  EXPECT_EQ(s1.groups, 1u);
  for (const PartitionInfo& p : ar.manifest().partitions) {
    EXPECT_EQ(p.data_generation, 2u);
    EXPECT_TRUE(p.has_snapshot);
    EXPECT_EQ(p.snapshot_generation, p.data_generation);
  }

  // A second batch appends under exactly one more bump.
  const IngestStats s2 = ingest_generated(ar, make_gen(6, 4), opts);
  EXPECT_EQ(ar.manifest().generation, 3u);
  EXPECT_EQ(s2.groups, 1u);

  const Archive::VerifyReport rep = ar.verify(true);
  EXPECT_TRUE(rep.ok());
  EXPECT_EQ(rep.snapshots_valid, rep.partitions);
  EXPECT_EQ(rep.snapshots_stale, 0u);
}

// Snapshot-on-ingest walks each log's body as it is serialized, before
// deflate: the shards it stores must be the ones a rescan of the stored
// frames builds, byte for byte, the hero cut included.
TEST_F(ParallelIngestTest, GeneratedIngestSnapshotsMatchTheRescan) {
  const wl::WorkloadGenerator gen = make_gen(14, 5);
  IngestOptions opts;
  opts.batches = 3;
  opts.ingest_threads = 2;
  const auto answer = [&](Archive& ar) {
    const auto q = cold_get(ar);
    util::ByteWriter w;
    q.analysis->save(w);
    return std::make_pair(q.stats.query, w.take());
  };

  Archive plain = Archive::create(dir_ / "plain");
  ingest_generated(plain, gen, opts);
  opts.write_snapshots = true;
  Archive snap = Archive::create(dir_ / "snap");
  ingest_generated(snap, gen, opts);
  const std::uint64_t partitions = snap.manifest().partitions.size();
  ASSERT_EQ(partitions, 4u);  // three bulk cuts and the hero cut

  const auto [snap_stats, snap_bytes] = answer(snap);
  EXPECT_EQ(snap_stats.snapshot_hits, partitions);
  EXPECT_EQ(snap_stats.logs_scanned, 0u);
  const auto [plain_stats, plain_bytes] = answer(plain);
  EXPECT_GT(plain_stats.logs_scanned, 0u);
  EXPECT_EQ(snap_bytes, plain_bytes);
}

// ---------------------------------------------------------------------------
// A failing build surfaces on the committing thread, in cut order, after the
// pool has drained the builds still queued: with every cut failing, the
// first cut's error leaves before anything is staged or committed, at every
// worker count.  The same profile fails serialize_logs the same way.
TEST_F(ParallelIngestTest, BuildErrorSurfacesAndCommitsNothing) {
  Archive ar = Archive::create(dir_);
  const std::uint64_t generation = ar.manifest().generation;

  // A profile naming no known machine: wl::machine_for throws ConfigError
  // inside serialize_block, so every build fails.
  wl::SystemProfile unknown = wl::SystemProfile::cori_2019();
  unknown.system = "Unknown";
  wl::GeneratorConfig cfg;
  cfg.seed = 5;
  cfg.n_jobs = 24;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(unknown, cfg);

  for (const unsigned workers : {1u, 3u, 4u}) {
    IngestOptions opts;
    opts.batches = 8;
    opts.ingest_threads = workers;
    EXPECT_THROW((void)ingest_generated(ar, gen, opts), util::ConfigError) << workers;
    EXPECT_EQ(ar.manifest().generation, generation);
    EXPECT_TRUE(ar.manifest().partitions.empty());
    const auto files = dir_files(dir_);
    ASSERT_EQ(files.size(), 1u);  // the manifest alone: no staged partition
    EXPECT_EQ(files.begin()->first, "manifest.bin");

    std::uint64_t delivered = 0;
    EXPECT_THROW(wl::serialize_logs(gen, wl::Stratum::kBulk, 0, cfg.n_jobs, workers,
                                    [&](const darshan::JobRecord&, std::span<const std::byte>) {
                                      delivered += 1;
                                    }),
                 util::ConfigError)
        << workers;
    EXPECT_EQ(delivered, 0u);
  }
}

// A write that fails after earlier cuts were staged (here the third cut's
// segment) removes every partition the call staged: the directory is byte
// for byte what it was, the manifest has not moved, and a retry through the
// same handle commits the partition ids the failed call would have used.
TEST_F(ParallelIngestTest, FailedGeneratedIngestRemovesStagedPartitions) {
  IngestOptions opts;
  opts.batches = 2;
  opts.write_snapshots = true;
  {
    Archive ar = Archive::create(dir_);
    ingest_generated(ar, make_gen(12, 3), opts);
  }
  const auto before = dir_files(dir_);
  opts.batches = 4;
  util::FaultVfs vfs(util::FaultPlan::parse("fail-write@3:*.seg*"));
  Archive ar = Archive::open(dir_, vfs);
  const std::uint64_t generation = ar.manifest().generation;
  const std::size_t committed = ar.manifest().partitions.size();
  const std::uint64_t next_id = ar.manifest().next_partition_id;
  EXPECT_THROW((void)ingest_generated(ar, make_gen(24, 5), opts), util::IoError);
  EXPECT_EQ(ar.manifest().generation, generation);
  expect_same_files(before, dir_files(dir_), "failed write to the third cut's segment");

  const IngestStats retry = ingest_generated(ar, make_gen(24, 5), opts);
  EXPECT_EQ(ar.manifest().generation, generation + 1);
  ASSERT_EQ(ar.manifest().partitions.size(), committed + retry.partitions);
  EXPECT_EQ(ar.manifest().partitions[committed].id, next_id);
  EXPECT_TRUE(ar.verify(true).ok());
}

// ---------------------------------------------------------------------------
// The file-ingest path must honor its sharding knobs instead of dumping the
// whole drop directory into one partition — and every sharding must census
// identically.
TEST_F(ParallelIngestTest, FileIngestHonorsShardingKnobs) {
  // Materialize 7 standalone log files from the generator's frames.
  const wl::WorkloadGenerator gen = make_gen(12, 21);
  std::vector<fs::path> files;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, 12, /*workers=*/0,
                     [&](const darshan::JobRecord&, std::span<const std::byte> frame) {
                       const fs::path f =
                           dir_ / ("log" + std::to_string(files.size()) + ".darshan");
                       util::write_file_atomic(f, frame);
                       files.push_back(f);
                     });
  ASSERT_GE(files.size(), 7u);
  files.resize(7);

  struct Case {
    std::uint64_t batches;
    std::uint64_t max_logs;
    std::uint64_t want_partitions;
  };
  const Case cases[] = {
      {1, 0, 1},  // the old behavior, now the explicit default
      {3, 0, 3},  // batches split evenly
      {3, 2, 4},  // the log cap raises the shard count: ceil(7/2) = 4
      {1, 3, 3},  // cap alone shards too
  };

  std::uint64_t reference_fp = 0;
  for (const Case& c : cases) {
    const fs::path d =
        dir_ / ("b" + std::to_string(c.batches) + "m" + std::to_string(c.max_logs));
    Archive ar = Archive::create(d);
    IngestOptions opts;
    opts.batches = c.batches;
    opts.max_logs_per_partition = c.max_logs;
    const IngestStats stats = ingest_log_files(ar, files, opts);
    EXPECT_EQ(stats.logs, 7u);
    EXPECT_EQ(stats.groups, 1u);
    ASSERT_EQ(ar.manifest().partitions.size(), c.want_partitions)
        << "batches=" << c.batches << " max_logs=" << c.max_logs;
    std::uint64_t total = 0;
    for (const PartitionInfo& p : ar.manifest().partitions) {
      total += p.log_count;
      if (c.max_logs > 0) {
        EXPECT_LE(p.log_count, c.max_logs);
      }
    }
    EXPECT_EQ(total, 7u);
    EXPECT_TRUE(ar.verify(true).ok());

    const std::uint64_t fp = query_fingerprint(ar);
    if (reference_fp == 0) reference_fp = fp;
    EXPECT_EQ(fp, reference_fp) << "sharding changed the census";
  }
}

// File ingest with snapshots: the same files ingested with and without them,
// split over several partitions, give the same analysis state, and the
// snapshot archive's first query is all snapshot hits.  A truncated file in
// the list throws before anything is registered.
TEST_F(ParallelIngestTest, FileIngestSnapshotsMatchTheRescan) {
  const wl::WorkloadGenerator gen = make_gen(12, 21);
  const fs::path drop = dir_ / "drop";
  fs::create_directories(drop);
  std::vector<fs::path> files;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, 12, /*workers=*/0,
                     [&](const darshan::JobRecord&, std::span<const std::byte> frame) {
                       const fs::path f =
                           drop / ("log" + std::to_string(files.size()) + ".darshan");
                       util::write_file_atomic(f, frame);
                       files.push_back(f);
                     });
  ASSERT_GE(files.size(), 7u);

  IngestOptions opts;
  opts.batches = 2;
  opts.max_logs_per_partition = 3;
  const auto state = [&](Archive& ar) {
    util::ByteWriter w;
    cold_get(ar).analysis->save(w);
    return w.take();
  };

  Archive plain = Archive::create(dir_ / "plain");
  ingest_log_files(plain, files, opts);
  opts.write_snapshots = true;
  Archive snap = Archive::create(dir_ / "snap");
  ingest_log_files(snap, files, opts);
  const std::uint64_t partitions = snap.manifest().partitions.size();
  ASSERT_GT(partitions, 1u);
  ASSERT_EQ(plain.manifest().partitions.size(), partitions);
  EXPECT_TRUE(plain.verify(true).ok());
  EXPECT_TRUE(snap.verify(true).ok());
  EXPECT_EQ(snap.verify(false).snapshots_valid, partitions);

  const auto first = cold_get(snap);
  EXPECT_EQ(first.stats.query.snapshot_hits, partitions);
  EXPECT_EQ(first.stats.query.logs_scanned, 0u);
  const std::vector<std::byte> want = state(plain);
  EXPECT_EQ(state(snap), want);

  // Truncate one file: the frame header promises more body than it holds.
  std::vector<std::byte> bytes = util::read_file_bytes(files[1]);
  bytes.resize(bytes.size() - 8);
  const fs::path truncated = drop / "truncated.darshan";
  util::write_file_atomic(truncated, bytes);
  const std::uint64_t generation = snap.manifest().generation;
  const auto before = dir_files(dir_ / "snap");

  // In the first partition nothing is staged yet: the directory is untouched.
  std::vector<fs::path> bad = files;
  bad[1] = truncated;
  EXPECT_THROW(ingest_log_files(snap, bad, opts), util::FormatError);
  EXPECT_EQ(snap.manifest().generation, generation);
  expect_same_files(before, dir_files(dir_ / "snap"), "truncated file in the first partition");

  // In the last partition the earlier partitions' staged files are removed
  // again; the directory, and so the answer, do not move.
  bad = files;
  bad.back() = truncated;
  EXPECT_THROW(ingest_log_files(snap, bad, opts), util::FormatError);
  EXPECT_EQ(snap.manifest().generation, generation);
  expect_same_files(before, dir_files(dir_ / "snap"), "truncated file in the last partition");
  Archive reopened = Archive::open(dir_ / "snap");
  EXPECT_EQ(reopened.manifest().generation, generation);
  EXPECT_EQ(state(reopened), want);
}

// ---------------------------------------------------------------------------
// Scale-path guards: index entries beyond the 32-bit horizon round-trip
// exactly.  A facility-scale segment passes 4 GiB long before the log count
// is interesting, so a silent narrowing here corrupts every later scan.
TEST_F(ParallelIngestTest, IndexEntriesPastFourGiBRoundTrip) {
  const std::uint64_t four_gib = std::uint64_t{1} << 32;
  const std::vector<IndexEntry> entries = {
      {16, 4096, 7},
      {four_gib - 1, four_gib + 9, 1234567890123ull},
      {four_gib + 123, 4096, std::numeric_limits<std::uint64_t>::max()},
      {std::uint64_t{5} << 40, std::uint64_t{3} << 33, 0},
  };
  const std::vector<std::byte> bytes = write_index_bytes(42, entries);
  const std::vector<IndexEntry> back = read_index_bytes(bytes, 42);
  ASSERT_EQ(back.size(), entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(back[i].offset, entries[i].offset) << i;
    EXPECT_EQ(back[i].size, entries[i].size) << i;
    EXPECT_EQ(back[i].job_id, entries[i].job_id) << i;
  }
}

// The manifest CRC runs chunked so segments past zlib's uInt bound checksum
// correctly; chunking must be invisible at every chunk size.
TEST_F(ParallelIngestTest, ChunkedCrcMatchesSingleShot) {
  std::vector<std::byte> buf(10000);
  std::uint32_t x = 0x12345678;
  for (std::byte& b : buf) {
    x = x * 1664525u + 1013904223u;  // LCG: deterministic, no RNG dep
    b = static_cast<std::byte>(x >> 24);
  }
  const std::uint32_t whole = util::crc32(buf);
  const uLong zlib_crc =
      ::crc32(0L, reinterpret_cast<const Bytef*>(buf.data()), static_cast<uInt>(buf.size()));
  EXPECT_EQ(whole, static_cast<std::uint32_t>(zlib_crc));
  // Chunks on both sides of the fold's 64-byte threshold and 16-byte step.
  for (const std::size_t chunk :
       {std::size_t{1}, std::size_t{7}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{63}, std::size_t{64}, std::size_t{65}, std::size_t{4096}, std::size_t{9999},
        std::size_t{1} << 20}) {
    EXPECT_EQ(util::crc32_chunked(buf, chunk), whole) << "chunk=" << chunk;
  }
  EXPECT_EQ(util::crc32({}), util::crc32_chunked({}, 1));
}

// zlib's one-shot codecs take 32-bit lengths; sizes past the bound must be
// a typed error, never a silent truncation.
TEST_F(ParallelIngestTest, InflateRejectsOverlargeExpectedSize) {
  const std::vector<std::byte> plain(64, std::byte{0x5a});
  const std::vector<std::byte> packed = util::zlib_compress(plain);
  util::Inflater inf;
  std::vector<std::byte> out;
  inf.decompress(packed, plain.size(), out);
  EXPECT_EQ(out, plain);
  EXPECT_THROW(inf.decompress(packed, std::size_t{5} << 30, out), util::FormatError);
}

// ---------------------------------------------------------------------------
// commit_group's manifest-consistency checks: a gap in the id range or a
// builder stamp from a stale generation must be refused before any state
// changes.
TEST_F(ParallelIngestTest, CommitGroupRejectsGapsAndStaleStamps) {
  const wl::WorkloadGenerator gen = make_gen(3, 9);
  Archive ar = Archive::create(dir_);

  const auto build_at = [&](std::uint64_t id) {
    Archive::PartitionWriter w = ar.begin_partition_at(id);
    wl::serialize_logs(gen, wl::Stratum::kBulk, 0, 3, /*workers=*/0,
                       [&](const darshan::JobRecord& job, std::span<const std::byte> frame) {
                         w.append_frame(job, frame);
                       });
    return w.finish();
  };

  {  // Gap: next_partition_id is 1, the pending partition claims 2.
    Archive::PendingPartition p = build_at(ar.manifest().next_partition_id + 1);
    EXPECT_THROW((void)ar.commit_group({&p, 1}), util::ConfigError);
  }
  {  // Stale stamp: a builder that targeted generation + 5.
    Archive::PendingPartition p = build_at(ar.manifest().next_partition_id);
    p.info.data_generation = ar.manifest().generation + 5;
    EXPECT_THROW((void)ar.commit_group({&p, 1}), util::ConfigError);
  }
  EXPECT_EQ(ar.manifest().partitions.size(), 0u);  // nothing leaked through

  {  // The well-formed equivalent commits cleanly.
    Archive::PendingPartition p = build_at(ar.manifest().next_partition_id);
    ar.stage_partition_files(p);
    const std::vector<PartitionInfo> infos = ar.commit_group({&p, 1});
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_EQ(infos[0].data_generation, ar.manifest().generation);
  }
  EXPECT_TRUE(ar.verify(true).ok());
}

}  // namespace
}  // namespace mlio::archive
