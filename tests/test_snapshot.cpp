// Analysis snapshot round-trip fidelity: a loaded snapshot must be
// bit-identical to the accumulator it was saved from — same fingerprint,
// same canonical bytes, and indistinguishable under continued adds and
// merges (the archive's incremental queries depend on exactly this).
#include "core/snapshot.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "darshan/log_format.hpp"
#include "util/byte_io.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/pipeline.hpp"

namespace mlio::core {
namespace {

/// Decoded logs for bulk jobs [0, n_jobs) of a small fixed population.
std::vector<darshan::LogData> sample_logs(std::uint64_t n_jobs, std::uint64_t seed = 11) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(wl::SystemProfile::cori_2019(), cfg);
  std::vector<darshan::LogData> logs;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, n_jobs, /*workers=*/0,
                     [&](const darshan::JobRecord&, std::span<const std::byte> frame) {
                       logs.push_back(darshan::read_log_bytes(frame));
                     });
  return logs;
}

Analysis analyze(const std::vector<darshan::LogData>& logs, std::size_t lo, std::size_t hi) {
  Analysis a;
  for (std::size_t i = lo; i < hi; ++i) a.add(logs[i]);
  return a;
}

TEST(Snapshot, RoundTripIsBitIdentical) {
  const auto logs = sample_logs(25);
  const Analysis original = analyze(logs, 0, logs.size());
  ASSERT_GT(original.summary().logs(), 0u);

  const std::vector<std::byte> bytes = write_snapshot_bytes(original, 77);
  std::uint64_t tag = 0;
  const Analysis loaded = read_snapshot_bytes(bytes, &tag);
  EXPECT_EQ(tag, 77u);
  EXPECT_EQ(loaded.fingerprint(), original.fingerprint());
  EXPECT_EQ(loaded.summary().files(), original.summary().files());
  EXPECT_DOUBLE_EQ(loaded.summary().node_hours(), original.summary().node_hours());

  // Canonical bytes: saving the loaded copy reproduces the frame exactly.
  EXPECT_EQ(write_snapshot_bytes(loaded, 77), bytes);
}

TEST(Snapshot, UncompressedSnapshotIsRejected) {
  // Snapshots are always deflated; one whose flags say otherwise is refused
  // (a cache miss, so the partition is rescanned), not read as raw bytes.
  const auto logs = sample_logs(10);
  std::vector<std::byte> bytes = write_snapshot_bytes(analyze(logs, 0, logs.size()), 1);
  ASSERT_EQ(bytes[6], std::byte{kSnapshotFlagCompressed});
  bytes[6] = std::byte{0};
  try {
    (void)read_snapshot_bytes(bytes);
    FAIL() << "an uncompressed snapshot was read";
  } catch (const util::FormatError& e) {
    EXPECT_STREQ(e.what(), "format error: snapshot: uncompressed body");
  }
}

TEST(Snapshot, LoadedStateContinuesBitIdentically) {
  // The strongest fidelity claim: a restored accumulator is not just equal,
  // it *behaves* identically afterwards — further adds and merges land on
  // the same bits (bottom-k sample cells included).
  const auto logs = sample_logs(30);
  Analysis original = analyze(logs, 0, 20);
  Analysis restored = read_snapshot_bytes(write_snapshot_bytes(original, 0));

  for (std::size_t i = 20; i < 25; ++i) {
    original.add(logs[i]);
    restored.add(logs[i]);
  }
  const Analysis tail = analyze(logs, 25, logs.size());
  original.merge(tail);
  restored.merge(tail);
  EXPECT_EQ(original.fingerprint(), restored.fingerprint());
  EXPECT_EQ(write_snapshot_bytes(original, 9), write_snapshot_bytes(restored, 9));
}

TEST(Snapshot, SerializedSizeCountsExactlyWhatSaveWrites) {
  // serialized_analysis_bytes sums container sizes instead of saving; it
  // must agree with save() byte for byte on every shape of state.
  const auto saved_size = [](const Analysis& a) {
    util::ByteWriter w;
    a.save(w);
    return static_cast<std::uint64_t>(w.size());
  };
  const auto logs = sample_logs(40);
  ASSERT_GT(logs.size(), 2u);
  const Analysis empty;
  const Analysis one = analyze(logs, 0, 1);
  Analysis merged = analyze(logs, 0, logs.size() / 2);
  merged.merge(analyze(logs, logs.size() / 2, logs.size()));
  const Analysis loaded = read_snapshot_bytes(write_snapshot_bytes(merged, 5));
  // The string-keyed maps are populated, so their lengths are counted too.
  ASSERT_FALSE(merged.layers().domains().empty());
  ASSERT_FALSE(merged.interfaces().stdio_extensions().empty());
  const Analysis* const states[] = {&empty, &one, &merged, &loaded};
  for (const Analysis* a : states) {
    EXPECT_EQ(serialized_analysis_bytes(*a), saved_size(*a));
  }
  EXPECT_LT(serialized_analysis_bytes(empty), serialized_analysis_bytes(one));
}

TEST(Snapshot, EmptyAnalysisRoundTrips) {
  const Analysis empty;
  const Analysis loaded = read_snapshot_bytes(write_snapshot_bytes(empty, 5));
  EXPECT_EQ(loaded.fingerprint(), empty.fingerprint());
  EXPECT_EQ(loaded.summary().logs(), 0u);
}

TEST(Snapshot, CorruptionAlwaysThrowsFormatError) {
  const auto logs = sample_logs(6);
  const Analysis a = analyze(logs, 0, logs.size());
  const std::vector<std::byte> bytes = write_snapshot_bytes(a, 3);

  util::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = bytes;
    const auto pos = static_cast<std::size_t>(rng.uniform_u64(0, corrupted.size() - 1));
    corrupted[pos] ^= static_cast<std::byte>(rng.uniform_u64(1, 255));
    try {
      const Analysis back = read_snapshot_bytes(corrupted);
      // A CRC collision is astronomically unlikely but legal; the result
      // must still be structurally sound.
      EXPECT_LE(back.summary().logs(), 1'000'000u);
    } catch (const util::FormatError&) {
      // expected — never any other exception type, never a crash
    }
  }
  // Truncations at every prefix length must throw, not read out of bounds.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    EXPECT_THROW(read_snapshot_bytes(std::span(bytes.data(), len)), util::FormatError);
  }
}

}  // namespace
}  // namespace mlio::core
