// Property tests for core::Analysis::merge — the algebra the archive's
// incremental queries stand on (DESIGN.md §6):
//   1. merging an empty shard is the identity, in either direction;
//   2. the fold is reproducible bit for bit, snapshot round-trips included,
//      and equal to the sequential accumulator in the one-shard case;
//   3. any cuts -> same bits: cutting one log sequence at random points and
//      folding the shards in a random order, with a random tree shape or
//      on a pool of any size, serializes to the sequential accumulator's
//      bytes — saturated bottom-k sample cells included;
//   4. reading one shared answer from several threads is race-free and
//      gives every reader the same fingerprint, boxplots and bytes.
// The archive leans on (3) to hand a compacted partition the merge of its
// inputs' shards instead of rescanning it.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "core/analysis.hpp"
#include "core/performance.hpp"
#include "core/snapshot.hpp"
#include "darshan/log_format.hpp"
#include "util/byte_io.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
#include "workload/pipeline.hpp"

namespace mlio::core {
namespace {

std::vector<darshan::LogData> sample_logs(std::uint64_t n_jobs, std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  cfg.logs_per_job_scale = 0.2;
  cfg.files_per_log_scale = 0.2;
  const wl::WorkloadGenerator gen(wl::SystemProfile::summit_2020(), cfg);
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

/// Canonical state bytes — stronger than fingerprint equality.
std::vector<std::byte> state(const Analysis& a) { return write_snapshot_bytes(a, 0); }

TEST(MergeProperties, EmptyShardIsRightIdentity) {
  const auto logs = sample_logs(20, 5);
  Analysis a = analyze(logs, 0, logs.size());
  const std::vector<std::byte> before = state(a);
  a.merge(Analysis{});
  EXPECT_EQ(state(a), before);
}

TEST(MergeProperties, EmptyShardIsLeftIdentity) {
  const auto logs = sample_logs(20, 5);
  const Analysis a = analyze(logs, 0, logs.size());
  Analysis empty;
  empty.merge(a);
  EXPECT_EQ(state(empty), state(a));
}

TEST(MergeProperties, EmptyMergedWithEmptyStaysEmpty) {
  Analysis a;
  a.merge(Analysis{});
  EXPECT_EQ(state(a), state(Analysis{}));
  EXPECT_EQ(a.summary().logs(), 0u);
}

TEST(MergeProperties, SingleShardFoldEqualsSequential) {
  // Folding one sequential shard into an empty accumulator reproduces the
  // single-accumulator bits exactly — the degenerate case every multi-shard
  // contract builds on.
  const auto logs = sample_logs(40, 13);
  ASSERT_GE(logs.size(), 8u);
  const std::vector<std::byte> sequential = state(analyze(logs, 0, logs.size()));
  Analysis folded;
  folded.merge(analyze(logs, 0, logs.size()));
  EXPECT_EQ(state(folded), sequential);
}

TEST(MergeProperties, FixedCutsFoldIsReproducible) {
  // The archive's determinism contract (DESIGN.md §6): for a FIXED set of
  // cut points, the shard-order fold is a pure function of the log stream —
  // bit-identical across repeated evaluations and regardless of whether a
  // shard came straight from an accumulator or through a snapshot
  // round-trip (cache hit vs rescan).
  const auto logs = sample_logs(40, 13);
  ASSERT_GE(logs.size(), 8u);

  for (const std::size_t shards : {2u, 3u, 5u, 8u}) {
    auto fold = [&](bool via_snapshot) {
      Analysis merged;
      for (std::size_t s = 0; s < shards; ++s) {
        const std::size_t lo = logs.size() * s / shards;
        const std::size_t hi = logs.size() * (s + 1) / shards;
        Analysis shard = analyze(logs, lo, hi);
        if (via_snapshot && s % 2 == 0) {
          shard = read_snapshot_bytes(write_snapshot_bytes(shard, 0));
        }
        merged.merge(shard);
      }
      return state(merged);
    };
    const std::vector<std::byte> direct = fold(false);
    EXPECT_EQ(fold(false), direct) << "shards=" << shards;
    EXPECT_EQ(fold(true), direct) << "shards=" << shards;
  }
}

TEST(MergeProperties, MergeIsAssociativeOverOrderedShards) {
  // (A ∘ B) ∘ C == A ∘ (B ∘ C) for adjacent shards — the query engine may
  // fold cached and rebuilt shards at different times.
  const auto logs = sample_logs(30, 34);
  ASSERT_GE(logs.size(), 6u);
  const std::size_t third = logs.size() / 3;
  const Analysis a = analyze(logs, 0, third);
  const Analysis b = analyze(logs, third, 2 * third);
  const Analysis c = analyze(logs, 2 * third, logs.size());

  Analysis left;
  left.merge(a);
  left.merge(b);
  left.merge(c);

  Analysis bc;
  bc.merge(b);
  bc.merge(c);
  Analysis right;
  right.merge(a);
  right.merge(bc);

  EXPECT_EQ(state(left), state(right));
}

TEST(MergeProperties, TreeMergeMatchesSerialFoldBitForBit) {
  // Analysis::merge_ordered produces the SAME BYTES as the serial fold for
  // any shard count and any thread count.
  const auto logs = sample_logs(60, 47);
  ASSERT_GE(logs.size(), 16u);

  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  for (const std::size_t n_shards : {1u, 2u, 3u, 5u, 8u, 9u, 16u}) {
    std::vector<Analysis> shards(n_shards);
    std::vector<const Analysis*> ptrs;
    for (std::size_t s = 0; s < n_shards; ++s) {
      shards[s] = analyze(logs, logs.size() * s / n_shards, logs.size() * (s + 1) / n_shards);
      ptrs.push_back(&shards[s]);
    }
    Analysis serial;
    for (const Analysis* p : ptrs) serial.merge(*p);
    const std::vector<std::byte> expected = state(serial);

    EXPECT_EQ(state(Analysis::merge_ordered(ptrs)), expected)
        << "serial merge_ordered, shards=" << n_shards;
    EXPECT_EQ(state(Analysis::merge_ordered(ptrs, &pool1)), expected)
        << "1-thread tree, shards=" << n_shards;
    EXPECT_EQ(state(Analysis::merge_ordered(ptrs, &pool8)), expected)
        << "8-thread tree, shards=" << n_shards;
  }
}

TEST(MergeProperties, TreeMergeEmptyInputIsEmpty) {
  util::ThreadPool pool(4);
  const std::vector<const Analysis*> none;
  EXPECT_EQ(state(Analysis::merge_ordered(none, &pool)), state(Analysis{}));
}

/// Full-density logs (no files-per-log scaling): the shape the archive
/// ingests, where the hot (layer, iface, bin) cells overflow their
/// bottom-k samples within a few dozen jobs.
std::vector<darshan::LogData> dense_logs(std::uint64_t n_jobs, std::uint64_t seed) {
  wl::GeneratorConfig cfg;
  cfg.seed = seed;
  cfg.n_jobs = n_jobs;
  const wl::WorkloadGenerator gen(wl::SystemProfile::summit_2020(), cfg);
  std::vector<darshan::LogData> logs;
  wl::serialize_logs(gen, wl::Stratum::kBulk, 0, n_jobs, /*workers=*/0,
                     [&](const darshan::JobRecord&, std::span<const std::byte> frame) {
                       logs.push_back(darshan::read_log_bytes(frame));
                     });
  return logs;
}

/// Observations in the fullest performance cell.
std::uint64_t fullest_cell(const Performance& perf) {
  std::uint64_t most = 0;
  for (std::size_t li = 0; li < kLayerCount; ++li) {
    for (std::size_t iface = 0; iface < 2; ++iface) {
      for (std::size_t bin = 0; bin < Performance::bins().size(); ++bin) {
        for (const bool read : {true, false}) {
          most = std::max(most, perf.cell(static_cast<Layer>(li), iface, bin, read).count);
        }
      }
    }
  }
  return most;
}

TEST(MergeProperties, AnyCutsAnyOrderAnyTreeSameBytes) {
  // The cut-invariance contract (DESIGN.md §6): one log sequence, cut at
  // random points; the shards folded serially in a random order, merged as
  // a random binary tree, and merged by merge_ordered with no pool, one
  // worker and eight — every result serializes to the sequential bytes.
  const auto logs = dense_logs(30, 51);
  ASSERT_GE(logs.size(), 16u);
  const std::vector<std::byte> expected = state(analyze(logs, 0, logs.size()));
  // The premise: some sample cell is past its capacity, so the bottom-k
  // merge really selects.  If this ever fails the test has gone vacuous.
  ASSERT_GT(fullest_cell(analyze(logs, 0, logs.size()).performance()),
            util::BottomKSample::kDefaultCapacity);

  util::ThreadPool pool1(1);
  util::ThreadPool pool8(8);
  util::Rng rng(2022);
  for (int trial = 0; trial < 12; ++trial) {
    // Random cuts: 1..16 shards, empty ones allowed.
    const std::size_t n_shards = 1 + rng.uniform_u64(0, 15);
    std::vector<std::size_t> cuts{0, logs.size()};
    for (std::size_t i = 1; i < n_shards; ++i) cuts.push_back(rng.uniform_u64(0, logs.size()));
    std::sort(cuts.begin(), cuts.end());
    std::vector<Analysis> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      shards.push_back(analyze(logs, cuts[i], cuts[i + 1]));
    }
    // Random fold order.
    std::vector<const Analysis*> order;
    for (const Analysis& sh : shards) order.push_back(&sh);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.uniform_u64(0, i - 1)]);
    }
    const std::string what = "trial " + std::to_string(trial) + ", " +
                             std::to_string(shards.size()) + " shards";

    Analysis serial;
    for (const Analysis* p : order) serial.merge(*p);
    EXPECT_EQ(state(serial), expected) << what << ": serial fold";

    // Random tree shape: merge two random survivors until one is left.
    std::vector<Analysis> forest;
    for (const Analysis* p : order) forest.push_back(*p);
    while (forest.size() > 1) {
      const std::size_t i = rng.uniform_u64(0, forest.size() - 1);
      std::size_t j = rng.uniform_u64(0, forest.size() - 2);
      if (j >= i) j += 1;
      forest[i].merge(forest[j]);
      forest.erase(forest.begin() + static_cast<std::ptrdiff_t>(j));
    }
    EXPECT_EQ(state(forest.front()), expected) << what << ": random tree";

    EXPECT_EQ(state(Analysis::merge_ordered(order)), expected) << what << ": no pool";
    EXPECT_EQ(state(Analysis::merge_ordered(order, &pool1)), expected) << what << ": pool 1";
    EXPECT_EQ(state(Analysis::merge_ordered(order, &pool8)), expected) << what << ": pool 8";
  }
}

TEST(MergeProperties, SaturatedCellMergeIsAssociativeAndCommutative) {
  // Past capacity a cell keeps the k smallest (key, value) pairs of the
  // union, so (a ∘ b) ∘ c, a ∘ (b ∘ c) and c ∘ b ∘ a hold the same sample.
  FileSummary f;
  f.shared = true;
  f.layer = Layer::kPfs;
  f.data_iface = DataInterface::kPosix;
  f.bytes_read = 1 << 20;

  Performance a;
  Performance b;
  Performance c;
  for (std::uint64_t i = 0; i < 3000; ++i) {
    // Distinct bandwidths and record ids, all in one (layer, iface, bin,
    // read) cell.
    f.record_id = i;
    f.read_time = 1.0 + 1e-4 * static_cast<double>(i);
    a.add(f, /*log_key=*/1);
    f.read_time = 2.0 + 1e-4 * static_cast<double>(i);
    b.add(f, /*log_key=*/2);
    f.read_time = 3.0 + 1e-4 * static_cast<double>(i);
    c.add(f, /*log_key=*/3);
  }
  const auto bytes = [](const Performance& p) {
    util::ByteWriter w;
    p.save(w);
    return w.take();
  };
  Performance left = a;
  left.merge(b);
  left.merge(c);
  Performance bc = b;
  bc.merge(c);
  Performance right = a;
  right.merge(bc);
  Performance reversed = c;
  reversed.merge(b);
  reversed.merge(a);
  EXPECT_EQ(bytes(left), bytes(right));
  EXPECT_EQ(bytes(left), bytes(reversed));
  EXPECT_EQ(fullest_cell(left), 9000u);
}

/// Everything a reader of an answer sees: its fingerprint, every
/// performance boxplot and its canonical bytes.
struct Reading {
  std::uint64_t fingerprint = 0;
  std::vector<double> cells;
  std::vector<std::byte> bytes;
  bool operator==(const Reading&) const = default;
};

Reading read_answer(const Analysis& a) {
  Reading r;
  r.fingerprint = a.fingerprint();
  for (std::size_t li = 0; li < kLayerCount; ++li) {
    for (std::size_t iface = 0; iface < 2; ++iface) {
      for (std::size_t bin = 0; bin < Performance::bins().size(); ++bin) {
        for (const bool read : {true, false}) {
          const util::FiveNumber f = a.performance().cell(static_cast<Layer>(li), iface, bin, read);
          r.cells.insert(r.cells.end(), {f.min, f.q1, f.median, f.q3, f.max});
          r.cells.push_back(static_cast<double>(f.count));
        }
      }
    }
  }
  util::ByteWriter w;
  a.save(w);
  r.bytes = w.take();
  return r;
}

TEST(MergeProperties, ConcurrentReadersOfOneAnswerAgree) {
  // The service hands one memoized answer to many clients, so every const
  // read must stay a pure read: four threads read a shared answer at once,
  // and under -fsanitize=thread any lazy cache written on a const path
  // shows up as a race.  Both the merged answer (value-ordered sample
  // cells) and a shard built by adds (unordered cells) are read.
  const auto logs = dense_logs(12, 61);
  ASSERT_GE(logs.size(), 8u);
  std::vector<Analysis> shards;
  for (std::size_t s = 0; s < 4; ++s) {
    shards.push_back(analyze(logs, logs.size() * s / 4, logs.size() * (s + 1) / 4));
  }
  std::vector<const Analysis*> ptrs;
  for (const Analysis& sh : shards) ptrs.push_back(&sh);
  util::ThreadPool pool(2);
  const Analysis merged = Analysis::merge_ordered(ptrs, &pool);
  const Analysis& scanned = shards.front();

  for (const Analysis* answer : {&merged, &scanned}) {
    // The expected reading comes from a copy, so the readers below are the
    // first to touch the shared answer.
    const Reading expected = read_answer(Analysis(*answer));
    constexpr std::size_t kReaders = 4;
    std::vector<Reading> seen(kReaders);
    std::vector<std::thread> readers;
    for (std::size_t t = 0; t < kReaders; ++t) {
      readers.emplace_back([&, t] {
        for (int round = 0; round < 3; ++round) seen[t] = read_answer(*answer);
      });
    }
    for (std::thread& t : readers) t.join();
    for (std::size_t t = 0; t < kReaders; ++t) EXPECT_TRUE(seen[t] == expected) << "reader " << t;
  }
  EXPECT_EQ(merged.fingerprint(), analyze(logs, 0, logs.size()).fingerprint());
}

}  // namespace
}  // namespace mlio::core
