#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

namespace mlio::util {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, DynamicCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  const std::uint64_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_dynamic(0, n, 64, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi,
                                          unsigned) {
    for (std::uint64_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::uint64_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, DynamicBlockBoundariesIgnoreThreadCount) {
  // Block boundaries are a pure function of (range, block size) — the
  // determinism contract: accumulate per block, merge in block order.
  auto boundaries = [](unsigned threads) {
    ThreadPool pool(threads);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out((103 + 9) / 10);
    pool.parallel_for_dynamic(0, 103, 10, [&](std::uint64_t b, std::uint64_t lo,
                                              std::uint64_t hi, unsigned) {
      out[b] = {lo, hi};
    });
    return out;
  };
  EXPECT_EQ(boundaries(1), boundaries(4));
}

TEST(ThreadPool, DynamicWorkerCountsSumToBlocks) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  const auto counts = pool.parallel_for_dynamic(
      0, 1000, 7, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        ASSERT_LT(w, 3u);
        total.fetch_add(static_cast<int>(hi - lo));
      });
  EXPECT_EQ(total.load(), 1000);
  std::uint64_t blocks = 0;
  for (const auto c : counts) blocks += c;
  EXPECT_EQ(blocks, (1000 + 6) / 7);
}

TEST(ThreadPool, DynamicEmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  pool.parallel_for_dynamic(9, 9, 4, [&](std::uint64_t, std::uint64_t, std::uint64_t, unsigned) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, NestedParallelForDynamicRunsInline) {
  // Regression: a parallel_for issued from inside a worker task used to wait
  // on workers that were all waiting on it.  A single-thread pool makes the
  // deadlock deterministic — the nested call must run inline instead.
  ThreadPool pool(1);
  std::atomic<std::uint64_t> covered{0};
  std::atomic<bool> saw_worker_flag{false};
  pool.submit([&] {
    saw_worker_flag = ThreadPool::in_worker();
    pool.parallel_for_dynamic(0, 50, 8, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi,
                                            unsigned w) {
      EXPECT_EQ(w, 0u);
      covered.fetch_add(hi - lo);
    });
  });
  pool.wait_idle();
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_EQ(covered.load(), 50u);
}

TEST(ThreadPool, InWorkerFalseOnCaller) { EXPECT_FALSE(ThreadPool::in_worker()); }

TEST(ThreadPool, SingleThreadPoolStillWorks) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::uint64_t sum = 0;
  const auto counts = pool.parallel_for_dynamic(
      1, 101, 0, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        EXPECT_EQ(w, 0u);
        for (std::uint64_t i = lo; i < hi; ++i) sum += i;
      });
  EXPECT_EQ(sum, 5050u);
  ASSERT_EQ(counts.size(), 1u);
  EXPECT_EQ(counts[0], 100u);  // block_size 0 selects 1
}

}  // namespace
}  // namespace mlio::util
