#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
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
  std::atomic<std::uint64_t> blocks{0};
  pool.parallel_for_dynamic(
      0, 1000, 7, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        ASSERT_LT(w, 3u);
        total.fetch_add(static_cast<int>(hi - lo));
        blocks.fetch_add(1);
      });
  EXPECT_EQ(total.load(), 1000);
  EXPECT_EQ(blocks.load(), (1000 + 6) / 7);
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
  std::atomic<std::uint64_t> blocks{0};
  pool.parallel_for_dynamic(
      1, 101, 0, [&](std::uint64_t, std::uint64_t lo, std::uint64_t hi, unsigned w) {
        EXPECT_EQ(w, 0u);
        for (std::uint64_t i = lo; i < hi; ++i) sum += i;
        blocks.fetch_add(1);
      });
  EXPECT_EQ(sum, 5050u);
  EXPECT_EQ(blocks.load(), 100u);  // block_size 0 selects 1
}

/// Runs 10 one-element blocks whose bodies throw in blocks 3 and 7; returns
/// the rethrown message and counts every block that ran in `ran`.  Block 3
/// stalls before throwing, so on a pool block 7 usually fails first in time.
std::string run_failing_blocks(ThreadPool& pool, std::atomic<int>& ran) {
  try {
    pool.parallel_for_dynamic(0, 10, 1, [&](std::uint64_t b, std::uint64_t, std::uint64_t,
                                            unsigned) {
      ran.fetch_add(1);
      if (b == 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (b == 3 || b == 7) throw std::runtime_error("block " + std::to_string(b));
    });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no error";
}

TEST(ThreadPool, DynamicRethrowsLowestFailingBlockAfterRunningAll) {
  // The rethrown error is block 3's on every run, however the blocks were
  // scheduled, and no failure cancels the blocks after it.
  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<int> ran{0};
    EXPECT_EQ(run_failing_blocks(pool, ran), "block 3") << "trial " << trial;
    EXPECT_EQ(ran.load(), 10) << "trial " << trial;
  }
}

TEST(ThreadPool, NestedDynamicRethrowsLowestFailingBlockAfterRunningAll) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  std::string error;
  pool.submit([&] { error = run_failing_blocks(pool, ran); });
  pool.wait_idle();
  EXPECT_EQ(error, "block 3");
  EXPECT_EQ(ran.load(), 10);
}

}  // namespace
}  // namespace mlio::util
