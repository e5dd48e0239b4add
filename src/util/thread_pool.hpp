// Minimal thread pool with a deterministic work-stealing parallel_for.
//
// The generation→simulation→analysis pipeline is embarrassingly parallel per
// job.  Determinism is preserved by (a) seeding each job's Rng from its index
// (never from thread identity) and (b) folding into accumulators whose state
// does not depend on how the jobs were split or in which order the parts
// merge.  parallel_for_dynamic hands fixed-size blocks to idle workers via an
// atomic ticket counter.  Block boundaries depend only on (range, block
// size), never on thread count or timing; the worker slot passed to the body
// does depend on timing, so a caller keeping one accumulator per worker slot
// relies on (b).
//
// Nested parallelism: calling parallel_for_dynamic from inside a worker task
// would deadlock a fully-busy pool (the inner call waits on workers that are
// all waiting on it), so nested calls detect the situation via a thread-local
// flag and degrade to an inline serial loop on the calling worker.
//
// Errors: a block body that throws is recorded, not fatal — the remaining
// blocks still run, and the failing block with the lowest index has its
// error rethrown on the caller after the join.  Callers need no exception
// plumbing of their own.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace mlio::util {

class ThreadPool {
 public:
  /// threads == 0 selects hardware_concurrency() (minimum 1).
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()); }

  /// True when the calling thread is a pool worker (of any ThreadPool).
  static bool in_worker();

  /// Enqueue a task; tasks must not throw (they run under noexcept workers —
  /// wrap anything fallible and surface errors through your own channel).
  void submit(std::function<void()> task);

  /// Block until every submitted task has finished.
  void wait_idle();

  /// Split [begin, end) into fixed-size blocks of `block_size` elements (the
  /// last block may be short) and hand block indices to idle workers through
  /// an atomic ticket counter.  The body is called as body(block_index,
  /// block_begin, block_end, worker_slot) where worker_slot is a dense index
  /// in [0, thread_count()) identifying the executing runner — callers use
  /// it to reuse per-worker scratch state.
  /// Block boundaries are a pure function of (begin, end, block_size).
  /// A body may throw: every other block still runs, and after the join the
  /// error of the LOWEST-indexed failing block is rethrown on the caller —
  /// the same error at any thread count and under any timing.
  /// block_size == 0 selects 1.  Safe to call from inside a worker task:
  /// every block then runs inline on the caller under worker_slot 0.
  void parallel_for_dynamic(
      std::uint64_t begin, std::uint64_t end, std::uint64_t block_size,
      const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t, unsigned)>& body);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t active_ = 0;
  bool stop_ = false;
};

}  // namespace mlio::util
