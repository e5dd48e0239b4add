#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace mlio::util {

namespace {
// Set for the lifetime of a worker thread (any pool); lets
// parallel_for_dynamic detect nested submission and fall back to inline
// execution instead of deadlocking on its own queue.
thread_local bool tl_in_worker = false;
}  // namespace

bool ThreadPool::in_worker() { return tl_in_worker; }

ThreadPool::ThreadPool(unsigned threads) {
  if (threads == 0) threads = std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(threads);
  for (unsigned i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  MLIO_ASSERT(task != nullptr);
  {
    std::lock_guard lock(mu_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::vector<std::uint64_t> ThreadPool::parallel_for_dynamic(
    std::uint64_t begin, std::uint64_t end, std::uint64_t block_size,
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t, unsigned)>& body) {
  std::vector<std::uint64_t> per_worker(std::max(1u, thread_count()), 0);
  if (begin >= end) return per_worker;
  if (block_size == 0) block_size = 1;
  const std::uint64_t n_blocks = (end - begin + block_size - 1) / block_size;

  auto block_range = [&](std::uint64_t b) {
    const std::uint64_t lo = begin + b * block_size;
    return std::pair{lo, std::min(end, lo + block_size)};
  };

  if (tl_in_worker) {
    // Nested call: run every block inline on the caller (see header).
    for (std::uint64_t b = 0; b < n_blocks; ++b) {
      const auto [lo, hi] = block_range(b);
      body(b, lo, hi, 0);
    }
    per_worker[0] = n_blocks;
    return per_worker;
  }

  // One runner task per worker; each drains the shared ticket counter, so a
  // runner stuck on a heavy block simply stops claiming tickets while the
  // others finish the tail — no straggler waits.
  std::atomic<std::uint64_t> ticket{0};
  const unsigned runners =
      static_cast<unsigned>(std::min<std::uint64_t>(thread_count(), n_blocks));
  std::mutex done_mu;
  std::condition_variable done_cv;
  unsigned remaining = runners;

  for (unsigned w = 0; w < runners; ++w) {
    submit([&, w] {
      std::uint64_t executed = 0;
      for (;;) {
        const std::uint64_t b = ticket.fetch_add(1, std::memory_order_relaxed);
        if (b >= n_blocks) break;
        const auto [lo, hi] = block_range(b);
        body(b, lo, hi, w);
        ++executed;
      }
      per_worker[w] = executed;
      std::lock_guard lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  std::unique_lock lock(done_mu);
  done_cv.wait(lock, [&] { return remaining == 0; });
  return per_worker;
}

void ThreadPool::worker_loop() {
  tl_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_task_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop();
      ++active_;
    }
    task();
    {
      std::lock_guard lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace mlio::util
