#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

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

namespace {
/// The error of the lowest-indexed failing block, kept across all runners.
class FirstBlockError {
 public:
  void record(std::uint64_t block) {
    const std::lock_guard lock(mu_);
    if (!error_ || block < block_) {
      error_ = std::current_exception();
      block_ = block;
    }
  }
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_;
  std::uint64_t block_ = 0;
};
}  // namespace

void ThreadPool::parallel_for_dynamic(
    std::uint64_t begin, std::uint64_t end, std::uint64_t block_size,
    const std::function<void(std::uint64_t, std::uint64_t, std::uint64_t, unsigned)>& body) {
  if (begin >= end) return;
  if (block_size == 0) block_size = 1;
  const std::uint64_t n_blocks = (end - begin + block_size - 1) / block_size;

  FirstBlockError failed;
  auto run_block = [&](std::uint64_t b, unsigned w) {
    const std::uint64_t lo = begin + b * block_size;
    try {
      body(b, lo, std::min(end, lo + block_size), w);
    } catch (...) {
      failed.record(b);
    }
  };

  if (tl_in_worker) {
    // Nested call: run every block inline on the caller (see header).
    for (std::uint64_t b = 0; b < n_blocks; ++b) run_block(b, 0);
    failed.rethrow();
    return;
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
      for (;;) {
        const std::uint64_t b = ticket.fetch_add(1, std::memory_order_relaxed);
        if (b >= n_blocks) break;
        run_block(b, w);
      }
      std::lock_guard lock(done_mu);
      if (--remaining == 0) done_cv.notify_one();
    });
  }
  {
    std::unique_lock lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }
  failed.rethrow();
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
