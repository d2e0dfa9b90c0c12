#include "util/thread_pool.h"

#include <cstdlib>
#include <memory>

#include "util/check.h"

namespace nfv::util {

namespace {

// Set while the current thread executes chunks of a multi-threaded job
// (workers and the participating caller). Not set by the size-1 inline
// path: an inline loop is plain serial code, so kernels below it may still
// use the global pool.
thread_local bool tl_in_parallel_region = false;

}  // namespace

bool ThreadPool::in_parallel_region() { return tl_in_parallel_region; }

ThreadPool::ScopedRegion::ScopedRegion() : previous_(tl_in_parallel_region) {
  tl_in_parallel_region = true;
}

ThreadPool::ScopedRegion::~ScopedRegion() {
  tl_in_parallel_region = previous_;
}

void ServiceThreads::start(std::size_t count,
                           std::function<void(std::size_t)> fn,
                           bool serial_kernels) {
  NFV_CHECK(threads_.empty(), "ServiceThreads already started");
  NFV_CHECK(fn != nullptr, "ServiceThreads requires a loop function");
  threads_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    threads_.emplace_back([fn, i, serial_kernels] {
      if (serial_kernels) {
        ThreadPool::ScopedRegion region;
        fn(i);
      } else {
        fn(i);
      }
    });
  }
}

void ServiceThreads::join() {
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  threads_.clear();
}

std::size_t ThreadPool::resolve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  if (const char* env = std::getenv("NFVPRED_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<std::size_t>(hw) : 1;
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(resolve_threads(threads)) {
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::record_error(std::size_t index) {
  std::lock_guard<std::mutex> lock(error_mu_);
  if (!error_ || index < error_index_) {
    error_ = std::current_exception();
    error_index_ = index;
  }
}

void ThreadPool::run_chunks(const std::function<void(std::size_t)>& fn,
                            std::size_t end) {
  for (;;) {
    const std::size_t start = next_index_.fetch_add(job_chunk_);
    if (start >= end) break;
    const std::size_t stop = std::min(start + job_chunk_, end);
    for (std::size_t i = start; i < stop; ++i) {
      try {
        fn(i);
      } catch (...) {
        // Every index still runs; the lowest failing index wins, matching
        // what the serial loop would have thrown first.
        record_error(i);
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t end = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return stop_ || epoch_ != seen_epoch; });
      if (stop_) return;
      seen_epoch = epoch_;
      fn = job_fn_;
      end = job_end_;
    }
    tl_in_parallel_region = true;
    run_chunks(*fn, end);
    tl_in_parallel_region = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++finished_workers_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  run_job(begin, end, fn, 0);
}

void ThreadPool::run_job(std::size_t begin, std::size_t end,
                         const std::function<void(std::size_t)>& fn,
                         std::size_t chunk) {
  // A size-1 pool runs inline and cannot deadlock, so it may run inside a
  // region (a serial run_pipeline holds one around its own pool).
  NFV_CHECK(threads_ == 1 || !tl_in_parallel_region,
            "nested parallel_for: already inside a parallel region");
  if (end <= begin) return;
  const std::size_t n = end - begin;

  // Serial path: a size-1 pool (or a single index) runs inline with no
  // synchronization and no region flag. Failure semantics match the
  // parallel path exactly: every index runs, the lowest failing index's
  // exception is rethrown.
  if (threads_ == 1 || n == 1) {
    std::exception_ptr first_error;
    for (std::size_t i = begin; i < end; ++i) {
      try {
        fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
    if (first_error) std::rethrow_exception(first_error);
    return;
  }

  std::lock_guard<std::mutex> job_lock(job_mutex_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_end_ = end;
    job_chunk_ =
        chunk != 0 ? chunk : std::max<std::size_t>(1, n / (threads_ * 4));
    next_index_.store(begin);
    finished_workers_ = 0;
    ++epoch_;
  }
  work_cv_.notify_all();

  tl_in_parallel_region = true;
  run_chunks(fn, end);
  tl_in_parallel_region = false;

  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock,
                  [&] { return finished_workers_ == workers_.size(); });
    job_fn_ = nullptr;
  }
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::parallel_invoke(
    const std::vector<std::function<void()>>& tasks) {
  run_job(0, tasks.size(), [&tasks](std::size_t i) { tasks[i](); }, 1);
}

namespace {

std::mutex g_global_pool_mu;
std::unique_ptr<ThreadPool> g_global_pool;  // NOLINT: joined at exit

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  if (!g_global_pool) g_global_pool = std::make_unique<ThreadPool>(0);
  return *g_global_pool;
}

void set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_pool_mu);
  g_global_pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace nfv::util
