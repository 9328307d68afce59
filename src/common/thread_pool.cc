#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>

#include "common/metrics.h"
#include "common/trace.h"

namespace minerule {

namespace {

/// Set for the lifetime of a worker thread; lets ParallelFor detect nested
/// invocations and fall back to inline execution.
thread_local bool t_on_pool_worker = false;

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int ResolveThreadCount(int requested) {
  return requested <= 0 ? HardwareThreads() : requested;
}

ThreadPool::ThreadPool(int num_threads) {
  const int count = std::max(1, num_threads);
  counters_ = std::make_unique<WorkerCounters[]>(static_cast<size_t>(count));
  workers_.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
  std::unique_lock<std::mutex> lock(mutex_);
  named_.wait(lock, [&] { return named_workers_ == count; });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

bool ThreadPool::OnWorkerThread() { return t_on_pool_worker; }

ThreadPoolStats ThreadPool::Stats() const {
  ThreadPoolStats stats;
  const size_t count = workers_.size();
  stats.per_worker_tasks.reserve(count);
  stats.per_worker_busy_micros.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const int64_t tasks = counters_[i].tasks_run.load(std::memory_order_relaxed);
    const int64_t busy =
        counters_[i].busy_micros.load(std::memory_order_relaxed);
    stats.per_worker_tasks.push_back(tasks);
    stats.per_worker_busy_micros.push_back(busy);
    stats.tasks_run += tasks;
    stats.busy_micros += busy;
  }
  return stats;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  t_on_pool_worker = true;
  // Name the worker for trace exports so spans recorded from pool tasks
  // carry their real thread attribution in Perfetto.
  GlobalTracer().SetCurrentThreadName(
      "pool-worker-" + std::to_string(worker_index),
      /*preferred_tid=*/100 + static_cast<int>(worker_index));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++named_workers_;
  }
  named_.notify_one();
  Counter* tasks_counter = GlobalMetrics().GetCounter("pool.tasks_run");
  Histogram* task_micros = GlobalMetrics().GetHistogram(
      "pool.task_micros", LatencyBucketsMicros());
  WorkerCounters& counters = counters_[worker_index];
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span("pool.task", "pool");
      task();  // packaged_task: exceptions land in the future
    }
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - start)
                            .count();
    counters.tasks_run.fetch_add(1, std::memory_order_relaxed);
    counters.busy_micros.fetch_add(micros, std::memory_order_relaxed);
    tasks_counter->Increment();
    task_micros->Observe(micros);
  }
}

ThreadPool& SharedThreadPool() {
  static ThreadPool* pool = new ThreadPool(HardwareThreads());
  return *pool;
}

size_t ParallelChunks(size_t total, int num_threads) {
  return std::min(total, static_cast<size_t>(ResolveThreadCount(num_threads)));
}

void ParallelFor(size_t total, int num_threads,
                 const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t chunks = ParallelChunks(total, num_threads);
  if (chunks == 0) return;
  auto run_chunk = [&](size_t c) {
    fn(c, c * total / chunks, (c + 1) * total / chunks);
  };
  if (chunks == 1 || ThreadPool::OnWorkerThread()) {
    for (size_t c = 0; c < chunks; ++c) run_chunk(c);
    return;
  }

  // Dynamic chunk claiming: the caller and up to pool-size helpers race on
  // an atomic cursor. Which thread runs a chunk is nondeterministic; the
  // chunk boundaries (and hence any per-chunk accumulator a caller merges
  // in chunk order) are not.
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto drain = [&] {
    for (size_t c = next.fetch_add(1); c < chunks; c = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        run_chunk(c);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  ThreadPool& pool = SharedThreadPool();
  const size_t helpers =
      std::min(chunks - 1, static_cast<size_t>(pool.size()));
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) futures.push_back(pool.Submit(drain));
  drain();
  for (std::future<void>& future : futures) future.get();
  if (error != nullptr) std::rethrow_exception(error);
}

size_t MorselCount(size_t total, size_t morsel_size) {
  if (total == 0 || morsel_size == 0) return 0;
  return (total + morsel_size - 1) / morsel_size;
}

void ParallelForMorsels(size_t total, size_t morsel_size, int num_threads,
                        const std::function<void(size_t, size_t, size_t)>& fn) {
  const size_t morsels = MorselCount(total, morsel_size);
  if (morsels == 0) return;
  auto run_morsel = [&](size_t m) {
    fn(m, m * morsel_size, std::min(total, (m + 1) * morsel_size));
  };
  const size_t threads =
      std::min(morsels, static_cast<size_t>(ResolveThreadCount(num_threads)));
  if (threads == 1 || ThreadPool::OnWorkerThread()) {
    for (size_t m = 0; m < morsels; ++m) run_morsel(m);
    return;
  }

  // Dynamic morsel claiming, same scheme as ParallelFor but with many more
  // work units than threads so that skewed morsels balance out.
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  auto drain = [&] {
    for (size_t m = next.fetch_add(1); m < morsels; m = next.fetch_add(1)) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        run_morsel(m);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (error == nullptr) error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
  };

  ThreadPool& pool = SharedThreadPool();
  const size_t helpers =
      std::min(threads - 1, static_cast<size_t>(pool.size()));
  std::vector<std::future<void>> futures;
  futures.reserve(helpers);
  for (size_t i = 0; i < helpers; ++i) futures.push_back(pool.Submit(drain));
  drain();
  for (std::future<void>& future : futures) future.get();
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace minerule
