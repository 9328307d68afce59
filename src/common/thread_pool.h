#ifndef MINERULE_COMMON_THREAD_POOL_H_
#define MINERULE_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace minerule {

/// Snapshot of pool-side utilization. Only work that actually ran on a
/// worker thread is counted; ParallelFor chunks executed by the calling
/// thread are intentionally excluded (this measures pool utilization, not
/// total work). Take a snapshot before and after a region and subtract to
/// attribute usage to it.
struct ThreadPoolStats {
  int64_t tasks_run = 0;
  int64_t busy_micros = 0;
  std::vector<int64_t> per_worker_tasks;
  std::vector<int64_t> per_worker_busy_micros;
};

/// Number of hardware threads, never less than 1.
int HardwareThreads();

/// Resolves a user-facing thread-count knob: values <= 0 mean "use the
/// hardware concurrency"; anything else is taken as given. num_threads == 1
/// always yields the serial execution path.
int ResolveThreadCount(int requested);

/// A fixed-size worker pool. Tasks are run in FIFO order; Submit returns a
/// future carrying the task's result or exception. The pool is not
/// work-stealing: a task that blocks on another queued task can stall the
/// pool, which is why ParallelFor (below) has the caller participate and
/// degrades to inline execution when invoked from a pool worker.
class ThreadPool {
 public:
  /// Spawns max(1, num_threads) workers.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Schedules `fn` on a worker thread.
  template <typename F>
  auto Submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return future;
  }

  /// True when called from one of this pool's worker threads.
  static bool OnWorkerThread();

  /// Cumulative per-worker utilization since construction.
  ThreadPoolStats Stats() const;

 private:
  /// Per-worker counters, cache-line padded so workers never contend.
  /// Relaxed atomics: readers only need eventually-consistent totals.
  struct alignas(64) WorkerCounters {
    std::atomic<int64_t> tasks_run{0};
    std::atomic<int64_t> busy_micros{0};
  };

  void WorkerLoop(size_t worker_index);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  /// Workers that have named themselves in the tracer; the constructor
  /// waits for all of them, so a trace export never misses a worker.
  int named_workers_ = 0;
  std::condition_variable named_;
  std::unique_ptr<WorkerCounters[]> counters_;
  std::vector<std::thread> workers_;
};

/// The process-wide pool shared by all miners, sized to the hardware
/// concurrency. Created on first use and intentionally leaked so that
/// worker teardown never races static destruction.
ThreadPool& SharedThreadPool();

/// Number of chunks ParallelFor splits [0, total) into for the given
/// thread-count knob: min(total, ResolveThreadCount(num_threads)). Callers
/// that merge per-chunk accumulators size them with this, which keeps the
/// merge deterministic — the chunking depends only on (total, num_threads),
/// never on scheduling.
size_t ParallelChunks(size_t total, int num_threads);

/// Runs fn(chunk, begin, end) for every chunk of the fixed chunking above,
/// using the shared pool, and blocks until all chunks are done. The calling
/// thread claims chunks too, so forward progress never depends on pool
/// availability; when called from a pool worker the whole loop runs inline
/// (nesting would otherwise risk deadlock). The first exception thrown by
/// any chunk is rethrown here after the remaining started chunks finish;
/// unstarted chunks are skipped once an exception is recorded.
void ParallelFor(size_t total, int num_threads,
                 const std::function<void(size_t chunk, size_t begin,
                                          size_t end)>& fn);

/// Number of fixed-size morsels [0, total) splits into: ceil(total /
/// morsel_size). Like ParallelChunks this is a pure function of its
/// arguments, so per-morsel result slots merged in morsel order are
/// deterministic at any thread count.
size_t MorselCount(size_t total, size_t morsel_size);

/// Morsel-grained ParallelFor: runs fn(morsel, begin, end) for every
/// fixed-size morsel of [0, total), with up to ResolveThreadCount(
/// num_threads) threads (the caller included) claiming morsels off an
/// atomic cursor. Unlike ParallelFor's one-chunk-per-thread split, the
/// morsel boundaries do NOT depend on num_threads — only which thread runs
/// a morsel is scheduling-dependent — so results keyed by morsel index are
/// identical at every thread count. Degrades to inline execution from a
/// pool worker, exactly like ParallelFor.
void ParallelForMorsels(size_t total, size_t morsel_size, int num_threads,
                        const std::function<void(size_t morsel, size_t begin,
                                                 size_t end)>& fn);

}  // namespace minerule

#endif  // MINERULE_COMMON_THREAD_POOL_H_
