#ifndef MINERULE_COMMON_TRACE_H_
#define MINERULE_COMMON_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"

namespace minerule {

// ---------------------------------------------------------------------------
// Span tracing (DESIGN.md §11): timestamped, thread-attributed spans over
// the whole pipeline — translate, every generated Q0..Q11/POST query, the
// core (per lattice level / per partition slice), thread-pool tasks —
// exported as Chrome trace-event JSON loadable in Perfetto / about:tracing.
// ---------------------------------------------------------------------------

/// One completed span on one thread. Timestamps are microseconds since the
/// tracer's epoch (process-lifetime steady clock).
struct SpanEvent {
  std::string name;
  const char* category = "";  // static string: "phase", "query", "core", ...
  int tid = 0;
  int64_t start_micros = 0;
  int64_t duration_micros = 0;
};

/// Process-wide span collector with per-thread buffers. Recording appends
/// to the calling thread's own buffer (one uncontended mutex per buffer, so
/// worker threads never serialize on each other); a snapshot walks the
/// buffers in thread-registration order. Disabled (the default) it costs
/// one relaxed atomic load per would-be span.
class SpanTracer {
 public:
  SpanTracer();
  SpanTracer(const SpanTracer&) = delete;
  SpanTracer& operator=(const SpanTracer&) = delete;

  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Microseconds since the tracer epoch (monotonic).
  int64_t NowMicros() const;

  /// Names the calling thread in trace exports ("main", "pool-worker-3").
  /// Registers the thread if needed; safe to call repeatedly. A
  /// `preferred_tid` >= 0 pins the thread id on first registration (pool
  /// workers use 100 + worker_index so their ids never depend on the race
  /// of which worker starts first); auto-assigned ids count up from 0.
  void SetCurrentThreadName(const std::string& name, int preferred_tid = -1);

  /// Appends a completed span to the calling thread's buffer. `category`
  /// must point at storage that outlives the tracer (string literals).
  void Record(std::string name, const char* category, int64_t start_micros,
              int64_t duration_micros);

  /// All spans recorded so far, grouped by thread in tid order and in
  /// record order within a thread — deterministic for a deterministic
  /// execution, independent of wall-clock values.
  std::vector<SpanEvent> Snapshot() const;

  /// Registered threads as (tid, name) pairs in tid order.
  std::vector<std::pair<int, std::string>> Threads() const;

  /// Drops all recorded spans; thread registrations (tids, names) survive.
  void Clear();

  /// The full Chrome trace-event file: {"traceEvents": [...]} with one
  /// thread_name metadata event per registered thread and one "ph":"X"
  /// complete event per span. Byte-stable modulo the ts/dur values for a
  /// deterministic execution.
  std::string ChromeTraceJson() const;

  /// Writes ChromeTraceJson() to `path`.
  Status WriteChromeTraceFile(const std::string& path) const;

 private:
  struct ThreadBuffer {
    int tid = 0;
    std::string name;
    mutable std::mutex mutex;  // uncontended: owner thread vs. snapshots
    std::vector<SpanEvent> events;
  };

  ThreadBuffer* CurrentBuffer(int preferred_tid = -1);

  /// Buffer pointers in tid order, snapshotted under mutex_.
  std::vector<ThreadBuffer*> BuffersByTid() const;

  mutable std::mutex mutex_;  // guards buffers_ (registration, snapshot)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  int next_auto_tid_ = 0;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
};

/// The process-wide tracer behind --trace-out and the mr_trace_spans system
/// table. Leaked like the shared thread pool.
SpanTracer& GlobalTracer();

/// RAII span against GlobalTracer(). When the tracer is disabled at
/// construction the whole object is inert. With `index` >= 0 the recorded
/// name is "<name>.<index>" (per-slice / per-level spans); the string is
/// only built when tracing is on.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, const char* category = "",
                      int64_t index = -1)
      : name_(GlobalTracer().enabled() ? name : nullptr),
        category_(category),
        index_(index),
        start_(name_ != nullptr ? GlobalTracer().NowMicros() : 0) {}

  /// Dynamic-name variant ("preprocess.Q4"); the string is kept only while
  /// tracing is on.
  ScopedSpan(std::string name, const char* category)
      : category_(category) {
    if (GlobalTracer().enabled()) {
      owned_name_ = std::move(name);
      name_ = owned_name_.c_str();
      start_ = GlobalTracer().NowMicros();
    }
  }

  ~ScopedSpan() {
    if (name_ == nullptr) return;
    SpanTracer& tracer = GlobalTracer();
    std::string name = index_ >= 0
                           ? std::string(name_) + "." + std::to_string(index_)
                           : std::string(name_);
    tracer.Record(std::move(name), category_, start_,
                  tracer.NowMicros() - start_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;  // null when tracing was off at construction
  const char* category_ = "";
  int64_t index_ = -1;
  int64_t start_ = 0;
  std::string owned_name_;  // backing storage for the dynamic-name variant
};

}  // namespace minerule

#endif  // MINERULE_COMMON_TRACE_H_
