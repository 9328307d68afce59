#include "common/trace.h"

#include <algorithm>
#include <cstdio>

#include "common/json.h"

namespace minerule {

SpanTracer::SpanTracer() : epoch_(std::chrono::steady_clock::now()) {}

int64_t SpanTracer::NowMicros() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

SpanTracer::ThreadBuffer* SpanTracer::CurrentBuffer(int preferred_tid) {
  // Per-thread cache of the buffer registered with *this* tracer. The cache
  // is validated against the owner so a second tracer instance (tests)
  // re-resolves instead of writing into the wrong tracer's buffer.
  thread_local SpanTracer* cached_owner = nullptr;
  thread_local ThreadBuffer* cached_buffer = nullptr;
  if (cached_owner == this) return cached_buffer;

  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<ThreadBuffer>();
  if (preferred_tid >= 0) {
    buffer->tid = preferred_tid;
  } else {
    buffer->tid = next_auto_tid_++;
  }
  buffer->name = "thread-" + std::to_string(buffer->tid);
  buffers_.push_back(std::move(buffer));
  cached_owner = this;
  cached_buffer = buffers_.back().get();
  return cached_buffer;
}

std::vector<SpanTracer::ThreadBuffer*> SpanTracer::BuffersByTid() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ThreadBuffer*> out;
  out.reserve(buffers_.size());
  for (const auto& buffer : buffers_) out.push_back(buffer.get());
  std::sort(out.begin(), out.end(),
            [](const ThreadBuffer* a, const ThreadBuffer* b) {
              return a->tid < b->tid;
            });
  return out;
}

void SpanTracer::SetCurrentThreadName(const std::string& name,
                                      int preferred_tid) {
  ThreadBuffer* buffer = CurrentBuffer(preferred_tid);
  std::lock_guard<std::mutex> lock(buffer->mutex);
  buffer->name = name;
}

void SpanTracer::Record(std::string name, const char* category,
                        int64_t start_micros, int64_t duration_micros) {
  ThreadBuffer* buffer = CurrentBuffer();
  std::lock_guard<std::mutex> lock(buffer->mutex);
  SpanEvent event;
  event.name = std::move(name);
  event.category = category;
  event.tid = buffer->tid;
  event.start_micros = start_micros;
  event.duration_micros = duration_micros;
  buffer->events.push_back(std::move(event));
}

std::vector<SpanEvent> SpanTracer::Snapshot() const {
  std::vector<SpanEvent> out;
  for (ThreadBuffer* buffer : BuffersByTid()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  return out;
}

std::vector<std::pair<int, std::string>> SpanTracer::Threads() const {
  std::vector<std::pair<int, std::string>> out;
  for (ThreadBuffer* buffer : BuffersByTid()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    out.emplace_back(buffer->tid, buffer->name);
  }
  return out;
}

void SpanTracer::Clear() {
  for (ThreadBuffer* buffer : BuffersByTid()) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
  }
}

std::string SpanTracer::ChromeTraceJson() const {
  // Chrome trace-event format (the JSON Object Format variant): metadata
  // events name the threads, "X" complete events carry the spans. ts/dur
  // are microseconds. Everything except ts/dur is a deterministic function
  // of the execution, and events are emitted in (tid, record-order), never
  // sorted by timestamp — that is what makes the export byte-stable modulo
  // timestamps.
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  for (const auto& [tid, name] : Threads()) {
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").Int(1);
    w.Key("tid").Int(tid);
    w.Key("args").BeginObject();
    w.Key("name").String(name);
    w.EndObject();
    w.EndObject();
  }
  for (const SpanEvent& span : Snapshot()) {
    w.BeginObject();
    w.Key("name").String(span.name);
    w.Key("cat").String(*span.category != '\0' ? span.category : "default");
    w.Key("ph").String("X");
    w.Key("pid").Int(1);
    w.Key("tid").Int(span.tid);
    w.Key("ts").Int(span.start_micros);
    w.Key("dur").Int(span.duration_micros);
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").String("ms");
  w.EndObject();
  return w.str();
}

Status SpanTracer::WriteChromeTraceFile(const std::string& path) const {
  const std::string json = ChromeTraceJson();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::ExecutionError("cannot open trace file " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), file);
  const int close_error = std::fclose(file);
  if (written != json.size() || close_error != 0) {
    return Status::ExecutionError("short write to trace file " + path);
  }
  return Status::OK();
}

SpanTracer& GlobalTracer() {
  static SpanTracer* tracer = new SpanTracer();
  return *tracer;
}

}  // namespace minerule
