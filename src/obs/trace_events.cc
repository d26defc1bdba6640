#include "src/obs/trace_events.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "src/obs/metrics.h"

namespace ddt::obs {

std::atomic<bool> Tracer::enabled_{false};

namespace {

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One Chrome trace-event object. `ts`/`dur` are microseconds per the format.
std::string EventJson(const TraceEventRecord& ev) {
  char num[64];
  std::string out = "{\"name\":";
  AppendEscaped(&out, ev.name);
  out += ",\"cat\":\"ddt\",\"ph\":\"";
  out.push_back(ev.phase);
  out += "\",\"pid\":1,\"tid\":";
  out += std::to_string(ev.tid);
  std::snprintf(num, sizeof(num), ",\"ts\":%.3f", ev.ts_us);
  out += num;
  if (ev.phase == 'X') {
    std::snprintf(num, sizeof(num), ",\"dur\":%.3f", ev.dur_us);
    out += num;
  }
  if (ev.phase == 'i') {
    out += ",\"s\":\"t\"";  // thread-scoped instant
  }
  out += ",\"args\":{\"depth\":" + std::to_string(ev.depth);
  if (ev.tag_key != nullptr && ev.tag_val != nullptr) {
    out += ",";
    AppendEscaped(&out, ev.tag_key);
    out += ":";
    AppendEscaped(&out, ev.tag_val);
  }
  if (!ev.arg.empty()) {
    out += ",\"label\":";
    AppendEscaped(&out, ev.arg.c_str());
  }
  out += "}}";
  return out;
}

}  // namespace

// Fixed-capacity ring. The owning thread writes without contention in the
// common case; Collect (possibly on another thread) takes the same per-ring
// mutex, so every access is data-race-free under TSan. The mutex is private
// to one thread's ring — recording threads never contend with each other.
struct Tracer::ThreadBuffer {
  mutable std::mutex mu;
  uint32_t tid = 0;
  uint16_t depth = 0;        // current span nesting on the owning thread
  uint64_t total = 0;        // events ever recorded (>= ring.size() => drops)
  std::vector<TraceEventRecord> ring;

  void Push(TraceEventRecord ev, size_t capacity) {
    std::lock_guard<std::mutex> lock(mu);
    if (ring.size() < capacity) {
      ring.push_back(std::move(ev));
    } else if (capacity > 0) {
      ring[total % capacity] = std::move(ev);
    }
    ++total;
  }
};

Tracer& Tracer::Get() {
  static Tracer* tracer = new Tracer();  // leaked: probes may fire at exit
  return *tracer;
}

void Tracer::Enable(size_t events_per_thread) {
#ifdef DDT_OBS_DISABLED
  (void)events_per_thread;
#else
  std::lock_guard<std::mutex> lock(mu_);
  events_per_thread_.store(std::max<size_t>(1, events_per_thread), std::memory_order_relaxed);
  for (auto& buffer : buffers_) {
    std::lock_guard<std::mutex> buffer_lock(buffer->mu);
    buffer->ring.clear();
    buffer->total = 0;
    buffer->depth = 0;
  }
  origin_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  enabled_.store(true, std::memory_order_relaxed);
#endif
}

void Tracer::Disable() { enabled_.store(false, std::memory_order_relaxed); }

double Tracer::NowUs() const {
  int64_t origin = origin_ns_.load(std::memory_order_relaxed);
  if (origin == 0) {
    return 0;
  }
  return static_cast<double>(SteadyNowNs() - origin) / 1000.0;
}

Tracer::ThreadBuffer* Tracer::Buffer() {
  // Fast path: after first use the calling thread never touches the global
  // lock again — Enable() resets rings in place, so the pointer stays valid.
  thread_local ThreadBuffer* tls_buffer = nullptr;
  if (tls_buffer != nullptr) {
    return tls_buffer;
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto buffer = std::make_shared<ThreadBuffer>();
  buffer->tid = next_tid_++;
  tls_buffer = buffer.get();
  buffers_.push_back(std::move(buffer));
  return tls_buffer;
}

void Tracer::Record(const char* name, char phase, uint16_t depth, double ts_us, double dur_us,
                    const char* tag_key, const char* tag_val, std::string arg) {
  ThreadBuffer* buffer = Buffer();
  TraceEventRecord ev;
  ev.name = name;
  ev.phase = phase;
  ev.tid = buffer->tid;
  ev.depth = depth;
  ev.ts_us = ts_us;
  ev.dur_us = dur_us;
  ev.tag_key = tag_key;
  ev.tag_val = tag_val;
  ev.arg = std::move(arg);
  buffer->Push(std::move(ev), events_per_thread_.load(std::memory_order_relaxed));
}

uint16_t Tracer::EnterSpan() {
  ThreadBuffer* buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  return buffer->depth++;
}

void Tracer::LeaveSpan() {
  ThreadBuffer* buffer = Buffer();
  std::lock_guard<std::mutex> lock(buffer->mu);
  if (buffer->depth > 0) {
    --buffer->depth;
  }
}

void Tracer::Instant(const char* name, const char* tag_key, const char* tag_val,
                     std::string arg) {
  if (!Enabled()) {
    return;
  }
  ThreadBuffer* buffer = Buffer();
  uint16_t depth;
  {
    std::lock_guard<std::mutex> lock(buffer->mu);
    depth = buffer->depth;
  }
  Record(name, 'i', depth, NowUs(), 0, tag_key, tag_val, std::move(arg));
}

std::vector<TraceEventRecord> Tracer::Collect() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  std::vector<TraceEventRecord> out;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    out.insert(out.end(), buffer->ring.begin(), buffer->ring.end());
  }
  std::stable_sort(out.begin(), out.end(), [](const TraceEventRecord& a,
                                              const TraceEventRecord& b) {
    if (a.tid != b.tid) {
      return a.tid < b.tid;
    }
    return a.ts_us < b.ts_us;
  });
  return out;
}

uint64_t Tracer::DroppedEvents() const {
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    buffers = buffers_;
  }
  size_t capacity = events_per_thread_.load(std::memory_order_relaxed);
  uint64_t dropped = 0;
  for (const auto& buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mu);
    if (buffer->total > capacity) {
      dropped += buffer->total - capacity;
    }
  }
  return dropped;
}

bool Tracer::ExportChromeJson(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  std::vector<TraceEventRecord> events = Collect();
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (size_t i = 0; i < events.size(); ++i) {
    std::string json = EventJson(events[i]);
    std::fprintf(f, "%s%s", i == 0 ? "\n" : ",\n", json.c_str());
  }
  std::fputs(events.empty() ? "]}\n" : "\n]}\n", f);
  bool ok = std::fclose(f) == 0;
  if (!ok && error != nullptr) {
    *error = "write to " + path + " failed";
  }
  return ok;
}

bool Tracer::ExportJsonl(const std::string& path, std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    if (error != nullptr) {
      *error = "cannot open " + path + " for writing";
    }
    return false;
  }
  for (const TraceEventRecord& ev : Collect()) {
    std::string json = EventJson(ev);
    std::fprintf(f, "%s\n", json.c_str());
  }
  bool ok = std::fclose(f) == 0;
  if (!ok && error != nullptr) {
    *error = "write to " + path + " failed";
  }
  return ok;
}

void ScopedSpan::Begin() {
  Tracer& tracer = Tracer::Get();
  depth_ = tracer.EnterSpan();
  start_us_ = tracer.NowUs();
}

void ScopedSpan::End() {
  Tracer& tracer = Tracer::Get();
  tracer.LeaveSpan();
  // A span that straddles Disable() is still recorded: its start was observed
  // under tracing, and losing the outermost enclosing spans would make every
  // export end with broken nesting.
  double end_us = tracer.NowUs();
  tracer.Record(name_, 'X', depth_, start_us_, end_us - start_us_, tag_key_, tag_val_,
                std::move(arg_));
}

}  // namespace ddt::obs
