// Metrics registry: lock-cheap counters, gauges, and fixed-bucket histograms,
// registered by name.
//
// The observability counterpart of EngineStats: where EngineStats is a closed
// struct the engine owns, the registry is open — any layer (solver, thread
// pool, journal, supervisor) registers instruments by name at first use and
// updates them with a single relaxed atomic op. A registry is snapshot-able
// at any time, and snapshots merge across campaign passes the same way
// EngineStats::Accumulate folds per-pass stats (counters sum, gauges keep the
// high-water mark, histogram buckets add), so a 30-pass campaign produces one
// mergeable metrics view no matter how many worker threads ran the passes.
//
// Cost model:
//   - registration (name lookup) takes a mutex — do it once, keep the handle;
//   - updates through a handle are one relaxed atomic RMW, safe from any
//     thread, never blocking;
//   - a null registry pointer is the runtime kill switch: every instrumented
//     call site holds a possibly-null handle and skips in one branch.
//
// The subsystem deliberately depends on nothing above the C++ standard
// library, so even src/support can link against it.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ddt::obs {

// Monotonic event count. Updates are relaxed atomic adds.
class Counter {
 public:
  void Add(uint64_t delta = 1) { value_.fetch_add(delta, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Instantaneous level (queue depth, live states). Tracks the high-water mark
// alongside the current value so a snapshot taken after the fact still shows
// how deep the queue ever got.
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
    }
  }
  void Add(int64_t delta) { Set(value_.fetch_add(delta, std::memory_order_relaxed) + delta); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

// Fixed-bucket histogram. Bucket upper bounds are set at registration and
// immutable afterwards; Observe is a binary search plus one relaxed add, so
// concurrent observers never contend on a lock. The implicit final bucket is
// +inf (observations above the last bound).
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void Observe(double value);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  // Sum is stored in fixed point (value * 1000 rounded) so it can be a plain
  // atomic integer; three decimal places is plenty for millisecond metrics.
  double sum() const { return static_cast<double>(sum_milli_.load(std::memory_order_relaxed)) / 1000.0; }
  uint64_t bucket_count(size_t i) const { return buckets_[i].load(std::memory_order_relaxed); }
  size_t num_buckets() const { return buckets_.size(); }

  // A sensible default for operation latencies in milliseconds: 0.01 ms up
  // to 10 s in roughly-logarithmic steps.
  static std::vector<double> LatencyBucketsMs();

 private:
  std::vector<double> bounds_;                 // ascending upper bounds
  std::deque<std::atomic<uint64_t>> buckets_;  // bounds_.size() + 1 (last = +inf)
  std::atomic<uint64_t> count_{0};
  std::atomic<int64_t> sum_milli_{0};
};

// Point-in-time copy of every instrument in a registry, detached from the
// atomics. Snapshots are plain data: they merge, serialize, and compare.
struct MetricsSnapshot {
  struct GaugeValue {
    int64_t value = 0;
    int64_t max = 0;
  };
  struct HistogramValue {
    std::vector<double> bounds;
    std::vector<uint64_t> buckets;  // bounds.size() + 1
    uint64_t count = 0;
    double sum = 0;
  };

  // std::map keeps name order deterministic in ToJson regardless of
  // registration order.
  std::map<std::string, uint64_t> counters;
  std::map<std::string, GaugeValue> gauges;
  std::map<std::string, HistogramValue> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  // Folds `other` in: counters and histogram buckets sum, gauges keep the
  // max (a campaign-level gauge is a high-water mark across passes).
  // Histograms with mismatched bounds keep this snapshot's buckets and only
  // fold count/sum — mismatch means two code versions disagree, and losing
  // bucket resolution beats crashing a report path.
  void Merge(const MetricsSnapshot& other);

  // Stable, human-diffable JSON (sorted keys, no timestamps).
  std::string ToJson() const;
};

// Named instrument registry. Thread-safe; instruments live as long as the
// registry (handles are stable pointers into deques).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  // Registers with the given bounds on first use; later calls for the same
  // name return the existing histogram (bounds are fixed at registration).
  Histogram* histogram(const std::string& name, std::vector<double> bounds);

  MetricsSnapshot Snapshot() const;

 private:
  mutable std::mutex mu_;
  std::deque<Counter> counter_storage_;
  std::deque<Gauge> gauge_storage_;
  std::deque<Histogram> histogram_storage_;
  std::map<std::string, Counter*> counters_;
  std::map<std::string, Gauge*> gauges_;
  std::map<std::string, Histogram*> histograms_;
};

// Appends `text` as a quoted JSON string — the one escaper behind the
// metrics snapshot and the trace export (names are ASCII identifiers, but a
// hostile one must not corrupt the document).
void AppendEscaped(std::string* out, std::string_view text);

}  // namespace ddt::obs

#endif  // SRC_OBS_METRICS_H_
