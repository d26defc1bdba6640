#include "src/obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace ddt::obs {

void AppendEscaped(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04X", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

namespace {

void AppendDouble(std::string* out, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.resize(bounds_.size() + 1);  // final bucket = +inf
}

void Histogram::Observe(double value) {
  size_t i = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) - bounds_.begin());
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_milli_.fetch_add(static_cast<int64_t>(std::llround(value * 1000.0)),
                       std::memory_order_relaxed);
}

std::vector<double> Histogram::LatencyBucketsMs() {
  return {0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50, 100, 500, 1000, 5000, 10000};
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) {
    return it->second;
  }
  counter_storage_.emplace_back();
  Counter* c = &counter_storage_.back();
  counters_.emplace(name, c);
  return c;
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) {
    return it->second;
  }
  gauge_storage_.emplace_back();
  Gauge* g = &gauge_storage_.back();
  gauges_.emplace(name, g);
  return g;
}

Histogram* MetricsRegistry::histogram(const std::string& name, std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) {
    return it->second;
  }
  histogram_storage_.emplace_back(std::move(bounds));
  Histogram* h = &histogram_storage_.back();
  histograms_.emplace(name, h);
  return h;
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, c] : counters_) {
    snap.counters[name] = c->value();
  }
  for (const auto& [name, g] : gauges_) {
    snap.gauges[name] = MetricsSnapshot::GaugeValue{g->value(), g->max()};
  }
  for (const auto& [name, h] : histograms_) {
    MetricsSnapshot::HistogramValue v;
    v.bounds = h->bounds();
    v.buckets.resize(h->num_buckets());
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      v.buckets[i] = h->bucket_count(i);
    }
    v.count = h->count();
    v.sum = h->sum();
    snap.histograms[name] = std::move(v);
  }
  return snap;
}

void MetricsSnapshot::Merge(const MetricsSnapshot& other) {
  for (const auto& [name, value] : other.counters) {
    counters[name] += value;
  }
  for (const auto& [name, value] : other.gauges) {
    GaugeValue& mine = gauges[name];
    mine.value = std::max(mine.value, value.value);
    mine.max = std::max(mine.max, value.max);
  }
  for (const auto& [name, value] : other.histograms) {
    auto it = histograms.find(name);
    if (it == histograms.end()) {
      histograms[name] = value;
      continue;
    }
    HistogramValue& mine = it->second;
    mine.count += value.count;
    mine.sum += value.sum;
    if (mine.bounds == value.bounds) {
      for (size_t i = 0; i < mine.buckets.size() && i < value.buckets.size(); ++i) {
        mine.buckets[i] += value.buckets[i];
      }
    }
  }
}

std::string MetricsSnapshot::ToJson() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": ";
    out += std::to_string(value);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": {\"value\": " + std::to_string(value.value) +
           ", \"max\": " + std::to_string(value.max) + "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, value] : histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    AppendEscaped(&out, name);
    out += ": {\"count\": " + std::to_string(value.count) + ", \"sum\": ";
    AppendDouble(&out, value.sum);
    out += ", \"bounds\": [";
    for (size_t i = 0; i < value.bounds.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      AppendDouble(&out, value.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (size_t i = 0; i < value.buckets.size(); ++i) {
      if (i != 0) {
        out += ", ";
      }
      out += std::to_string(value.buckets[i]);
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

}  // namespace ddt::obs
