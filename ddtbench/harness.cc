#include "ddtbench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <string_view>
#include <utility>

namespace ddtbench {

namespace {

double EndUs(const ddt::obs::TraceEventRecord& ev) { return ev.ts_us + ev.dur_us; }

}  // namespace

std::vector<SpanNode> BuildSpanForest(const std::vector<ddt::obs::TraceEventRecord>& events) {
  std::vector<SpanNode> nodes;
  for (const ddt::obs::TraceEventRecord& ev : events) {
    if (ev.phase == 'X') {
      nodes.emplace_back().event = &ev;
    }
  }
  // Per thread, by start; an enclosing span sorts before the spans it holds.
  std::vector<int> order(nodes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&nodes](int a, int b) {
    const ddt::obs::TraceEventRecord& x = *nodes[a].event;
    const ddt::obs::TraceEventRecord& y = *nodes[b].event;
    if (x.tid != y.tid) {
      return x.tid < y.tid;
    }
    if (x.ts_us != y.ts_us) {
      return x.ts_us < y.ts_us;
    }
    return x.depth < y.depth;
  });

  // The parent is the innermost span still open at the start that the
  // tracer recorded at a shallower depth; a same-depth span that overlaps
  // is a sibling, not a child.
  std::vector<int> open;
  for (size_t i = 0; i < order.size(); ++i) {
    int idx = order[i];
    const ddt::obs::TraceEventRecord& ev = *nodes[idx].event;
    if (i > 0 && nodes[order[i - 1]].event->tid != ev.tid) {
      open.clear();
    }
    while (!open.empty() && (EndUs(*nodes[open.back()].event) <= ev.ts_us ||
                             nodes[open.back()].event->depth >= ev.depth)) {
      open.pop_back();
    }
    if (!open.empty()) {
      nodes[idx].parent = open.back();
      nodes[open.back()].children.push_back(idx);
    }
    open.push_back(idx);
  }

  for (SpanNode& node : nodes) {
    double begin = node.event->ts_us;
    double end = EndUs(*node.event);
    std::vector<std::pair<double, double>> covered;
    for (int child : node.children) {
      const ddt::obs::TraceEventRecord& c = *nodes[child].event;
      double lo = std::max(begin, c.ts_us);
      double hi = std::min(end, EndUs(c));
      if (hi > lo) {
        covered.emplace_back(lo, hi);
      }
    }
    std::sort(covered.begin(), covered.end());
    double union_us = 0;
    double reach = begin;
    for (const auto& [lo, hi] : covered) {
      double from = std::max(lo, reach);
      if (hi > from) {
        union_us += hi - from;
        reach = hi;
      }
    }
    node.self_us = std::max(0.0, node.event->dur_us - union_us);
  }
  return nodes;
}

double ChildTimeUs(const std::vector<SpanNode>& forest, const SpanNode& node, const char* name) {
  double total = 0;
  for (int child : node.children) {
    const ddt::obs::TraceEventRecord& ev = *forest[child].event;
    if (std::string_view(ev.name) == name) {
      total += ev.dur_us;
    }
  }
  return total;
}

namespace {

// Nearest rank of the pct_tenths/10 percentile among n samples (1-based),
// in integers so 99% of 1000 is rank 990 exactly.
size_t NearestRank(size_t n, size_t pct_tenths) { return (pct_tenths * n + 999) / 1000; }

}  // namespace

double Percentile(std::vector<double> samples, double pct) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  size_t rank = NearestRank(samples.size(), static_cast<size_t>(std::lround(pct * 10)));
  return samples[std::clamp<size_t>(rank, 1, samples.size()) - 1];
}

Tail TailPercentile(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  for (size_t pct_tenths : {999u, 990u, 900u, 500u}) {
    size_t rank = NearestRank(samples.size(), pct_tenths);
    if (rank >= 1 && samples.size() - rank >= 10) {
      tail.pct = static_cast<double>(pct_tenths) / 10;
      tail.value = Percentile(samples, tail.pct);
      return tail;
    }
  }
  return tail;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double PeakRssMb() {
  // RUSAGE_SELF would do for this process, but Linux carries the parent's
  // high-water mark across a vfork+exec (a Python launcher's ~20 MB); the
  // VmHWM line describes this process's own address space only.
  long self_kb = 0;
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      status >> self_kb;
      break;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  struct rusage children {};
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self_kb, children.ru_maxrss)) / 1024.0;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buf[64];
  std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, r.ptr);
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string MetricsJson(const Metrics& metrics) {
  std::string out = "{";
  for (const auto& [name, metric] : metrics) {
    if (out.size() > 1) {
      out += ", ";
    }
    out += JsonString(name) + ": {\"value\": " + JsonNumber(metric.value) +
           ", \"unit\": " + JsonString(metric.unit) + "}";
  }
  return out + "}";
}

}  // namespace ddtbench
