// Measurement helpers for the DDT benchmark: span self time, the percentile
// rule, peak RSS and result-line JSON. Kept apart from the workloads so
// harness_test.cc can check them on synthetic inputs.
#ifndef DDTBENCH_HARNESS_H_
#define DDTBENCH_HARNESS_H_

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace_events.h"

namespace ddtbench {

// One complete span of a trace with its place in the per-thread nesting.
struct SpanNode {
  const ddt::obs::TraceEventRecord* event = nullptr;
  int parent = -1;  // index of the innermost enclosing span on the same thread
  std::vector<int> children;
  // Duration minus the union of the direct children's intervals, each
  // clipped to this span (children may overlap one another or run past
  // the parent's end when clocks disagree).
  double self_us = 0;
};

// Builds the nesting forest of the complete ('X') events, thread by thread,
// from their start times and recorded depths, and computes every span's
// self time. Instant events are skipped.
// `events` must outlive the result.
std::vector<SpanNode> BuildSpanForest(const std::vector<ddt::obs::TraceEventRecord>& events);

// Summed duration of a span's direct children named `name`.
double ChildTimeUs(const std::vector<SpanNode>& forest, const SpanNode& node, const char* name);

// Nearest-rank percentile (pct in (0, 100]) of unsorted samples; 0 if empty.
double Percentile(std::vector<double> samples, double pct);

// The highest of the percentiles 99.9, 99, 90 and 50 that has at least ten
// samples beyond it, with the sample count it rests on. pct is 0 (and value
// 0) when there are fewer than 20 samples.
struct Tail {
  double pct = 0;
  double value = 0;
  size_t samples = 0;
};
Tail TailPercentile(const std::vector<double>& samples);

// Median of unsorted values; 0 if empty.
double Median(std::vector<double> values);

// The larger of this process's and its waited-for children's maximum
// resident set size, in MiB. Children count because a fleet coordinator
// stays small while its worker processes do the work.
double PeakRssMb();

// A metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

// Shortest decimal form that round-trips the double (all its digits).
std::string JsonNumber(double value);
std::string JsonString(const std::string& text);

// {"name": {"value": v, "unit": "u"}, ...}
std::string MetricsJson(const Metrics& metrics);

}  // namespace ddtbench

#endif  // DDTBENCH_HARNESS_H_
