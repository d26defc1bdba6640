// Counter tables: one declaration per stats counter.
//
// A stats struct (EngineStats, SolverStats) lists its uint64_t counters once,
// as an X-macro of rows X(field, merge, metric), declares its fields from
// that list with DDT_COUNTER_FIELD, and turns the same list into a CounterRow
// array. Everything that touches every counter — folding per-pass stats into
// campaign totals, the campaign-journal codec (which keys each value by its
// metric name), metric publishing, the tests — loops over the array, so
// adding a counter is one row.
#ifndef SRC_OBS_COUNTER_TABLE_H_
#define SRC_OBS_COUNTER_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace ddt::obs {

// How per-pass values fold into a campaign total.
enum class CounterMerge {
  kSum,  // event counts add; published as counters
  kMax,  // high-water marks keep the larger; published as gauges
};

template <typename Stats>
struct CounterRow {
  const char* name;    // the struct field
  CounterMerge merge;
  const char* metric;  // its name in a MetricsRegistry and its journal key
  uint64_t Stats::*field;
};

// Expands one row into its struct field.
#define DDT_COUNTER_FIELD(field, merge, metric) uint64_t field = 0;

// Expands one row of `Stats` into its CounterRow initializer.
#define DDT_COUNTER_ROW(Stats, field, merge, metric) \
  {#field, ::ddt::obs::CounterMerge::merge, metric, &Stats::field},

// Folds `from` into `into` row by row, each by its merge rule.
template <typename Stats, size_t N>
void AccumulateCounters(const CounterRow<Stats> (&rows)[N], const Stats& from, Stats* into) {
  for (const CounterRow<Stats>& row : rows) {
    uint64_t& total = into->*row.field;
    uint64_t value = from.*row.field;
    total = row.merge == CounterMerge::kMax ? std::max(total, value) : total + value;
  }
}

}  // namespace ddt::obs

#endif  // SRC_OBS_COUNTER_TABLE_H_
