#include "ddtbench/harness.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include "gtest/gtest.h"

namespace ddtbench {
namespace {

using ddt::obs::TraceEventRecord;

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) {
    v.push_back(static_cast<double>(i));  // unsorted on purpose
  }
  return v;
}

TEST(PercentileRule, PicksHighestPercentileWithTenSamplesBeyond) {
  Tail t = TailPercentile(OneTo(1000));
  EXPECT_EQ(t.pct, 99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.samples, 1000u);

  // One sample short of p99: the rank-990 sample has only 9 beyond it.
  t = TailPercentile(OneTo(999));
  EXPECT_EQ(t.pct, 90);
  EXPECT_EQ(t.value, 900);
  EXPECT_EQ(t.samples, 999u);

  t = TailPercentile(OneTo(10000));
  EXPECT_EQ(t.pct, 99.9);
  EXPECT_EQ(t.value, 9990);

  t = TailPercentile(OneTo(20));
  EXPECT_EQ(t.pct, 50);
  EXPECT_EQ(t.value, 10);
}

TEST(PercentileRule, TooFewSamplesGiveNoTail) {
  Tail t = TailPercentile(OneTo(19));
  EXPECT_EQ(t.pct, 0);
  EXPECT_EQ(t.value, 0);
  EXPECT_EQ(t.samples, 19u);
  EXPECT_EQ(TailPercentile({}).samples, 0u);
  EXPECT_EQ(Percentile({}, 50), 0);
}

TEST(PercentileRule, NearestRankAndMedian) {
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 50), 3);
  EXPECT_EQ(Percentile({5, 1, 4, 2, 3}, 100), 5);
  EXPECT_EQ(Percentile({7}, 99), 7);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0);
}

TraceEventRecord Span(const char* name, uint32_t tid, uint16_t depth, double start, double end) {
  TraceEventRecord ev;
  ev.name = name;
  ev.tid = tid;
  ev.depth = depth;
  ev.ts_us = start;
  ev.dur_us = end - start;
  return ev;
}

const SpanNode& Find(const std::vector<SpanNode>& forest, const char* name) {
  for (const SpanNode& node : forest) {
    if (std::strcmp(node.event->name, name) == 0) {
      return node;
    }
  }
  ADD_FAILURE() << "no span " << name;
  return forest.front();
}

TEST(SelfTime, SubtractsUnionOfNestedAndOverlappingChildren) {
  std::vector<TraceEventRecord> events = {
      Span("run", 1, 0, 0, 100),
      Span("query_a", 1, 1, 10, 30),
      Span("query_b", 1, 1, 20, 50),  // overlaps query_a: counted once
      Span("inner", 1, 2, 12, 20),    // grandchild: only query_a loses it
      Span("other_thread", 2, 0, 40, 60),
  };
  TraceEventRecord instant = Span("fork", 1, 1, 5, 5);
  instant.phase = 'i';
  events.push_back(instant);

  std::vector<SpanNode> forest = BuildSpanForest(events);
  ASSERT_EQ(forest.size(), 5u);
  const SpanNode& run = Find(forest, "run");
  EXPECT_EQ(run.parent, -1);
  EXPECT_EQ(run.children.size(), 2u);
  EXPECT_DOUBLE_EQ(run.self_us, 60);
  EXPECT_DOUBLE_EQ(Find(forest, "query_a").self_us, 12);
  EXPECT_DOUBLE_EQ(Find(forest, "query_b").self_us, 30);
  EXPECT_DOUBLE_EQ(Find(forest, "inner").self_us, 8);
  EXPECT_EQ(Find(forest, "other_thread").parent, -1);
  EXPECT_DOUBLE_EQ(Find(forest, "other_thread").self_us, 20);
  EXPECT_DOUBLE_EQ(ChildTimeUs(forest, run, "query_a"), 20);
  EXPECT_DOUBLE_EQ(ChildTimeUs(forest, run, "inner"), 0);
}

TEST(SelfTime, ClipsChildrenToTheParentAndKeepsSiblingsApart) {
  std::vector<TraceEventRecord> events = {
      Span("exec", 1, 0, 0, 100),
      Span("late", 1, 1, 90, 120),  // runs past the parent's end
      Span("next", 1, 0, 120, 130),  // starts as "late" ends: a new root
      Span("same_start", 1, 0, 200, 210),
      Span("child_same_start", 1, 1, 200, 205),
  };
  std::vector<SpanNode> forest = BuildSpanForest(events);
  EXPECT_DOUBLE_EQ(Find(forest, "exec").self_us, 90);
  EXPECT_EQ(Find(forest, "next").parent, -1);
  EXPECT_DOUBLE_EQ(Find(forest, "next").self_us, 10);
  EXPECT_DOUBLE_EQ(Find(forest, "same_start").self_us, 5);
  EXPECT_NE(Find(forest, "child_same_start").parent, -1);
}

TEST(PeakRss, IncludesWaitedForChildren) {
  constexpr size_t kChildBytes = size_t{192} << 20;
  struct rusage before {};
  getrusage(RUSAGE_SELF, &before);
  ASSERT_LT(static_cast<double>(before.ru_maxrss) / 1024.0, 150.0);

  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    std::vector<char> block(kChildBytes);
    for (size_t i = 0; i < block.size(); i += 4096) {
      block[i] = 1;
    }
    _exit(block[4096] == 1 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);

  struct rusage self {};
  getrusage(RUSAGE_SELF, &self);
  EXPECT_LT(static_cast<double>(self.ru_maxrss) / 1024.0, 150.0);
  EXPECT_GE(PeakRssMb(), 190.0);
}

TEST(Json, NumbersKeepAllDigits) {
  EXPECT_EQ(JsonNumber(1.2034), "1.2034");
  EXPECT_EQ(JsonNumber(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(JsonNumber(14), "14");
  Metrics m;
  m["wall_s"] = Metric{1.5, "s"};
  EXPECT_EQ(MetricsJson(m), "{\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}");
}

}  // namespace
}  // namespace ddtbench
