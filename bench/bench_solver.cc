// Supporting microbenchmarks for the constraint-solving stack (the paper's
// §6.1 notes that "solving path constraints at each branch is CPU-intensive"
// and that any solver improvement directly improves DDT — these benchmarks
// quantify where the cycles go in our KLEE/STP analogue).
#include <benchmark/benchmark.h>

#include "src/expr/expr.h"
#include "src/solver/solver.h"
#include "src/support/rng.h"

namespace {

using ddt::Assignment;
using ddt::ExprContext;
using ddt::ExprRef;
using ddt::Rng;
using ddt::Solver;

// Typical branch query: bounded variable compared against a constant.
void BM_BranchQuery(benchmark::State& state) {
  for (auto _ : state) {
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.Var(32, "x");
    std::vector<ExprRef> constraints = {ctx.Ult(x, ctx.Const(100, 32))};
    benchmark::DoNotOptimize(solver.MayBeTrue(constraints, ctx.Eq(x, ctx.Const(55, 32))));
  }
}
BENCHMARK(BM_BranchQuery);

// The same query answered by the cache on repeat.
void BM_BranchQueryCached(benchmark::State& state) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx.Ult(x, ctx.Const(100, 32))};
  ExprRef cond = ctx.Eq(x, ctx.Const(55, 32));
  benchmark::DoNotOptimize(solver.MayBeTrue(constraints, cond));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.MayBeTrue(constraints, cond));
  }
}
BENCHMARK(BM_BranchQueryCached);

// Bit-blasting cost by operation: multiply is the expensive gate network.
void BM_SolveMultiply(benchmark::State& state) {
  uint8_t width = static_cast<uint8_t>(state.range(0));
  for (auto _ : state) {
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.Var(width, "x");
    // x * 7 == 91: unique odd-multiplier inversion.
    std::vector<ExprRef> constraints = {
        ctx.Eq(ctx.Mul(x, ctx.Const(7, width)), ctx.Const(91, width))};
    Assignment model;
    benchmark::DoNotOptimize(solver.IsSatisfiable(constraints, nullptr, &model));
  }
}
BENCHMARK(BM_SolveMultiply)->Arg(8)->Arg(16)->Arg(32);

void BM_SolveDivision(benchmark::State& state) {
  for (auto _ : state) {
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.Var(16, "x");
    std::vector<ExprRef> constraints = {
        ctx.Eq(ctx.UDiv(x, ctx.Const(10, 16)), ctx.Const(7, 16)),
        ctx.Eq(ctx.URem(x, ctx.Const(10, 16)), ctx.Const(3, 16))};
    Assignment model;
    benchmark::DoNotOptimize(solver.IsSatisfiable(constraints, nullptr, &model));
  }
}
BENCHMARK(BM_SolveDivision);

// Constraint-set slicing: query about one variable among many unrelated ones.
void BM_SlicedQuery(benchmark::State& state) {
  int unrelated = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExprContext ctx;
    Solver solver(&ctx);
    std::vector<ExprRef> constraints;
    for (int i = 0; i < unrelated; ++i) {
      ExprRef y = ctx.Var(32, "y");
      constraints.push_back(ctx.Ult(y, ctx.Const(1000 + i, 32)));
    }
    ExprRef x = ctx.Var(8, "x");
    constraints.push_back(ctx.Ult(x, ctx.Const(5, 8)));
    benchmark::DoNotOptimize(solver.MayBeTrue(constraints, ctx.Eq(x, ctx.Const(3, 8))));
  }
}
BENCHMARK(BM_SlicedQuery)->Arg(4)->Arg(32)->Arg(128);

// Model generation for bug reports: solve a conjunctive path of depth N.
void BM_GetInitialValues(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ExprContext ctx;
    Solver solver(&ctx);
    Rng rng(7);
    std::vector<ExprRef> constraints;
    ExprRef acc = ctx.Var(32, "x0");
    for (int i = 0; i < depth; ++i) {
      ExprRef next = ctx.Var(32, "x");
      constraints.push_back(ctx.Ult(acc, ctx.Add(next, ctx.Const(rng.NextBelow(50) + 1, 32))));
      acc = next;
    }
    Assignment model;
    benchmark::DoNotOptimize(solver.GetInitialValues(constraints, &model));
  }
}
BENCHMARK(BM_GetInitialValues)->Arg(4)->Arg(16);

// Expression interning throughput (the hash-consing hot path).
void BM_ExprConstruction(benchmark::State& state) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctx.Add(x, ctx.Const(i++ & 0xFF, 32)));
  }
}
BENCHMARK(BM_ExprConstruction);

}  // namespace

BENCHMARK_MAIN();
