// Tests for the constraint solver stack: raw SAT, bit-blasting, slicing and
// the query store in the facade, plus randomized end-to-end
// property suites (solve a random constraint system, then check the model
// with the evaluator — and check every verdict against brute force on small
// widths).
#include "src/solver/solver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>

#include "src/expr/eval.h"
#include "src/solver/bitblast.h"
#include "src/solver/sat.h"
#include "src/support/rng.h"

namespace ddt {
namespace {

// --- Raw SAT solver ---------------------------------------------------------

TEST(SatSolverTest, TrivialSat) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  sat.AddUnit(MakeLit(a, false));
  EXPECT_EQ(sat.Solve(), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(a));
}

TEST(SatSolverTest, TrivialUnsat) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  sat.AddUnit(MakeLit(a, false));
  sat.AddUnit(MakeLit(a, true));
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, EmptyClauseIsUnsat) {
  SatSolver sat;
  EXPECT_FALSE(sat.AddClause(nullptr, 0));
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, PropagationChain) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  uint32_t b = sat.NewVar();
  uint32_t c = sat.NewVar();
  // a, a->b, b->c
  sat.AddUnit(MakeLit(a, false));
  sat.AddBinary(MakeLit(a, true), MakeLit(b, false));
  sat.AddBinary(MakeLit(b, true), MakeLit(c, false));
  EXPECT_EQ(sat.Solve(), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(b));
  EXPECT_TRUE(sat.ModelValue(c));
}

TEST(SatSolverTest, PigeonholeThreeIntoTwoIsUnsat) {
  // 3 pigeons, 2 holes: forces real conflict analysis.
  SatSolver sat;
  uint32_t p[3][2];
  for (auto& row : p) {
    for (uint32_t& v : row) {
      v = sat.NewVar();
    }
  }
  for (auto& row : p) {
    sat.AddBinary(MakeLit(row[0], false), MakeLit(row[1], false));
  }
  for (int hole = 0; hole < 2; ++hole) {
    for (int i = 0; i < 3; ++i) {
      for (int j = i + 1; j < 3; ++j) {
        sat.AddBinary(MakeLit(p[i][hole], true), MakeLit(p[j][hole], true));
      }
    }
  }
  EXPECT_EQ(sat.Solve(), SatResult::kUnsat);
}

TEST(SatSolverTest, AssumptionsWork) {
  SatSolver sat;
  uint32_t a = sat.NewVar();
  uint32_t b = sat.NewVar();
  sat.AddBinary(MakeLit(a, true), MakeLit(b, false));  // a -> b
  EXPECT_EQ(sat.Solve({MakeLit(a, false), MakeLit(b, true)}), SatResult::kUnsat);
  EXPECT_EQ(sat.Solve({MakeLit(a, false)}), SatResult::kSat);
  EXPECT_TRUE(sat.ModelValue(b));
}

constexpr uint32_t kThreeSatVars = 8;

// One random 3-SAT instance over kThreeSatVars variables.
std::vector<std::vector<SatLit>> RandomThreeSat(Rng* rng) {
  int num_clauses = 10 + static_cast<int>(rng->NextBelow(25));
  std::vector<std::vector<SatLit>> clauses;
  for (int i = 0; i < num_clauses; ++i) {
    std::vector<SatLit> clause;
    for (int j = 0; j < 3; ++j) {
      clause.push_back(MakeLit(static_cast<uint32_t>(rng->NextBelow(kThreeSatVars)),
                               rng->NextBelow(2) == 0));
    }
    clauses.push_back(clause);
  }
  return clauses;
}

TEST(SatSolverTest, RandomThreeSatAgainstBruteForce) {
  Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    constexpr int kVars = kThreeSatVars;
    std::vector<std::vector<SatLit>> clauses = RandomThreeSat(&rng);
    SatSolver sat;
    for (int i = 0; i < kVars; ++i) {
      sat.NewVar();
    }
    for (const auto& clause : clauses) {
      sat.AddClause(clause.data(), clause.size());
    }
    // Brute force.
    bool expect_sat = false;
    for (uint32_t mask = 0; mask < (1u << kVars) && !expect_sat; ++mask) {
      bool all = true;
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          bool value = ((mask >> LitVar(lit)) & 1) != 0;
          if (LitNegated(lit)) {
            value = !value;
          }
          any |= value;
        }
        if (!any) {
          all = false;
          break;
        }
      }
      expect_sat |= all;
    }
    SatResult result = sat.Solve();
    EXPECT_EQ(result, expect_sat ? SatResult::kSat : SatResult::kUnsat) << "round " << round;
    if (result == SatResult::kSat) {
      for (const auto& clause : clauses) {
        bool any = false;
        for (SatLit lit : clause) {
          bool value = sat.ModelValue(LitVar(lit));
          if (LitNegated(lit)) {
            value = !value;
          }
          any |= value;
        }
        EXPECT_TRUE(any) << "model violates clause in round " << round;
      }
    }
  }
}

// A SAT instance with the way it is asked.
struct SatProblem {
  uint32_t num_vars = 0;
  std::vector<std::vector<SatLit>> clauses;
  std::vector<SatLit> assumptions;
  uint64_t conflict_budget = 0;
  bool abort = false;
};

// Everything a Solve leaves observable.
struct SatOutcome {
  SatResult result = SatResult::kUnknown;
  uint32_t num_vars = 0;
  size_t num_clauses = 0;
  uint64_t conflicts = 0;
  uint64_t decisions = 0;
  uint64_t propagations = 0;
  bool hit_abort = false;
  std::vector<bool> model;  // every variable's value after kSat
};

// Solves what `sat` holds and records what the solve leaves observable.
SatOutcome Observe(SatSolver* sat, const std::vector<SatLit>& assumptions = {},
                   uint64_t conflict_budget = 0, bool abort_now = false) {
  std::atomic<bool> abort{abort_now};
  SatOutcome out;
  out.result = sat->Solve(assumptions, conflict_budget, nullptr, &abort);
  out.num_vars = sat->num_vars();
  out.num_clauses = sat->num_clauses();
  out.conflicts = sat->conflicts();
  out.decisions = sat->decisions();
  out.propagations = sat->propagations();
  out.hit_abort = sat->hit_abort();
  if (out.result == SatResult::kSat) {
    for (uint32_t v = 0; v < sat->num_vars(); ++v) {
      out.model.push_back(sat->ModelValue(v));
    }
  }
  return out;
}

SatOutcome SolveProblem(SatSolver* sat, const SatProblem& problem) {
  for (uint32_t i = 0; i < problem.num_vars; ++i) {
    sat->NewVar();
  }
  for (const auto& clause : problem.clauses) {
    sat->AddClause(clause.data(), clause.size());
  }
  return Observe(sat, problem.assumptions, problem.conflict_budget, problem.abort);
}

void ExpectSameOutcome(const SatOutcome& got, const SatOutcome& want) {
  EXPECT_EQ(got.result, want.result);
  EXPECT_EQ(got.num_vars, want.num_vars);
  EXPECT_EQ(got.num_clauses, want.num_clauses);
  EXPECT_EQ(got.conflicts, want.conflicts);
  EXPECT_EQ(got.decisions, want.decisions);
  EXPECT_EQ(got.propagations, want.propagations);
  EXPECT_EQ(got.hit_abort, want.hit_abort);
  EXPECT_EQ(got.model, want.model);
}

// `pigeons` pigeons into `holes` holes: unsat whenever pigeons > holes, and
// only after real conflict analysis.
SatProblem Pigeonhole(uint32_t pigeons, uint32_t holes) {
  SatProblem problem;
  problem.num_vars = pigeons * holes;
  auto var = [holes](uint32_t p, uint32_t h) { return p * holes + h; };
  for (uint32_t p = 0; p < pigeons; ++p) {
    std::vector<SatLit> somewhere;
    for (uint32_t h = 0; h < holes; ++h) {
      somewhere.push_back(MakeLit(var(p, h), false));
    }
    problem.clauses.push_back(somewhere);
  }
  for (uint32_t h = 0; h < holes; ++h) {
    for (uint32_t i = 0; i < pigeons; ++i) {
      for (uint32_t j = i + 1; j < pigeons; ++j) {
        problem.clauses.push_back({MakeLit(var(i, h), true), MakeLit(var(j, h), true)});
      }
    }
  }
  return problem;
}

// One solver Reset between problems must behave exactly as a new solver on
// each: the random 3-SAT rounds back to back, with a level-0 unsat, a
// conflict-budget unknown, an abort unknown and an assumption unsat
// interleaved, each of which leaves state (known-unsat, saved phases,
// activities, a trail) that a faulty Reset would carry into the next round.
TEST(SatSolverTest, ResetMatchesAFreshSolver) {
  Rng rng(77);
  SatSolver reused;
  int checked = 0;
  for (int round = 0; round < 60; ++round) {
    SatProblem random;
    random.num_vars = kThreeSatVars;
    random.clauses = RandomThreeSat(&rng);

    SatProblem special;
    switch (round % 4) {
      case 0:  // a unit chain that empties a clause at level 0
        special.num_vars = 2;
        special.clauses = {{MakeLit(0, false), MakeLit(1, false)}, {MakeLit(0, true)},
                           {MakeLit(1, true)}};
        break;
      case 1:
        special = Pigeonhole(5, 4);
        special.conflict_budget = 3;
        break;
      case 2:
        special = Pigeonhole(4, 3);
        special.abort = true;
        break;
      default:  // a -> b, asked under a and !b
        special.num_vars = 2;
        special.clauses = {{MakeLit(0, true), MakeLit(1, false)}};
        special.assumptions = {MakeLit(0, false), MakeLit(1, true)};
        break;
    }
    for (const SatProblem* problem : {&special, &random}) {
      SCOPED_TRACE(testing::Message() << "round " << round << (problem == &special ? " special"
                                                                                  : " random"));
      reused.Reset();
      SatSolver fresh;
      SatOutcome want = SolveProblem(&fresh, *problem);
      SatOutcome got = SolveProblem(&reused, *problem);
      ExpectSameOutcome(got, want);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 120);
}

// AddUnit, AddBinary and AddTernary sort on the stack instead of in
// AddClause's scratch buffer; each must store exactly the clause, and reach
// exactly the level-0 outcome, that AddClause does. Random 1- to 3-literal
// clauses with repeated and complementary literals, whose units assign
// literals at level 0 for later clauses to meet, go into one solver through
// each entry point.
TEST(SatSolverTest, SmallClausePathMatchesAddClause) {
  Rng rng(2023);
  int unsat_rounds = 0;
  constexpr int kRounds = 300;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    uint32_t vars = 3 + static_cast<uint32_t>(rng.NextBelow(6));
    SatSolver small;
    SatSolver general;
    for (uint32_t v = 0; v < vars; ++v) {
      small.NewVar();
      general.NewVar();
    }
    auto lit = [&rng, vars] {
      return MakeLit(static_cast<uint32_t>(rng.NextBelow(vars)), rng.NextBelow(2) == 0);
    };
    int clauses = 2 + static_cast<int>(rng.NextBelow(3 * vars));
    for (int i = 0; i < clauses; ++i) {
      SatLit c[3] = {lit(), lit(), lit()};
      if (rng.NextBelow(3) == 0) {  // a repeat or a complement of c[0]
        c[1 + rng.NextBelow(2)] = rng.NextBelow(2) == 0 ? c[0] : NegateLit(c[0]);
      }
      switch (rng.NextBelow(5)) {
        case 0:
          small.AddUnit(c[0]);
          general.AddClause(c, 1);
          break;
        case 1:
        case 2:
          small.AddBinary(c[0], c[1]);
          general.AddClause(c, 2);
          break;
        default:
          small.AddTernary(c[0], c[1], c[2]);
          general.AddClause(c, 3);
          break;
      }
      ASSERT_EQ(small.num_clauses(), general.num_clauses());
    }
    SatOutcome want = Observe(&general);
    ExpectSameOutcome(Observe(&small), want);
    unsat_rounds += want.result == SatResult::kUnsat;
  }
  // Both verdicts are exercised.
  EXPECT_GT(unsat_rounds, 0);
  EXPECT_LT(unsat_rounds, kRounds);
}

// A copy of a solver equals its source: copy-constructed, or assigned over a
// solver that held a larger instance and ran a search. Copied before a
// solve, all three take the same extra variable and clauses; copied after
// one (learned clauses, saved phases, activities), they solve again. Either
// way all three then solve the same way.
TEST(SatSolverTest, CopyEqualsItsSource) {
  Rng rng(99);
  SatSolver assigned;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE(testing::Message() << "round " << round);
    SatSolver source;
    for (uint32_t v = 0; v < kThreeSatVars; ++v) {
      source.NewVar();
    }
    for (const auto& clause : RandomThreeSat(&rng)) {
      source.AddClause(clause.data(), clause.size());
    }
    source.AddUnit(MakeLit(static_cast<uint32_t>(rng.NextBelow(kThreeSatVars)), false));
    bool solved_first = round % 3 == 0;
    if (solved_first) {
      Observe(&source);
    }
    assigned.Reset();
    SatProblem larger = Pigeonhole(5, 4);
    larger.conflict_budget = 1 + rng.NextBelow(8);
    SolveProblem(&assigned, larger);

    assigned = source;
    SatSolver constructed(source);
    std::vector<std::vector<SatLit>> extra = RandomThreeSat(&rng);
    std::vector<SatOutcome> outcomes;
    for (SatSolver* sat : {&source, &assigned, &constructed}) {
      if (!solved_first) {
        uint32_t v = sat->NewVar();
        sat->AddBinary(MakeLit(v, true), MakeLit(0, false));
        for (const auto& clause : extra) {
          sat->AddClause(clause.data(), clause.size());
        }
      }
      outcomes.push_back(Observe(sat));
    }
    ExpectSameOutcome(outcomes[1], outcomes[0]);
    ExpectSameOutcome(outcomes[2], outcomes[0]);
  }
}

// --- Bit-blaster -------------------------------------------------------------

class BitblastTest : public ::testing::Test {
 protected:
  // Asserts e == expected is satisfiable and e != expected is not.
  void ExpectForced(ExprRef e, uint64_t expected) {
    {
      SatSolver sat;
      Bitblaster blaster(&sat);
      blaster.AssertTrue(ctx_.Eq(e, ctx_.Const(expected, e->width())));
      EXPECT_EQ(sat.Solve(), SatResult::kSat) << ExprToString(e);
    }
    {
      SatSolver sat;
      Bitblaster blaster(&sat);
      blaster.AssertTrue(ctx_.Ne(e, ctx_.Const(expected, e->width())));
      EXPECT_EQ(sat.Solve(), SatResult::kUnsat) << ExprToString(e);
    }
  }

  ExprContext ctx_;
};

TEST_F(BitblastTest, ConstantsForceThemselves) {
  ExpectForced(ctx_.Const(0xDEADBEEF, 32), 0xDEADBEEF);
}

TEST_F(BitblastTest, VariableEqualityFindsModel) {
  ExprRef x = ctx_.Var(32, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(12345, 32)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 12345u);
}

TEST_F(BitblastTest, AdditionRelation) {
  ExprRef x = ctx_.Var(16, "x");
  ExprRef y = ctx_.Var(16, "y");
  SatSolver sat;
  Bitblaster blaster(&sat);
  blaster.AssertTrue(ctx_.Eq(ctx_.Add(x, y), ctx_.Const(100, 16)));
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(58, 16)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(y->var_id()), 42u);
}

TEST_F(BitblastTest, MultiplicationInverse) {
  ExprRef x = ctx_.Var(16, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // x * 7 == 91 -> x == 13 (unique in 16 bits? 7 is odd => invertible mod 2^16,
  // so yes, unique).
  blaster.AssertTrue(ctx_.Eq(ctx_.Mul(x, ctx_.Const(7, 16)), ctx_.Const(91, 16)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 13u);
}

TEST_F(BitblastTest, DivisionRelation) {
  ExprRef x = ctx_.Var(8, "x");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // x / 10 == 7 and x % 10 == 3 -> x == 73.
  blaster.AssertTrue(ctx_.Eq(ctx_.UDiv(x, ctx_.Const(10, 8)), ctx_.Const(7, 8)));
  blaster.AssertTrue(ctx_.Eq(ctx_.URem(x, ctx_.Const(10, 8)), ctx_.Const(3, 8)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(x->var_id()), 73u);
}

TEST_F(BitblastTest, ShiftByVariableAmount) {
  ExprRef x = ctx_.Var(8, "x");
  ExprRef s = ctx_.Var(8, "s");
  SatSolver sat;
  Bitblaster blaster(&sat);
  // (x << s) == 0xA0 with x == 5 -> s == 5.
  blaster.AssertTrue(ctx_.Eq(ctx_.Shl(x, s), ctx_.Const(0xA0, 8)));
  blaster.AssertTrue(ctx_.Eq(x, ctx_.Const(5, 8)));
  ASSERT_EQ(sat.Solve(), SatResult::kSat);
  Assignment model = blaster.ExtractModel();
  EXPECT_EQ(model.Get(s->var_id()), 5u);
}

// Randomized soundness: build random expression trees, pick random inputs,
// assert (expr == eval(expr)) is SAT and verify the model evaluates right.
TEST_F(BitblastTest, RandomExpressionsRoundTrip) {
  Rng rng(99);
  for (int round = 0; round < 40; ++round) {
    ExprContext ctx;
    ExprRef x = ctx.Var(8, "x");
    ExprRef y = ctx.Var(8, "y");
    std::vector<ExprRef> pool = {x, y, ctx.Const(rng.Next() & 0xFF, 8),
                                 ctx.Const(rng.Next() & 0xFF, 8)};
    for (int i = 0; i < 12; ++i) {
      ExprRef a = pool[rng.NextBelow(pool.size())];
      ExprRef b = pool[rng.NextBelow(pool.size())];
      ExprRef e = nullptr;
      switch (rng.NextBelow(10)) {
        case 0:
          e = ctx.Add(a, b);
          break;
        case 1:
          e = ctx.Sub(a, b);
          break;
        case 2:
          e = ctx.Mul(a, b);
          break;
        case 3:
          e = ctx.And(a, b);
          break;
        case 4:
          e = ctx.Or(a, b);
          break;
        case 5:
          e = ctx.Xor(a, b);
          break;
        case 6:
          e = ctx.Shl(a, ctx.Const(rng.NextBelow(10), 8));
          break;
        case 7:
          e = ctx.UDiv(a, b);
          break;
        case 8:
          e = ctx.Ite(ctx.Ult(a, b), a, b);
          break;
        default:
          e = ctx.URem(a, b);
          break;
      }
      pool.push_back(e);
    }
    ExprRef root = pool.back();
    Assignment inputs;
    inputs.Set(x->var_id(), rng.Next() & 0xFF);
    inputs.Set(y->var_id(), rng.Next() & 0xFF);
    uint64_t expected = EvalExpr(root, inputs);

    SatSolver sat;
    Bitblaster blaster(&sat);
    blaster.AssertTrue(ctx.Eq(x, ctx.Const(inputs.Get(x->var_id()), 8)));
    blaster.AssertTrue(ctx.Eq(y, ctx.Const(inputs.Get(y->var_id()), 8)));
    blaster.AssertTrue(ctx.Eq(root, ctx.Const(expected, root->width())));
    EXPECT_EQ(sat.Solve(), SatResult::kSat) << "round " << round;
  }
}

// --- Solver facade -------------------------------------------------------------

class SolverTest : public ::testing::Test {
 protected:
  SolverTest() : solver_(&ctx_) {}
  ExprContext ctx_;
  Solver solver_;
};

TEST_F(SolverTest, EmptyConstraintsAreSat) {
  EXPECT_TRUE(solver_.IsSatisfiable({}, nullptr));
}

TEST_F(SolverTest, SimpleBranchQueries) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32))};
  ExprRef cond = ctx_.Eq(x, ctx_.Const(5, 32));
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  EXPECT_TRUE(solver_.MayBeFalse(constraints, cond));
  EXPECT_FALSE(solver_.MustBeTrue(constraints, cond));
  ExprRef impossible = ctx_.Eq(x, ctx_.Const(50, 32));
  EXPECT_FALSE(solver_.MayBeTrue(constraints, impossible));
  EXPECT_TRUE(solver_.MustBeFalse(constraints, impossible));
}

TEST_F(SolverTest, ContradictoryConstraintsUnsat) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32)),
                                      ctx_.Ult(ctx_.Const(20, 32), x)};
  EXPECT_FALSE(solver_.IsSatisfiable(constraints, nullptr));
}

TEST_F(SolverTest, GetValueRespectsConstraints) {
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(100, 32)),
                                      ctx_.Ult(ctx_.Const(90, 32), x)};
  std::optional<uint64_t> value = solver_.GetValue(constraints, x);
  ASSERT_TRUE(value.has_value());
  EXPECT_GT(*value, 90u);
  EXPECT_LT(*value, 100u);
}

TEST_F(SolverTest, GetInitialValuesSolvesIndependentComponents) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  ExprRef z = ctx_.Var(32, "z");
  std::vector<ExprRef> constraints = {
      ctx_.Eq(x, ctx_.Const(3, 32)),
      ctx_.Eq(ctx_.Add(y, z), ctx_.Const(10, 32)),
  };
  Assignment model;
  ASSERT_TRUE(solver_.GetInitialValues(constraints, &model));
  EXPECT_EQ(model.Get(x->var_id()), 3u);
  EXPECT_EQ(MaskToWidth(model.Get(y->var_id()) + model.Get(z->var_id()), 32), 10u);
}

TEST_F(SolverTest, CacheHitsOnRepeatedQuery) {
  // The solver's own store keys queries on their canonical structure, so a
  // query that recurs over fresh variables (a sibling path's) is answered
  // without SAT, and the hit counts as "cached", not as a shared-store hit.
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_TRUE(solver_.MayBeTrue({ctx_.Ult(x, ctx_.Const(10, 32))}, ctx_.Eq(x, ctx_.Const(5, 32))));
  EXPECT_FALSE(solver_.MayBeTrue({ctx_.Ult(x, ctx_.Const(3, 32))}, ctx_.Eq(x, ctx_.Const(7, 32))));
  uint64_t sat_calls = solver_.stats().sat_calls;
  ExprRef y = ctx_.Var(32, "y");
  // y = 0 under the last model fails y == 5, so model reuse cannot answer.
  EXPECT_TRUE(solver_.MayBeTrue({ctx_.Ult(y, ctx_.Const(10, 32))}, ctx_.Eq(y, ctx_.Const(5, 32))));
  EXPECT_FALSE(solver_.MayBeTrue({ctx_.Ult(y, ctx_.Const(3, 32))}, ctx_.Eq(y, ctx_.Const(7, 32))));
  EXPECT_EQ(solver_.stats().sat_calls, sat_calls);
  EXPECT_EQ(solver_.stats().cache_hits, 2u);
  EXPECT_EQ(solver_.stats().shared_cache_hits, 0u);
  EXPECT_EQ(solver_.stats().shared_cache_misses, 0u);
  EXPECT_EQ(solver_.stats().shared_cache_stores, 0u);
}

TEST_F(SolverTest, SlicingIgnoresUnrelatedConstraints) {
  // y's constraints must not be bit-blasted when querying about x.
  ExprRef x = ctx_.Var(8, "x");
  std::vector<ExprRef> constraints;
  for (int i = 0; i < 30; ++i) {
    ExprRef y = ctx_.Var(32, "unrelated");
    constraints.push_back(ctx_.Ult(y, ctx_.Const(1000 + i, 32)));
  }
  constraints.push_back(ctx_.Ult(x, ctx_.Const(5, 8)));
  uint64_t vars_before = solver_.stats().total_sat_vars;
  EXPECT_TRUE(solver_.MayBeTrue(constraints, ctx_.Eq(x, ctx_.Const(3, 8))));
  uint64_t vars_used = solver_.stats().total_sat_vars - vars_before;
  // 8-bit x plus gates: far fewer than 30 * 32-bit unrelated vars.
  EXPECT_LT(vars_used, 300u);
}

TEST_F(SolverTest, TautologyIsAnsweredOverItsOwnSlice) {
  // A condition that is always true but not folded by the builder must still
  // be asked over its own slice, never widened to the unrelated path.
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  std::vector<ExprRef> path = {ctx_.Eq(ctx_.Mul(y, ctx_.Const(7, 32)), ctx_.Const(91, 32))};
  ExprRef cond =
      ctx_.Eq(ctx_.And(ctx_.Or(x, ctx_.Const(4, 32)), ctx_.Const(4, 32)), ctx_.Const(4, 32));
  ASSERT_FALSE(cond->IsConst());
  Solver branch(&ctx_);
  EXPECT_TRUE(branch.MayBeTrue(path, cond));
  Solver whole_path(&ctx_);
  EXPECT_TRUE(whole_path.IsSatisfiable(path, nullptr));
  EXPECT_LT(branch.stats().total_sat_clauses, whole_path.stats().total_sat_clauses);
}

// Randomized end-to-end: random small constraint systems; SAT answers checked
// by evaluating the model, UNSAT answers checked by brute force.
TEST(SolverPropertyTest, RandomSystemsAgainstBruteForce) {
  Rng rng(31337);
  for (int round = 0; round < 40; ++round) {
    ExprContext ctx;
    Solver solver(&ctx);
    ExprRef x = ctx.Var(6, "x");
    ExprRef y = ctx.Var(6, "y");
    std::vector<ExprRef> constraints;
    int n = 2 + static_cast<int>(rng.NextBelow(4));
    for (int i = 0; i < n; ++i) {
      ExprRef a = rng.NextBelow(2) == 0 ? x : y;
      ExprRef b = rng.NextBelow(3) == 0 ? (a == x ? y : x)
                                        : ctx.Const(rng.NextBelow(64), 6);
      ExprRef c = nullptr;
      switch (rng.NextBelow(4)) {
        case 0:
          c = ctx.Ult(a, b);
          break;
        case 1:
          c = ctx.Eq(ctx.And(a, ctx.Const(rng.NextBelow(64), 6)), ctx.Const(rng.NextBelow(64), 6));
          break;
        case 2:
          c = ctx.Eq(ctx.Add(a, b), ctx.Const(rng.NextBelow(64), 6));
          break;
        default:
          c = ctx.Ule(b, a);
          break;
      }
      constraints.push_back(c);
    }
    // Brute force ground truth.
    bool expect_sat = false;
    for (uint32_t xv = 0; xv < 64 && !expect_sat; ++xv) {
      for (uint32_t yv = 0; yv < 64; ++yv) {
        Assignment a;
        a.Set(x->var_id(), xv);
        a.Set(y->var_id(), yv);
        bool all = true;
        for (ExprRef c : constraints) {
          if (!EvalBool(c, a)) {
            all = false;
            break;
          }
        }
        if (all) {
          expect_sat = true;
          break;
        }
      }
    }
    Assignment model;
    bool got_sat = solver.IsSatisfiable(constraints, nullptr, &model);
    EXPECT_EQ(got_sat, expect_sat) << "round " << round;
    if (got_sat && expect_sat) {
      for (ExprRef c : constraints) {
        EXPECT_TRUE(EvalBool(c, model)) << "round " << round;
      }
    }
  }
}


// --- Deep solver oracle ------------------------------------------------------

// Random nested DAGs over two 8-bit variables: mul, udiv, urem, the three
// shifts, ite, extract, concat and the extensions, all at widths <= 8, with
// subterms shared across the system. The generator takes the variables as
// parameters, so the same draws rebuild a system over fresh variables.
class DeepSystemGen {
 public:
  DeepSystemGen(ExprContext* ctx, uint64_t seed, ExprRef x, ExprRef y)
      : ctx_(ctx), rng_(seed), x_(x), y_(y) {}

  // A comparison whose first operand reaches depth `depth - 1`.
  ExprRef Bool(int depth) {
    uint8_t w = rng_.NextBelow(3) == 0 ? static_cast<uint8_t>(1 + rng_.NextBelow(8)) : 8;
    ExprRef a = Term(depth - 1, w);
    ExprRef b = Term(Shallower(depth - 1), w);
    switch (rng_.NextBelow(8)) {
      case 0:
      case 1:
      case 2:  // equalities make unsat systems common enough to test
        return ctx_->Eq(a, b);
      case 3:
        return ctx_->Ne(a, b);
      case 4:
        return ctx_->Ult(a, b);
      case 5:
        return ctx_->Ule(a, b);
      case 6:
        return ctx_->Slt(a, b);
      default:
        return ctx_->Sle(a, b);
    }
  }

  // A term of the given width whose first operand chain reaches `depth`;
  // the other operands are shallower, which keeps systems small.
  ExprRef Term(int depth, uint8_t w) {
    if (depth <= 0) {
      return Leaf(w);
    }
    if (!shared_[w].empty() && rng_.NextBelow(5) == 0) {
      return shared_[w][rng_.NextBelow(shared_[w].size())];
    }
    ExprRef a = nullptr;
    switch (rng_.NextBelow(12)) {
      case 0:
        a = ctx_->Mul(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 1:
        a = ctx_->UDiv(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 2:
        a = ctx_->URem(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 3:
        a = ctx_->Shl(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 4:
        a = ctx_->LShr(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 5:
        a = ctx_->AShr(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      case 6:
        a = ctx_->Ite(Bool(depth), Term(Shallower(depth - 1), w), Term(Shallower(depth - 1), w));
        break;
      case 7:
        if (w < 8) {
          uint8_t wide = static_cast<uint8_t>(w + 1 + rng_.NextBelow(8 - w));
          uint32_t low = static_cast<uint32_t>(rng_.NextBelow(wide - w + 1));
          a = ctx_->Extract(Term(depth - 1, wide), low, w);
          break;
        }
        [[fallthrough]];
      case 8:
        if (w >= 2) {
          uint8_t high = static_cast<uint8_t>(1 + rng_.NextBelow(w - 1));
          a = ctx_->Concat(Term(depth - 1, high),
                           Term(Shallower(depth - 1), static_cast<uint8_t>(w - high)));
          break;
        }
        [[fallthrough]];
      case 9:
        if (w >= 2) {
          uint8_t narrow = static_cast<uint8_t>(1 + rng_.NextBelow(w - 1));
          a = rng_.NextBelow(2) == 0 ? ctx_->ZExt(Term(depth - 1, narrow), w)
                                     : ctx_->SExt(Term(depth - 1, narrow), w);
          break;
        }
        [[fallthrough]];
      case 10:
        a = ctx_->Add(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
      default:
        a = ctx_->Xor(Term(depth - 1, w), Term(Shallower(depth - 1), w));
        break;
    }
    shared_[w].push_back(a);
    return a;
  }

 private:
  int Shallower(int depth) { return static_cast<int>(rng_.NextBelow(depth + 1)) / 2; }

  ExprRef Leaf(uint8_t w) {
    if (rng_.NextBelow(3) == 0) {
      return ctx_->Const(rng_.NextBelow(1ull << w), w);
    }
    ExprRef v = rng_.NextBelow(2) == 0 ? x_ : y_;
    return w == 8 ? v : ctx_->Extract(v, static_cast<uint32_t>(rng_.NextBelow(9 - w)), w);
  }

  ExprContext* ctx_;
  SplitMix64 rng_;
  ExprRef x_;
  ExprRef y_;
  std::vector<ExprRef> shared_[9];  // built terms by width
};

int ExprDepth(ExprRef e) {
  int deepest = 0;
  for (int i = 0; i < e->num_ops(); ++i) {
    deepest = std::max(deepest, 1 + ExprDepth(e->op(i)));
  }
  return deepest;
}

// Ground truth by brute force over all 65,536 (x, y) assignments.
bool BruteForceSat(const std::vector<ExprRef>& system, ExprRef x, ExprRef y) {
  Assignment a;
  for (uint32_t xv = 0; xv < 256; ++xv) {
    for (uint32_t yv = 0; yv < 256; ++yv) {
      a.Set(x->var_id(), xv);
      a.Set(y->var_id(), yv);
      bool all = true;
      for (ExprRef c : system) {
        if (!EvalBool(c, a)) {
          all = false;
          break;
        }
      }
      if (all) {
        return true;
      }
    }
  }
  return false;
}

// Every verdict on a deep system is checked against brute force, and each
// system is asked three more ways: over fresh renamed variables (the solver's
// own store must answer, with no SAT call), with its constraints reversed,
// and through GetValue, original and renamed. GetValue's value must satisfy
// the system and equal a cold solver's; the verdict query solved this very
// key, so the store serves it with no SAT call.
TEST(SolverOracleTest, DeepDagsAgainstBruteForce) {
  constexpr uint64_t kSeeds[] = {0x5EED0001, 0x5EED0002, 0x5EED0003, 0x5EED0004};
  constexpr int kSystemsPerSeed = 8;
  int sat_systems = 0;
  int unsat_systems = 0;
  for (uint64_t seed : kSeeds) {
    ExprContext ctx;
    SolverConfig config;
    config.enable_model_reuse = false;  // isolate the store
    Solver solver(&ctx, config);
    for (int n = 0; n < kSystemsPerSeed; ++n) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " system " << n);
      uint64_t system_seed = SplitMix64(seed).Fork(static_cast<uint64_t>(n)).Next();
      ExprRef x = ctx.Var(8, "x");
      ExprRef y = ctx.Var(8, "y");
      ExprRef fresh_x = ctx.Var(8, "x'");
      ExprRef fresh_y = ctx.Var(8, "y'");
      DeepSystemGen gen(&ctx, system_seed, x, y);
      DeepSystemGen renamed_gen(&ctx, system_seed, fresh_x, fresh_y);
      std::vector<ExprRef> system;
      std::vector<ExprRef> renamed;
      for (int attempts = 0; system.size() < 3 && attempts < 64; ++attempts) {
        ExprRef c = gen.Bool(5);
        ExprRef rc = renamed_gen.Bool(5);
        // Keep roots that survived simplification at depth >= 4; a constant
        // root would drop out of every slice.
        if (!c->IsConst() && ExprDepth(c) >= 4) {
          system.push_back(c);
          renamed.push_back(rc);
        }
      }
      ASSERT_EQ(system.size(), 3u);

      bool truth = BruteForceSat(system, x, y);
      (truth ? sat_systems : unsat_systems) += 1;
      EXPECT_EQ(solver.IsSatisfiable(system, nullptr), truth);

      uint64_t sat_calls = solver.stats().sat_calls;
      uint64_t hits = solver.stats().cache_hits;
      EXPECT_EQ(solver.IsSatisfiable(renamed, nullptr), truth);
      EXPECT_EQ(solver.stats().sat_calls, sat_calls) << "renamed system reached SAT";
      EXPECT_EQ(solver.stats().cache_hits, hits + 1);

      std::vector<ExprRef> reversed(system.rbegin(), system.rend());
      EXPECT_EQ(solver.IsSatisfiable(reversed, nullptr), truth);

      sat_calls = solver.stats().sat_calls;
      std::optional<uint64_t> xy = solver.GetValue(system, ctx.Concat(x, y));
      ASSERT_EQ(xy.has_value(), truth);
      EXPECT_EQ(solver.GetValue(renamed, ctx.Concat(fresh_x, fresh_y)), xy);
      EXPECT_EQ(solver.stats().sat_calls, sat_calls) << "GetValue re-solved a solved key";
      Solver cold(&ctx, config);
      EXPECT_EQ(cold.GetValue(system, ctx.Concat(x, y)), xy);
      if (truth) {
        Assignment a;
        a.Set(x->var_id(), *xy >> 8);
        a.Set(y->var_id(), *xy & 0xFF);
        for (ExprRef c : system) {
          EXPECT_TRUE(EvalBool(c, a));
        }
      }
    }
  }
  // Both verdicts are exercised.
  EXPECT_GE(sat_systems, 8);
  EXPECT_GE(unsat_systems, 8);
}

// Three roots of depth >= 4 over x and y from one DeepSystemGen stream, kept
// as DeepDagsAgainstBruteForce keeps them.
std::vector<ExprRef> DeepSystem(ExprContext* ctx, uint64_t seed, ExprRef x, ExprRef y) {
  DeepSystemGen gen(ctx, seed, x, y);
  std::vector<ExprRef> system;
  for (int attempts = 0; system.size() < 3 && attempts < 64; ++attempts) {
    ExprRef c = gen.Bool(5);
    if (!c->IsConst() && ExprDepth(c) >= 4) {
      system.push_back(c);
    }
  }
  return system;
}

// One Solver asked the deep systems one after another, its SAT instance
// reset between calls, answers exactly as a new Solver per query: the same
// values from the same SAT instances.
TEST_F(SolverTest, ReusedEncoderMatchesFreshSolves) {
  SolverStats fresh_totals;
  int sat_systems = 0;
  int systems = 0;
  for (uint64_t seed : {0x5EED0001ull, 0x5EED0002ull, 0x5EED0003ull, 0x5EED0004ull}) {
    for (int n = 0; n < 8; ++n) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " system " << n);
      ExprRef x = ctx_.Var(8, "x");
      ExprRef y = ctx_.Var(8, "y");
      std::vector<ExprRef> system =
          DeepSystem(&ctx_, SplitMix64(seed).Fork(static_cast<uint64_t>(n)).Next(), x, y);
      ASSERT_EQ(system.size(), 3u);
      ExprRef xy = ctx_.Concat(x, y);
      Solver fresh(&ctx_);
      std::optional<uint64_t> want = fresh.GetValue(system, xy);
      EXPECT_EQ(solver_.GetValue(system, xy), want);
      fresh_totals.Accumulate(fresh.stats());
      sat_systems += want.has_value();
      ++systems;
    }
  }
  EXPECT_GT(sat_systems, 0);
  EXPECT_LT(sat_systems, systems);
  EXPECT_EQ(solver_.stats().sat_calls, fresh_totals.sat_calls);
  EXPECT_EQ(solver_.stats().total_sat_vars, fresh_totals.total_sat_vars);
  EXPECT_EQ(solver_.stats().total_sat_clauses, fresh_totals.total_sat_clauses);
  EXPECT_EQ(solver_.stats().total_conflicts, fresh_totals.total_conflicts);
}

// One Solver resumes each SAT call from the snapshot of the previous call's
// prefix when the list starts with it, and resets otherwise. Over lists that
// share prefixes ([a,b,c], [a,b,d], [a,b]), leave them ([a,e], [f]), and
// extend a prefix that is unsat at level 0, it answers exactly as a new
// Solver per list: the same values from the same SAT instances.
TEST_F(SolverTest, PrefixSnapshotMatchesFreshSolves) {
  SolverStats fresh_totals;
  int sat_lists = 0;
  int lists = 0;
  uint64_t pin = 0;
  for (uint64_t seed : {0x5EED0001ull, 0x5EED0002ull, 0x5EED0003ull, 0x5EED0004ull}) {
    ExprRef x = ctx_.Var(8, "x");
    ExprRef y = ctx_.Var(8, "y");
    SplitMix64 seeds(seed);
    std::vector<ExprRef> abc = DeepSystem(&ctx_, seeds.Next(), x, y);
    std::vector<ExprRef> def = DeepSystem(&ctx_, seeds.Next(), x, y);
    ASSERT_EQ(abc.size(), 3u);
    ASSERT_EQ(def.size(), 3u);
    ExprRef a = abc[0];
    ExprRef b = abc[1];
    ExprRef c = abc[2];
    ExprRef d = def[0];
    ExprRef e = def[1];
    ExprRef f = def[2];
    // x == pin and x == pin + 1 clash under unit propagation alone; the pin
    // moves per seed so no list repeats an earlier key.
    ExprRef p = ctx_.Eq(x, ctx_.Const(pin, 8));
    ExprRef q = ctx_.Eq(x, ctx_.Const(pin + 1, 8));
    pin += 2;
    const std::vector<std::vector<ExprRef>> asks = {
        {a, b, c}, {a, b, d}, {a, b}, {a, e}, {f}, {p, q, a}, {p, q, b}, {p, q}};
    ExprRef xy = ctx_.Concat(x, y);
    for (const std::vector<ExprRef>& list : asks) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " list " << lists);
      Solver fresh(&ctx_);
      Assignment want_model;
      bool want = fresh.IsSatisfiable(list, nullptr, &want_model);
      Assignment got_model;
      EXPECT_EQ(solver_.IsSatisfiable(list, nullptr, &got_model), want);
      if (want) {
        EXPECT_EQ(EvalExpr(xy, got_model), EvalExpr(xy, want_model));
      }
      fresh_totals.Accumulate(fresh.stats());
      sat_lists += want;
      ++lists;
    }
  }
  EXPECT_GT(sat_lists, 0);
  EXPECT_LT(sat_lists, lists);
  EXPECT_EQ(solver_.stats().sat_calls, fresh_totals.sat_calls);
  EXPECT_EQ(solver_.stats().unsat_results, fresh_totals.unsat_results);
  EXPECT_EQ(solver_.stats().total_sat_vars, fresh_totals.total_sat_vars);
  EXPECT_EQ(solver_.stats().total_sat_clauses, fresh_totals.total_sat_clauses);
  EXPECT_EQ(solver_.stats().total_conflicts, fresh_totals.total_conflicts);
}

// --- Per-query deadline (resource governor) ---------------------------------

// A chain of 32-bit multiplications equated to an unlikely constant:
// bit-blasted multiplier circuits make the SAT instance expensive enough that
// a ~zero deadline always trips.
std::vector<ExprRef> HostileConstraints(ExprContext* ctx, int chain) {
  ExprRef x = ctx->Var(32, "hostile_x");
  ExprRef y = ctx->Var(32, "hostile_y");
  ExprRef acc = x;
  for (int i = 0; i < chain; ++i) {
    acc = ctx->Mul(acc, i % 2 == 0 ? y : x);
  }
  return {ctx->Eq(acc, ctx->Const(0xDEADBEEF, 32)), ctx->Ne(x, ctx->Const(0, 32)),
          ctx->Ne(y, ctx->Const(0, 32))};
}

TEST(SolverDeadlineTest, TimedOutQueryDegradesToConservativeSat) {
  ExprContext ctx;
  SolverConfig config;
  config.max_query_ms = 1;
  config.conflict_budget = 0;  // only the deadline can stop it
  Solver solver(&ctx, config);
  // Conservative degradation: timeout answers "satisfiable" (never drops a
  // feasible path) and is counted.
  EXPECT_TRUE(solver.IsSatisfiable(HostileConstraints(&ctx, 24), nullptr));
  EXPECT_GT(solver.stats().query_timeouts, 0u);
  EXPECT_EQ(solver.stats().query_timeouts, solver.stats().unknown_results);
}

TEST(SolverDeadlineTest, GetValueStillProducesAValueOnTimeout) {
  ExprContext ctx;
  SolverConfig config;
  config.max_query_ms = 1;
  config.conflict_budget = 0;
  Solver solver(&ctx, config);
  std::vector<ExprRef> constraints = HostileConstraints(&ctx, 24);
  // GetValue degrades to evaluation under the partial/empty model: still a
  // concrete value (the engine concretizes with it), never a hang.
  std::optional<uint64_t> v = solver.GetValue(constraints, constraints[0]);
  EXPECT_TRUE(v.has_value());
}

TEST(SolverDeadlineTest, NoDeadlineMeansNoTimeouts) {
  ExprContext ctx;
  SolverConfig config;  // max_query_ms = 0
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(8, "x");
  EXPECT_TRUE(solver.IsSatisfiable({ctx.Eq(x, ctx.Const(3, 8))}, nullptr));
  EXPECT_EQ(solver.stats().query_timeouts, 0u);
}

// --- Model-reuse fast path ---------------------------------------------------

TEST(SolverModelReuseTest, SecondQuerySatisfiedByPriorModelSkipsSat) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  // First query bit-blasts and leaves a model with x == 5.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_EQ(solver.stats().sat_calls, 1u);
  // x != 7 holds under x == 5: answered by evaluation, no second SAT call.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Not(ctx.Eq(x, ctx.Const(7, 32)))));
  EXPECT_EQ(solver.stats().sat_calls, 1u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 1u);
}

TEST(SolverModelReuseTest, StaleModelFallsThroughToSat) {
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  // x == 7 is false under the cached x == 5 model but satisfiable: the reuse
  // check must not turn a reusable-model miss into an unsat answer.
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(7, 32))));
  EXPECT_EQ(solver.stats().sat_calls, 2u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
}

TEST(SolverModelReuseTest, DisabledConfigNeverReuses) {
  ExprContext ctx;
  SolverConfig config;
  config.enable_model_reuse = false;
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Not(ctx.Eq(x, ctx.Const(7, 32)))));
  EXPECT_EQ(solver.stats().sat_calls, 2u);
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
}

TEST(SolverModelReuseTest, ModelRequestingQueriesBypassReuse) {
  // Callers that concretize from the returned model must get exactly what a
  // fresh solve produces; reuse only serves yes/no queries.
  ExprContext ctx;
  Solver solver(&ctx);
  ExprRef x = ctx.Var(32, "x");
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  Assignment model;
  ExprRef gt3 = ctx.Ult(ctx.Const(3, 32), x);
  EXPECT_TRUE(solver.IsSatisfiable({}, gt3, &model));
  EXPECT_EQ(solver.stats().model_reuse_hits, 0u);
  EXPECT_TRUE(EvalBool(gt3, model));
}

TEST(SolverStatsTest, AccumulateSumsCountersAndMaxesQueryTime) {
  SolverStats total;
  SolverStats big;
  SolverStats small;
  for (const auto& row : kSolverCounters) {
    EXPECT_EQ(row.merge, obs::CounterMerge::kSum) << row.name;  // all event counts
    total.*row.field = 40;
    big.*row.field = 100;
    small.*row.field = 1;
  }
  total.max_query_wall_ms = 7.5;
  big.max_query_wall_ms = 2.5;
  small.max_query_wall_ms = 9.25;
  total.Accumulate(big);
  total.Accumulate(small);
  for (const auto& row : kSolverCounters) {
    EXPECT_EQ(total.*row.field, 141u) << row.name;
  }
  EXPECT_DOUBLE_EQ(total.max_query_wall_ms, 9.25);  // max, not sum
}

// --- Query-store collision safety -------------------------------------------

TEST(SolverCacheCollisionTest, CollidingKeysNeverServeAnotherQuerysVerdict) {
  // testing_collide_cache_keys collapses every fingerprint to one bucket of
  // the solver's own store, so every query after the first is a hash
  // collision. Entries must be trusted only after the full key compare.
  ExprContext ctx;
  SolverConfig config;
  config.testing_collide_cache_keys = true;
  config.enable_model_reuse = false;  // isolate the store
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  std::vector<ExprRef> sat_set = {ctx.Eq(x, ctx.Const(1, 32))};
  std::vector<ExprRef> unsat_set = {ctx.Eq(x, ctx.Const(1, 32)),
                                    ctx.Eq(ctx.Add(x, x), ctx.Const(7, 32))};

  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  // Collides with the stored sat entry; a key-only store would answer "sat".
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  // Both verdicts are now stored under the same fingerprint and still
  // distinguishable — also when the repeat comes over a fresh variable.
  uint64_t sat_calls = solver.stats().sat_calls;
  ExprRef y = ctx.Var(32, "y");
  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  EXPECT_TRUE(solver.IsSatisfiable({ctx.Eq(y, ctx.Const(1, 32))}, nullptr));
  EXPECT_FALSE(solver.IsSatisfiable(
      {ctx.Eq(y, ctx.Const(1, 32)), ctx.Eq(ctx.Add(y, y), ctx.Const(7, 32))}, nullptr));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls);
  EXPECT_EQ(solver.stats().cache_hits, 4u);
  // A third structure in the same bucket still misses and solves.
  EXPECT_FALSE(solver.IsSatisfiable({ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(2, 32))},
                                    nullptr));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls + 1);
}

// --- Cooperative cancellation (campaign watchdog path) ----------------------

TEST(SolverAbortTest, AbortFlagTurnsSolvesIntoConservativeUnknowns) {
  ExprContext ctx;
  Solver solver(&ctx);
  std::atomic<bool> abort_flag{true};
  solver.SetAbortFlag(&abort_flag);
  ExprRef x = ctx.Var(32, "x");

  // With the flag raised the query never reaches the SAT core; it degrades to
  // "maybe satisfiable" (the same safe over-approximation as a timeout).
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_GE(solver.stats().aborted_queries, 1u);
  EXPECT_GE(solver.stats().unknown_results, 1u);
  EXPECT_EQ(solver.stats().sat_calls, 0u);
  uint64_t aborted = solver.stats().aborted_queries;

  // Lowering the flag restores real solving.
  abort_flag.store(false);
  EXPECT_TRUE(solver.IsSatisfiable({}, ctx.Eq(x, ctx.Const(5, 32))));
  EXPECT_EQ(solver.stats().aborted_queries, aborted);
  EXPECT_GE(solver.stats().sat_calls, 1u);
}

}  // namespace
}  // namespace ddt
