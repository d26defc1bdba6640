// Tests for the constraint solver stack: raw SAT, bit-blasting, intervals,
// slicing/caching in the facade, plus a randomized end-to-end property suite
// (solve a random constraint system, then check the model with the
// evaluator — and check UNSAT answers against brute force on small widths).
#include "src/solver/solver.h"

#include <gtest/gtest.h>

#include <atomic>

#include "src/expr/eval.h"
#include "src/solver/bitblast.h"
#include "src/solver/intervals.h"
#include "src/solver/known_bits.h"
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
  EXPECT_FALSE(sat.AddClause({}));
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

TEST(SatSolverTest, RandomThreeSatAgainstBruteForce) {
  Rng rng(77);
  for (int round = 0; round < 60; ++round) {
    constexpr int kVars = 8;
    int num_clauses = 10 + static_cast<int>(rng.NextBelow(25));
    std::vector<std::vector<SatLit>> clauses;
    SatSolver sat;
    for (int i = 0; i < kVars; ++i) {
      sat.NewVar();
    }
    for (int i = 0; i < num_clauses; ++i) {
      std::vector<SatLit> clause;
      for (int j = 0; j < 3; ++j) {
        clause.push_back(
            MakeLit(static_cast<uint32_t>(rng.NextBelow(kVars)), rng.NextBelow(2) == 0));
      }
      clauses.push_back(clause);
      sat.AddClause(clause);
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

// --- Interval analysis --------------------------------------------------------

TEST(IntervalTest, ConstIsExact) {
  ExprContext ctx;
  std::unordered_map<ExprRef, Interval> memo;
  Interval iv = ComputeInterval(ctx.Const(7, 32), &memo);
  EXPECT_EQ(iv.lo, 7u);
  EXPECT_EQ(iv.hi, 7u);
}

TEST(IntervalTest, ZExtOfByteBoundsComparison) {
  ExprContext ctx;
  ExprRef x = ctx.Var(8, "x");
  ExprRef wide = ctx.ZExt(x, 32);
  // zext8(x) < 0x1000 is a tautology.
  EXPECT_EQ(QuickCheck(ctx.Ult(wide, ctx.Const(0x1000, 32))), QuickAnswer::kAlwaysTrue);
  // zext8(x) == 0x500 is impossible (already folded by the builder, but the
  // interval path must agree for un-folded shapes).
  EXPECT_EQ(QuickCheck(ctx.Ult(ctx.Const(0x1000, 32), wide)), QuickAnswer::kAlwaysFalse);
}

TEST(IntervalTest, UnknownWhenRangesOverlap) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  EXPECT_EQ(QuickCheck(ctx.Ult(x, ctx.Const(5, 32))), QuickAnswer::kUnknown);
}

TEST(IntervalTest, AndBoundedByOperands) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef masked = ctx.And(x, ctx.Const(0xFF, 32));
  EXPECT_EQ(QuickCheck(ctx.Ule(masked, ctx.Const(0xFF, 32))), QuickAnswer::kAlwaysTrue);
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
  ExprRef x = ctx_.Var(32, "x");
  std::vector<ExprRef> constraints = {ctx_.Ult(x, ctx_.Const(10, 32))};
  ExprRef cond = ctx_.Eq(x, ctx_.Const(5, 32));
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  uint64_t sat_calls = solver_.stats().sat_calls;
  EXPECT_TRUE(solver_.MayBeTrue(constraints, cond));
  EXPECT_EQ(solver_.stats().sat_calls, sat_calls);
  EXPECT_GT(solver_.stats().cache_hits, 0u);
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

TEST_F(SolverTest, QuickPathAvoidsSat) {
  ExprRef x = ctx_.Var(8, "x");
  std::vector<ExprRef> constraints;
  uint64_t sat_calls = solver_.stats().sat_calls;
  // zext(x) < 0x1000 is decided by intervals.
  EXPECT_TRUE(
      solver_.MayBeTrue(constraints, ctx_.Ult(ctx_.ZExt(x, 32), ctx_.Const(0x1000, 32))));
  EXPECT_EQ(solver_.stats().sat_calls, sat_calls);
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


// --- known-bits analysis ----------------------------------------------------------

TEST(KnownBitsTest, ConstIsExact) {
  ExprContext ctx;
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Const(0xA5, 8), &memo);
  EXPECT_TRUE(kb.IsExact());
  EXPECT_EQ(kb.ExactValue(), 0xA5u);
}

TEST(KnownBitsTest, MaskingDeterminesClearBits) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef masked = ctx.And(x, ctx.Const(0x0F, 32));
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(masked, &memo);
  EXPECT_EQ(kb.known_zero, 0xFFFFFFF0u);  // high bits provably clear
  EXPECT_EQ(kb.known_one, 0u);
}

TEST(KnownBitsTest, OrSetsBits) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Or(x, ctx.Const(0x80000001u, 32)), &memo);
  EXPECT_EQ(kb.known_one, 0x80000001u);
}

TEST(KnownBitsTest, ShiftIntroducesZeros) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  std::unordered_map<ExprRef, KnownBits> memo;
  KnownBits kb = ComputeKnownBits(ctx.Shl(x, ctx.Const(4, 32)), &memo);
  EXPECT_EQ(kb.known_zero & 0xF, 0xFu);  // low 4 bits are zero
}

TEST(KnownBitsTest, QuickCheckDecidesMaskedFlagConditions) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  // ((x | 4) & 4) == 4 is a tautology the intervals can't see.
  ExprRef flag = ctx.And(ctx.Or(x, ctx.Const(4, 32)), ctx.Const(4, 32));
  EXPECT_EQ(QuickCheck(ctx.Eq(flag, ctx.Const(4, 32))), QuickAnswer::kAlwaysTrue);
  // ((x << 4) & 1) == 1 is impossible.
  ExprRef low = ctx.And(ctx.Shl(x, ctx.Const(4, 32)), ctx.Const(1, 32));
  EXPECT_EQ(QuickCheck(ctx.Eq(low, ctx.Const(1, 32))), QuickAnswer::kAlwaysFalse);
}

// Property: known bits are sound — every claimed bit matches the evaluator
// on random assignments over random bitwise expression trees.
TEST(KnownBitsTest, RandomizedSoundness) {
  Rng rng(0xBB17);
  for (int round = 0; round < 60; ++round) {
    ExprContext ctx;
    ExprRef x = ctx.Var(16, "x");
    ExprRef y = ctx.Var(16, "y");
    std::vector<ExprRef> pool = {x, y, ctx.Const(rng.Next() & 0xFFFF, 16),
                                 ctx.Const(rng.Next() & 0xFFFF, 16)};
    for (int i = 0; i < 10; ++i) {
      ExprRef a = pool[rng.NextBelow(pool.size())];
      ExprRef b = pool[rng.NextBelow(pool.size())];
      switch (rng.NextBelow(7)) {
        case 0:
          pool.push_back(ctx.And(a, b));
          break;
        case 1:
          pool.push_back(ctx.Or(a, b));
          break;
        case 2:
          pool.push_back(ctx.Xor(a, b));
          break;
        case 3:
          pool.push_back(ctx.Not(a));
          break;
        case 4:
          pool.push_back(ctx.Add(a, b));
          break;
        case 5:
          pool.push_back(ctx.Shl(a, ctx.Const(rng.NextBelow(18), 16)));
          break;
        default:
          pool.push_back(ctx.LShr(a, ctx.Const(rng.NextBelow(18), 16)));
          break;
      }
    }
    ExprRef root = pool.back();
    std::unordered_map<ExprRef, KnownBits> memo;
    KnownBits kb = ComputeKnownBits(root, &memo);
    for (int trial = 0; trial < 50; ++trial) {
      Assignment a;
      a.Set(x->var_id(), rng.Next());
      a.Set(y->var_id(), rng.Next());
      uint64_t value = EvalExpr(root, a);
      ASSERT_EQ(value & kb.known_one, kb.known_one)
          << "claimed-one bit was zero (round " << round << ")";
      ASSERT_EQ(value & kb.known_zero, 0u)
          << "claimed-zero bit was one (round " << round << ")";
    }
  }
}

// --- Per-query deadline (resource governor) ---------------------------------

// A chain of 32-bit multiplications equated to an unlikely constant: no
// interval/known-bits shortcut applies, and bit-blasted multiplier circuits
// make the SAT instance expensive enough that a ~zero deadline always trips.
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
  config.enable_cache = false;
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
  config.enable_cache = false;
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

// --- Per-solver cache collision safety ---------------------------------------

TEST(SolverCacheCollisionTest, CollidingKeysNeverServeAnotherQuerysVerdict) {
  // testing_collide_cache_keys collapses every cache key to one bucket, so
  // every query after the first is a hash collision. Entries must be trusted
  // only after the full sorted-constraint-set compare.
  ExprContext ctx;
  SolverConfig config;
  config.testing_collide_cache_keys = true;
  config.enable_model_reuse = false;  // isolate the cache
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  std::vector<ExprRef> sat_set = {ctx.Eq(x, ctx.Const(1, 32))};
  std::vector<ExprRef> unsat_set = {ctx.Eq(x, ctx.Const(1, 32)),
                                    ctx.Eq(ctx.Add(x, x), ctx.Const(7, 32))};

  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  // Collides with the cached sat entry; a key-only cache would answer "sat".
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  // Both verdicts are now cached under the same key and still distinguishable.
  uint64_t sat_calls = solver.stats().sat_calls;
  EXPECT_TRUE(solver.IsSatisfiable(sat_set, nullptr));
  EXPECT_FALSE(solver.IsSatisfiable(unsat_set, nullptr));
  EXPECT_EQ(solver.stats().sat_calls, sat_calls);
  EXPECT_GE(solver.stats().cache_hits, 2u);
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
