// Unit tests for the expression DAG: construction, hash-consing,
// simplification rules, and the concrete evaluator (including a randomized
// property suite cross-checking builder folds against direct evaluation).
#include "src/expr/expr.h"

#include <gtest/gtest.h>

#include <unordered_set>
#include <vector>

#include "src/expr/eval.h"
#include "src/support/rng.h"

namespace ddt {
namespace {

class ExprTest : public ::testing::Test {
 protected:
  ExprContext ctx_;
};

TEST_F(ExprTest, ConstMasksToWidth) {
  ExprRef c = ctx_.Const(0x1FF, 8);
  EXPECT_EQ(c->const_value(), 0xFFu);
  EXPECT_EQ(c->width(), 8);
}

TEST_F(ExprTest, HashConsingDeduplicates) {
  ExprRef a = ctx_.Const(42, 32);
  ExprRef b = ctx_.Const(42, 32);
  EXPECT_EQ(a, b);
  ExprRef v = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Add(v, a), ctx_.Add(v, b));
}

TEST_F(ExprTest, DistinctWidthsAreDistinct) {
  EXPECT_NE(ctx_.Const(1, 8), ctx_.Const(1, 16));
}

TEST_F(ExprTest, VarsAreUnique) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "x");  // same name, still a fresh variable
  EXPECT_NE(x, y);
  EXPECT_NE(x->var_id(), y->var_id());
}

TEST_F(ExprTest, AddConstantFolding) {
  EXPECT_EQ(ctx_.Add(ctx_.Const(3, 32), ctx_.Const(4, 32)), ctx_.Const(7, 32));
}

TEST_F(ExprTest, AddIdentity) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Add(x, ctx_.Const(0, 32)), x);
  EXPECT_EQ(ctx_.Add(ctx_.Const(0, 32), x), x);
}

TEST_F(ExprTest, AddConstantChainsCombine) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef e = ctx_.Add(ctx_.Const(5, 32), ctx_.Add(ctx_.Const(7, 32), x));
  ASSERT_EQ(e->kind(), ExprKind::kAdd);
  EXPECT_EQ(e->op(0), ctx_.Const(12, 32));
  EXPECT_EQ(e->op(1), x);
}

TEST_F(ExprTest, SubSelfIsZero) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Sub(x, x), ctx_.Const(0, 32));
}

TEST_F(ExprTest, SubConstBecomesAddNegated) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef e = ctx_.Sub(x, ctx_.Const(1, 32));
  EXPECT_EQ(e->kind(), ExprKind::kAdd);
  EXPECT_EQ(e->op(0), ctx_.Const(0xFFFFFFFF, 32));
}

TEST_F(ExprTest, MulByZeroAndOne) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Mul(x, ctx_.Const(0, 32)), ctx_.Const(0, 32));
  EXPECT_EQ(ctx_.Mul(x, ctx_.Const(1, 32)), x);
}

TEST_F(ExprTest, AndOrXorIdentities) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef zero = ctx_.Const(0, 32);
  ExprRef ones = ctx_.Const(0xFFFFFFFF, 32);
  EXPECT_EQ(ctx_.And(x, zero), zero);
  EXPECT_EQ(ctx_.And(x, ones), x);
  EXPECT_EQ(ctx_.And(x, x), x);
  EXPECT_EQ(ctx_.Or(x, zero), x);
  EXPECT_EQ(ctx_.Or(x, ones), ones);
  EXPECT_EQ(ctx_.Xor(x, zero), x);
  EXPECT_EQ(ctx_.Xor(x, x), zero);
}

TEST_F(ExprTest, NotNotCancels) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Not(ctx_.Not(x)), x);
}

TEST_F(ExprTest, NotOfComparisonUsesDual) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  ExprRef e = ctx_.Not(ctx_.Ult(x, y));
  EXPECT_EQ(e->kind(), ExprKind::kUle);
  EXPECT_EQ(e->op(0), y);
  EXPECT_EQ(e->op(1), x);
}

TEST_F(ExprTest, EqSelfIsTrue) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_TRUE(ctx_.Eq(x, x)->IsTrue());
}

TEST_F(ExprTest, EqWidthOneSimplifies) {
  ExprRef b = ctx_.Var(1, "b");
  EXPECT_EQ(ctx_.Eq(b, ctx_.True()), b);
  EXPECT_EQ(ctx_.Eq(b, ctx_.False()), ctx_.Not(b));
}

TEST_F(ExprTest, EqThroughAddConstant) {
  ExprRef x = ctx_.Var(32, "x");
  // (x + 5) == 12  ->  x == 7
  ExprRef e = ctx_.Eq(ctx_.Add(x, ctx_.Const(5, 32)), ctx_.Const(12, 32));
  ASSERT_EQ(e->kind(), ExprKind::kEq);
  EXPECT_EQ(e->op(0), ctx_.Const(7, 32));
  EXPECT_EQ(e->op(1), x);
}

TEST_F(ExprTest, EqThroughZExtOutOfRangeIsFalse) {
  ExprRef x = ctx_.Var(8, "x");
  ExprRef e = ctx_.Eq(ctx_.ZExt(x, 32), ctx_.Const(0x500, 32));
  EXPECT_TRUE(e->IsFalse());
}

TEST_F(ExprTest, UltBounds) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_TRUE(ctx_.Ult(x, ctx_.Const(0, 32))->IsFalse());
  EXPECT_TRUE(ctx_.Ule(ctx_.Const(0, 32), x)->IsTrue());
}

TEST_F(ExprTest, IteSimplifications) {
  ExprRef c = ctx_.Var(1, "c");
  ExprRef a = ctx_.Var(32, "a");
  ExprRef b = ctx_.Var(32, "b");
  EXPECT_EQ(ctx_.Ite(ctx_.True(), a, b), a);
  EXPECT_EQ(ctx_.Ite(ctx_.False(), a, b), b);
  EXPECT_EQ(ctx_.Ite(c, a, a), a);
  EXPECT_EQ(ctx_.Ite(c, ctx_.Const(1, 1), ctx_.Const(0, 1)), c);
}

TEST_F(ExprTest, ExtractOfExtract) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef e = ctx_.Extract(ctx_.Extract(x, 8, 16), 4, 8);
  ASSERT_EQ(e->kind(), ExprKind::kExtract);
  EXPECT_EQ(e->op(0), x);
  EXPECT_EQ(e->extract_low(), 12u);
  EXPECT_EQ(e->width(), 8);
}

TEST_F(ExprTest, ConcatOfExtractsReassembles) {
  ExprRef x = ctx_.Var(32, "x");
  // Byte-split then reassemble: the memory model depends on this fold.
  ExprRef b0 = ctx_.ExtractByte(x, 0);
  ExprRef b1 = ctx_.ExtractByte(x, 1);
  ExprRef b2 = ctx_.ExtractByte(x, 2);
  ExprRef b3 = ctx_.ExtractByte(x, 3);
  ExprRef whole = ctx_.Concat(ctx_.Concat(b3, b2), ctx_.Concat(b1, b0));
  EXPECT_EQ(whole, x);
}

TEST_F(ExprTest, ExtractOfConcatSelectsSide) {
  ExprRef hi = ctx_.Var(16, "hi");
  ExprRef lo = ctx_.Var(16, "lo");
  ExprRef cat = ctx_.Concat(hi, lo);
  EXPECT_EQ(ctx_.Extract(cat, 0, 16), lo);
  EXPECT_EQ(ctx_.Extract(cat, 16, 16), hi);
}

TEST_F(ExprTest, ZExtConstFolds) {
  EXPECT_EQ(ctx_.ZExt(ctx_.Const(0xAB, 8), 32), ctx_.Const(0xAB, 32));
  EXPECT_EQ(ctx_.SExt(ctx_.Const(0x80, 8), 32), ctx_.Const(0xFFFFFF80, 32));
}

TEST_F(ExprTest, ShiftBeyondWidth) {
  ExprRef x = ctx_.Var(32, "x");
  EXPECT_EQ(ctx_.Shl(x, ctx_.Const(32, 32)), ctx_.Const(0, 32));
  EXPECT_EQ(ctx_.LShr(x, ctx_.Const(40, 32)), ctx_.Const(0, 32));
}

TEST_F(ExprTest, AppendVarsFindsEachVariableOnceInFirstVisitOrder) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  ExprRef e = ctx_.Concat(y, ctx_.Mul(x, y));  // y is the high part: visited first
  std::vector<uint32_t> vars;
  ctx_.AppendVars(e, &vars);
  EXPECT_EQ(vars, (std::vector<uint32_t>{y->var_id(), x->var_id()}));
  // Every walk starts afresh: the nodes the first one stamped count again.
  ctx_.AppendVars(x, &vars);
  EXPECT_EQ(vars, (std::vector<uint32_t>{y->var_id(), x->var_id(), x->var_id()}));
  std::unordered_set<uint32_t> set;
  CollectVars(e, &set);
  EXPECT_EQ(set, (std::unordered_set<uint32_t>{x->var_id(), y->var_id()}));
}

TEST_F(ExprTest, EvalBasics) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  Assignment a;
  a.Set(x->var_id(), 10);
  a.Set(y->var_id(), 3);
  EXPECT_EQ(EvalExpr(ctx_.Add(x, y), a), 13u);
  EXPECT_EQ(EvalExpr(ctx_.Sub(x, y), a), 7u);
  EXPECT_EQ(EvalExpr(ctx_.Mul(x, y), a), 30u);
  EXPECT_EQ(EvalExpr(ctx_.UDiv(x, y), a), 3u);
  EXPECT_EQ(EvalExpr(ctx_.URem(x, y), a), 1u);
  EXPECT_TRUE(EvalBool(ctx_.Ult(y, x), a));
  EXPECT_FALSE(EvalBool(ctx_.Ult(x, y), a));
}

TEST_F(ExprTest, EvalDivByZeroSemantics) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef zero = ctx_.Const(0, 32);
  Assignment a;
  a.Set(x->var_id(), 7);
  EXPECT_EQ(EvalExpr(ctx_.UDiv(x, zero), a), 0xFFFFFFFFu);
  EXPECT_EQ(EvalExpr(ctx_.URem(x, zero), a), 7u);
}

TEST_F(ExprTest, EvalSignedComparisons) {
  ExprRef x = ctx_.Var(32, "x");
  ExprRef y = ctx_.Var(32, "y");
  Assignment a;
  a.Set(x->var_id(), 0xFFFFFFFF);  // -1 signed
  a.Set(y->var_id(), 1);
  EXPECT_TRUE(EvalBool(ctx_.Slt(x, y), a));
  EXPECT_FALSE(EvalBool(ctx_.Ult(x, y), a));
}

// --- Randomized property suite: every builder output must agree with direct
// semantic evaluation on random inputs. Catches simplifier bugs.

struct BinOpCase {
  const char* name;
  ExprRef (ExprContext::*build)(ExprRef, ExprRef);
  uint64_t (*semantics)(uint64_t, uint64_t, uint8_t);
};

uint64_t SemAdd(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a + b, w); }
uint64_t SemSub(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a - b, w); }
uint64_t SemMul(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a * b, w); }
uint64_t SemUDiv(uint64_t a, uint64_t b, uint8_t w) {
  return MaskToWidth(b == 0 ? ~0ull : a / b, w);
}
uint64_t SemURem(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(b == 0 ? a : a % b, w); }
uint64_t SemAnd(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a & b, w); }
uint64_t SemOr(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a | b, w); }
uint64_t SemXor(uint64_t a, uint64_t b, uint8_t w) { return MaskToWidth(a ^ b, w); }
uint64_t SemShl(uint64_t a, uint64_t b, uint8_t w) {
  return b >= w ? 0 : MaskToWidth(a << b, w);
}
uint64_t SemLShr(uint64_t a, uint64_t b, uint8_t w) { return b >= w ? 0 : (a >> b); }
uint64_t SemEq(uint64_t a, uint64_t b, uint8_t w) { return a == b ? 1 : 0; }
uint64_t SemUlt(uint64_t a, uint64_t b, uint8_t w) { return a < b ? 1 : 0; }
uint64_t SemUle(uint64_t a, uint64_t b, uint8_t w) { return a <= b ? 1 : 0; }
uint64_t SemSlt(uint64_t a, uint64_t b, uint8_t w) {
  return SignExtend(a, w) < SignExtend(b, w) ? 1 : 0;
}
uint64_t SemSle(uint64_t a, uint64_t b, uint8_t w) {
  return SignExtend(a, w) <= SignExtend(b, w) ? 1 : 0;
}

class ExprPropertyTest : public ::testing::TestWithParam<BinOpCase> {};

TEST_P(ExprPropertyTest, BuilderMatchesSemanticsOnRandomInputs) {
  const BinOpCase& test_case = GetParam();
  ExprContext ctx;
  Rng rng(0xDD7 + std::string_view(test_case.name).size());
  for (uint8_t width : {8, 16, 32}) {
    ExprRef x = ctx.Var(width, "x");
    ExprRef y = ctx.Var(width, "y");
    for (int i = 0; i < 200; ++i) {
      uint64_t a = MaskToWidth(rng.Next(), width);
      uint64_t b = MaskToWidth(rng.Next(), width);
      // Bias toward interesting values.
      if (i % 7 == 0) {
        b = 0;
      }
      if (i % 11 == 0) {
        a = MaskToWidth(~0ull, width);
      }
      Assignment assignment;
      assignment.Set(x->var_id(), a);
      assignment.Set(y->var_id(), b);
      ExprRef sym_sym = (ctx.*test_case.build)(x, y);
      ExprRef sym_const = (ctx.*test_case.build)(x, ctx.Const(b, width));
      ExprRef const_const = (ctx.*test_case.build)(ctx.Const(a, width), ctx.Const(b, width));
      uint64_t expected = test_case.semantics(a, b, width);
      uint8_t rw = sym_sym->width();
      EXPECT_EQ(EvalExpr(sym_sym, assignment), MaskToWidth(expected, rw))
          << test_case.name << " width " << int(width) << " a=" << a << " b=" << b;
      EXPECT_EQ(EvalExpr(sym_const, assignment), MaskToWidth(expected, rw))
          << test_case.name << " (const rhs) width " << int(width) << " a=" << a << " b=" << b;
      EXPECT_EQ(EvalExpr(const_const, assignment), MaskToWidth(expected, rw))
          << test_case.name << " (folded) width " << int(width) << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBinOps, ExprPropertyTest,
    ::testing::Values(BinOpCase{"add", &ExprContext::Add, SemAdd},
                      BinOpCase{"sub", &ExprContext::Sub, SemSub},
                      BinOpCase{"mul", &ExprContext::Mul, SemMul},
                      BinOpCase{"udiv", &ExprContext::UDiv, SemUDiv},
                      BinOpCase{"urem", &ExprContext::URem, SemURem},
                      BinOpCase{"and", &ExprContext::And, SemAnd},
                      BinOpCase{"or", &ExprContext::Or, SemOr},
                      BinOpCase{"xor", &ExprContext::Xor, SemXor},
                      BinOpCase{"shl", &ExprContext::Shl, SemShl},
                      BinOpCase{"lshr", &ExprContext::LShr, SemLShr},
                      BinOpCase{"eq", &ExprContext::Eq, SemEq},
                      BinOpCase{"ult", &ExprContext::Ult, SemUlt},
                      BinOpCase{"ule", &ExprContext::Ule, SemUle},
                      BinOpCase{"slt", &ExprContext::Slt, SemSlt},
                      BinOpCase{"sle", &ExprContext::Sle, SemSle}),
    [](const ::testing::TestParamInfo<BinOpCase>& info) { return info.param.name; });

TEST(ExprExtractPropertyTest, RandomExtractConcatRoundTrips) {
  ExprContext ctx;
  Rng rng(1234);
  ExprRef x = ctx.Var(32, "x");
  for (int i = 0; i < 300; ++i) {
    uint32_t low = static_cast<uint32_t>(rng.NextBelow(31));
    uint8_t width = static_cast<uint8_t>(1 + rng.NextBelow(32 - low));
    ExprRef ext = ctx.Extract(x, low, width);
    uint64_t value = rng.Next();
    Assignment a;
    a.Set(x->var_id(), value);
    EXPECT_EQ(EvalExpr(ext, a), MaskToWidth(MaskToWidth(value, 32) >> low, width));
  }
}

}  // namespace
}  // namespace ddt
