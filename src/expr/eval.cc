#include "src/expr/eval.h"

#include <algorithm>

#include "src/support/check.h"

namespace ddt {

namespace {

uint64_t EvalImpl(ExprRef e, const Assignment& a, ExprScratchMap<uint64_t>* memo) {
  if (const uint64_t* memoized = memo->Find(e)) {
    return *memoized;
  }
  uint8_t w = e->width();
  uint64_t result = 0;
  switch (e->kind()) {
    case ExprKind::kConst:
      result = e->const_value();
      break;
    case ExprKind::kVar:
      result = MaskToWidth(a.Get(e->var_id()), w);
      break;
    case ExprKind::kAdd:
      result = EvalImpl(e->op(0), a, memo) + EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kSub:
      result = EvalImpl(e->op(0), a, memo) - EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kMul:
      result = EvalImpl(e->op(0), a, memo) * EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kUDiv: {
      uint64_t lhs = EvalImpl(e->op(0), a, memo);
      uint64_t rhs = EvalImpl(e->op(1), a, memo);
      result = rhs == 0 ? MaskToWidth(~0ull, w) : lhs / rhs;
      break;
    }
    case ExprKind::kSDiv: {
      int64_t lhs = SignExtend(EvalImpl(e->op(0), a, memo), w);
      int64_t rhs = SignExtend(EvalImpl(e->op(1), a, memo), w);
      if (rhs == 0) {
        result = lhs < 0 ? 1 : MaskToWidth(~0ull, w);
      } else if (lhs == INT64_MIN && rhs == -1) {
        result = static_cast<uint64_t>(lhs);
      } else {
        result = static_cast<uint64_t>(lhs / rhs);
      }
      break;
    }
    case ExprKind::kURem: {
      uint64_t lhs = EvalImpl(e->op(0), a, memo);
      uint64_t rhs = EvalImpl(e->op(1), a, memo);
      result = rhs == 0 ? lhs : lhs % rhs;
      break;
    }
    case ExprKind::kSRem: {
      int64_t lhs = SignExtend(EvalImpl(e->op(0), a, memo), w);
      int64_t rhs = SignExtend(EvalImpl(e->op(1), a, memo), w);
      if (rhs == 0) {
        result = static_cast<uint64_t>(lhs);
      } else if (lhs == INT64_MIN && rhs == -1) {
        result = 0;
      } else {
        result = static_cast<uint64_t>(lhs % rhs);
      }
      break;
    }
    case ExprKind::kAnd:
      result = EvalImpl(e->op(0), a, memo) & EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kOr:
      result = EvalImpl(e->op(0), a, memo) | EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kXor:
      result = EvalImpl(e->op(0), a, memo) ^ EvalImpl(e->op(1), a, memo);
      break;
    case ExprKind::kNot:
      result = ~EvalImpl(e->op(0), a, memo);
      break;
    case ExprKind::kShl: {
      uint64_t s = EvalImpl(e->op(1), a, memo);
      result = s >= w ? 0 : EvalImpl(e->op(0), a, memo) << s;
      break;
    }
    case ExprKind::kLShr: {
      uint64_t s = EvalImpl(e->op(1), a, memo);
      result = s >= w ? 0 : MaskToWidth(EvalImpl(e->op(0), a, memo), w) >> s;
      break;
    }
    case ExprKind::kAShr: {
      uint64_t s = EvalImpl(e->op(1), a, memo);
      int64_t v = SignExtend(EvalImpl(e->op(0), a, memo), w);
      result = static_cast<uint64_t>(v >> std::min<uint64_t>(s, 63));
      break;
    }
    case ExprKind::kEq:
      result = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width()) ==
                       MaskToWidth(EvalImpl(e->op(1), a, memo), e->op(1)->width())
                   ? 1
                   : 0;
      break;
    case ExprKind::kUlt:
      result = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width()) <
                       MaskToWidth(EvalImpl(e->op(1), a, memo), e->op(1)->width())
                   ? 1
                   : 0;
      break;
    case ExprKind::kUle:
      result = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width()) <=
                       MaskToWidth(EvalImpl(e->op(1), a, memo), e->op(1)->width())
                   ? 1
                   : 0;
      break;
    case ExprKind::kSlt:
      result = SignExtend(EvalImpl(e->op(0), a, memo), e->op(0)->width()) <
                       SignExtend(EvalImpl(e->op(1), a, memo), e->op(1)->width())
                   ? 1
                   : 0;
      break;
    case ExprKind::kSle:
      result = SignExtend(EvalImpl(e->op(0), a, memo), e->op(0)->width()) <=
                       SignExtend(EvalImpl(e->op(1), a, memo), e->op(1)->width())
                   ? 1
                   : 0;
      break;
    case ExprKind::kIte:
      result = EvalImpl(e->op(0), a, memo) != 0 ? EvalImpl(e->op(1), a, memo)
                                                : EvalImpl(e->op(2), a, memo);
      break;
    case ExprKind::kExtract:
      result = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width()) >> e->extract_low();
      break;
    case ExprKind::kConcat: {
      uint64_t high = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width());
      uint64_t low = MaskToWidth(EvalImpl(e->op(1), a, memo), e->op(1)->width());
      result = (high << e->op(1)->width()) | low;
      break;
    }
    case ExprKind::kZExt:
      result = MaskToWidth(EvalImpl(e->op(0), a, memo), e->op(0)->width());
      break;
    case ExprKind::kSExt:
      result = static_cast<uint64_t>(SignExtend(EvalImpl(e->op(0), a, memo), e->op(0)->width()));
      break;
  }
  result = MaskToWidth(result, w);
  memo->Insert(e, result);
  return result;
}

}  // namespace

uint64_t Evaluator::Eval(ExprRef e, const Assignment& assignment) {
  memo_.Clear();
  return EvalImpl(e, assignment, &memo_);
}

bool Evaluator::EvalBool(ExprRef e, const Assignment& assignment) {
  DDT_CHECK(e->width() == 1);
  return Eval(e, assignment) == 1;
}

uint64_t EvalExpr(ExprRef e, const Assignment& assignment) {
  return Evaluator().Eval(e, assignment);
}

bool EvalBool(ExprRef e, const Assignment& assignment) {
  return Evaluator().EvalBool(e, assignment);
}

}  // namespace ddt
