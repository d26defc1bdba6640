#include "src/expr/expr.h"

#include <algorithm>
#include <functional>

#include "src/support/check.h"
#include "src/support/strings.h"

namespace ddt {

namespace {

size_t HashCombine(size_t seed, size_t value) {
  return seed ^ (value + 0x9E3779B97F4A7C15ull + (seed << 6) + (seed >> 2));
}

bool IsCommutative(ExprKind kind) {
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kMul:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kXor:
    case ExprKind::kEq:
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* ExprKindName(ExprKind kind) {
  switch (kind) {
    case ExprKind::kConst:
      return "Const";
    case ExprKind::kVar:
      return "Var";
    case ExprKind::kAdd:
      return "Add";
    case ExprKind::kSub:
      return "Sub";
    case ExprKind::kMul:
      return "Mul";
    case ExprKind::kUDiv:
      return "UDiv";
    case ExprKind::kSDiv:
      return "SDiv";
    case ExprKind::kURem:
      return "URem";
    case ExprKind::kSRem:
      return "SRem";
    case ExprKind::kAnd:
      return "And";
    case ExprKind::kOr:
      return "Or";
    case ExprKind::kXor:
      return "Xor";
    case ExprKind::kNot:
      return "Not";
    case ExprKind::kShl:
      return "Shl";
    case ExprKind::kLShr:
      return "LShr";
    case ExprKind::kAShr:
      return "AShr";
    case ExprKind::kEq:
      return "Eq";
    case ExprKind::kUlt:
      return "Ult";
    case ExprKind::kUle:
      return "Ule";
    case ExprKind::kSlt:
      return "Slt";
    case ExprKind::kSle:
      return "Sle";
    case ExprKind::kIte:
      return "Ite";
    case ExprKind::kExtract:
      return "Extract";
    case ExprKind::kConcat:
      return "Concat";
    case ExprKind::kZExt:
      return "ZExt";
    case ExprKind::kSExt:
      return "SExt";
  }
  return "?";
}

bool Expr::IsTrue() const { return kind_ == ExprKind::kConst && width_ == 1 && aux_ == 1; }
bool Expr::IsFalse() const { return kind_ == ExprKind::kConst && width_ == 1 && aux_ == 0; }

bool ExprContext::ExprPtrEq::operator()(const Expr* a, const Expr* b) const {
  return a->kind_ == b->kind_ && a->width_ == b->width_ && a->aux_ == b->aux_ &&
         a->num_ops_ == b->num_ops_ && a->ops_ == b->ops_;
}

ExprContext::ExprContext() {
  false_ = Const(0, 1);
  true_ = Const(1, 1);
}

ExprRef ExprContext::Intern(ExprKind kind, uint8_t width, uint64_t aux, ExprRef a, ExprRef b,
                            ExprRef c) {
  Expr candidate;
  candidate.kind_ = kind;
  candidate.width_ = width;
  candidate.aux_ = aux;
  candidate.ops_ = {a, b, c};
  candidate.num_ops_ = static_cast<uint8_t>((a != nullptr ? 1 : 0) + (b != nullptr ? 1 : 0) +
                                            (c != nullptr ? 1 : 0));
  size_t h = HashCombine(static_cast<size_t>(kind), width);
  h = HashCombine(h, static_cast<size_t>(aux));
  for (int i = 0; i < candidate.num_ops_; ++i) {
    h = HashCombine(h, reinterpret_cast<size_t>(candidate.ops_[static_cast<size_t>(i)]));
  }
  candidate.hash_ = h;

  auto it = interned_.find(&candidate);
  if (it != interned_.end()) {
    return *it;
  }
  all_.push_back(candidate);
  Expr* stored = &all_.back();
  interned_.insert(stored);
  return stored;
}

ExprRef ExprContext::Const(uint64_t value, uint8_t width) {
  DDT_CHECK(width >= 1 && width <= 64);
  return Intern(ExprKind::kConst, width, MaskToWidth(value, width));
}

ExprRef ExprContext::Var(uint8_t width, const std::string& name, const VarOrigin& origin) {
  DDT_CHECK(width >= 1 && width <= 64);
  uint32_t id = static_cast<uint32_t>(vars_.size());
  vars_.push_back(VarInfo{id, width, name, origin});
  return Intern(ExprKind::kVar, width, id);
}

// --- Arithmetic -------------------------------------------------------------

ExprRef ExprContext::Add(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() + b->const_value(), w);
  }
  if (IsCommutative(ExprKind::kAdd) && !a->IsConst() && b->IsConst()) {
    std::swap(a, b);  // canonical: constant first
  }
  if (a->IsConst()) {
    if (a->const_value() == 0) {
      return b;
    }
    // (c1 + (c2 + x)) -> ((c1+c2) + x)
    if (b->kind() == ExprKind::kAdd && b->op(0)->IsConst()) {
      return Add(Const(a->const_value() + b->op(0)->const_value(), w), b->op(1));
    }
  }
  return Intern(ExprKind::kAdd, w, 0, a, b);
}

ExprRef ExprContext::Sub(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() - b->const_value(), w);
  }
  if (a == b) {
    return Const(0, w);
  }
  if (b->IsConst()) {
    if (b->const_value() == 0) {
      return a;
    }
    // x - c -> x + (-c): keeps Add the only additive canonical form.
    return Add(Const(0 - b->const_value(), w), a);
  }
  return Intern(ExprKind::kSub, w, 0, a, b);
}

ExprRef ExprContext::Mul(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() * b->const_value(), w);
  }
  if (!a->IsConst() && b->IsConst()) {
    std::swap(a, b);
  }
  if (a->IsConst()) {
    if (a->const_value() == 0) {
      return Const(0, w);
    }
    if (a->const_value() == 1) {
      return b;
    }
  }
  return Intern(ExprKind::kMul, w, 0, a, b);
}

ExprRef ExprContext::UDiv(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    uint64_t bv = b->const_value();
    return Const(bv == 0 ? MaskToWidth(~0ull, w) : a->const_value() / bv, w);
  }
  if (b->IsConst() && b->const_value() == 1) {
    return a;
  }
  return Intern(ExprKind::kUDiv, w, 0, a, b);
}

ExprRef ExprContext::SDiv(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    int64_t bv = SignExtend(b->const_value(), w);
    if (bv == 0) {
      // SMT-LIB: sdiv by zero is 1 if dividend negative, else all-ones.
      return Const(SignExtend(a->const_value(), w) < 0 ? 1 : MaskToWidth(~0ull, w), w);
    }
    int64_t av = SignExtend(a->const_value(), w);
    if (av == INT64_MIN && bv == -1) {
      return Const(static_cast<uint64_t>(av), w);
    }
    return Const(static_cast<uint64_t>(av / bv), w);
  }
  if (b->IsConst() && SignExtend(b->const_value(), w) == 1) {
    return a;
  }
  return Intern(ExprKind::kSDiv, w, 0, a, b);
}

ExprRef ExprContext::URem(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    uint64_t bv = b->const_value();
    return Const(bv == 0 ? a->const_value() : a->const_value() % bv, w);
  }
  if (b->IsConst() && b->const_value() == 1) {
    return Const(0, w);
  }
  return Intern(ExprKind::kURem, w, 0, a, b);
}

ExprRef ExprContext::SRem(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    int64_t av = SignExtend(a->const_value(), w);
    int64_t bv = SignExtend(b->const_value(), w);
    if (bv == 0) {
      return a;
    }
    if (av == INT64_MIN && bv == -1) {
      return Const(0, w);
    }
    return Const(static_cast<uint64_t>(av % bv), w);
  }
  return Intern(ExprKind::kSRem, w, 0, a, b);
}

ExprRef ExprContext::Neg(ExprRef a) { return Sub(Const(0, a->width()), a); }

// --- Bitwise ----------------------------------------------------------------

ExprRef ExprContext::And(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() & b->const_value(), w);
  }
  if (!a->IsConst() && b->IsConst()) {
    std::swap(a, b);
  }
  if (a->IsConst()) {
    if (a->const_value() == 0) {
      return Const(0, w);
    }
    if (a->const_value() == MaskToWidth(~0ull, w)) {
      return b;
    }
  }
  if (a == b) {
    return a;
  }
  return Intern(ExprKind::kAnd, w, 0, a, b);
}

ExprRef ExprContext::Or(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() | b->const_value(), w);
  }
  if (!a->IsConst() && b->IsConst()) {
    std::swap(a, b);
  }
  if (a->IsConst()) {
    if (a->const_value() == 0) {
      return b;
    }
    if (a->const_value() == MaskToWidth(~0ull, w)) {
      return a;
    }
  }
  if (a == b) {
    return a;
  }
  return Intern(ExprKind::kOr, w, 0, a, b);
}

ExprRef ExprContext::Xor(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  uint8_t w = a->width();
  if (a->IsConst() && b->IsConst()) {
    return Const(a->const_value() ^ b->const_value(), w);
  }
  if (!a->IsConst() && b->IsConst()) {
    std::swap(a, b);
  }
  if (a->IsConst() && a->const_value() == 0) {
    return b;
  }
  if (a == b) {
    return Const(0, w);
  }
  return Intern(ExprKind::kXor, w, 0, a, b);
}

ExprRef ExprContext::Not(ExprRef a) {
  uint8_t w = a->width();
  if (a->IsConst()) {
    return Const(~a->const_value(), w);
  }
  if (a->kind() == ExprKind::kNot) {
    return a->op(0);
  }
  // Push Not through comparison negations where a dual exists: !(a <u b) == b <=u a.
  if (w == 1) {
    switch (a->kind()) {
      case ExprKind::kUlt:
        return Ule(a->op(1), a->op(0));
      case ExprKind::kUle:
        return Ult(a->op(1), a->op(0));
      case ExprKind::kSlt:
        return Sle(a->op(1), a->op(0));
      case ExprKind::kSle:
        return Slt(a->op(1), a->op(0));
      default:
        break;
    }
  }
  return Intern(ExprKind::kNot, w, 0, a);
}

ExprRef ExprContext::Shl(ExprRef a, ExprRef amount) {
  uint8_t w = a->width();
  if (amount->IsConst()) {
    uint64_t s = amount->const_value();
    if (s == 0) {
      return a;
    }
    if (s >= w) {
      return Const(0, w);
    }
    if (a->IsConst()) {
      return Const(a->const_value() << s, w);
    }
  }
  return Intern(ExprKind::kShl, w, 0, a, amount);
}

ExprRef ExprContext::LShr(ExprRef a, ExprRef amount) {
  uint8_t w = a->width();
  if (amount->IsConst()) {
    uint64_t s = amount->const_value();
    if (s == 0) {
      return a;
    }
    if (s >= w) {
      return Const(0, w);
    }
    if (a->IsConst()) {
      return Const(MaskToWidth(a->const_value(), w) >> s, w);
    }
  }
  return Intern(ExprKind::kLShr, w, 0, a, amount);
}

ExprRef ExprContext::AShr(ExprRef a, ExprRef amount) {
  uint8_t w = a->width();
  if (amount->IsConst()) {
    uint64_t s = amount->const_value();
    if (s == 0) {
      return a;
    }
    if (a->IsConst()) {
      int64_t v = SignExtend(a->const_value(), w);
      return Const(static_cast<uint64_t>(v >> std::min<uint64_t>(s, 63)), w);
    }
    if (s >= w) {
      // Result is all sign bits: Ite(sign, ~0, 0).
      ExprRef sign = Extract(a, static_cast<uint32_t>(w - 1), 1);
      return Ite(sign, Const(MaskToWidth(~0ull, w), w), Const(0, w));
    }
  }
  return Intern(ExprKind::kAShr, w, 0, a, amount);
}

// --- Comparisons ------------------------------------------------------------

ExprRef ExprContext::Eq(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  if (a->IsConst() && b->IsConst()) {
    return a->const_value() == b->const_value() ? True() : False();
  }
  if (a == b) {
    return True();
  }
  if (!a->IsConst() && b->IsConst()) {
    std::swap(a, b);
  }
  if (a->IsConst()) {
    // Width-1: Eq(1, x) == x; Eq(0, x) == Not(x).
    if (a->width() == 1) {
      return a->const_value() == 1 ? b : Not(b);
    }
    // Eq(c1, Add(c2, x)) -> Eq(c1 - c2, x): the solver then blasts no adder.
    if (b->kind() == ExprKind::kAdd && b->op(0)->IsConst()) {
      return Eq(Const(a->const_value() - b->op(0)->const_value(), a->width()), b->op(1));
    }
    // Eq(c, ZExt(x)): if c doesn't fit in x's width it's false, else compare narrow.
    if (b->kind() == ExprKind::kZExt) {
      ExprRef inner = b->op(0);
      if (a->const_value() != MaskToWidth(a->const_value(), inner->width())) {
        return False();
      }
      return Eq(Const(a->const_value(), inner->width()), inner);
    }
    // Eq(c, And(mask, x)): bits of c outside the mask can never be produced.
    if (b->kind() == ExprKind::kAnd && b->op(0)->IsConst() &&
        (a->const_value() & ~b->op(0)->const_value() & MaskToWidth(~0ull, a->width())) != 0) {
      return False();
    }
    // Eq(c, Or(bits, x)): bits of `bits` missing from c can never be cleared.
    if (b->kind() == ExprKind::kOr && b->op(0)->IsConst() &&
        (~a->const_value() & b->op(0)->const_value() & MaskToWidth(~0ull, a->width())) != 0) {
      return False();
    }
  }
  return Intern(ExprKind::kEq, 1, 0, a, b);
}

ExprRef ExprContext::Ne(ExprRef a, ExprRef b) { return Not(Eq(a, b)); }

ExprRef ExprContext::Ult(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  if (a->IsConst() && b->IsConst()) {
    return a->const_value() < b->const_value() ? True() : False();
  }
  if (a == b) {
    return False();
  }
  if (b->IsConst() && b->const_value() == 0) {
    return False();  // nothing is < 0 unsigned
  }
  if (a->IsConst() && a->const_value() == MaskToWidth(~0ull, a->width())) {
    return False();  // max is not < anything
  }
  return Intern(ExprKind::kUlt, 1, 0, a, b);
}

ExprRef ExprContext::Ule(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  if (a->IsConst() && b->IsConst()) {
    return a->const_value() <= b->const_value() ? True() : False();
  }
  if (a == b) {
    return True();
  }
  if (a->IsConst() && a->const_value() == 0) {
    return True();
  }
  if (b->IsConst() && b->const_value() == MaskToWidth(~0ull, b->width())) {
    return True();
  }
  return Intern(ExprKind::kUle, 1, 0, a, b);
}

ExprRef ExprContext::Slt(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  if (a->IsConst() && b->IsConst()) {
    return SignExtend(a->const_value(), a->width()) < SignExtend(b->const_value(), b->width())
               ? True()
               : False();
  }
  if (a == b) {
    return False();
  }
  return Intern(ExprKind::kSlt, 1, 0, a, b);
}

ExprRef ExprContext::Sle(ExprRef a, ExprRef b) {
  DDT_CHECK(a->width() == b->width());
  if (a->IsConst() && b->IsConst()) {
    return SignExtend(a->const_value(), a->width()) <= SignExtend(b->const_value(), b->width())
               ? True()
               : False();
  }
  if (a == b) {
    return True();
  }
  return Intern(ExprKind::kSle, 1, 0, a, b);
}

// --- Structural -------------------------------------------------------------

ExprRef ExprContext::Ite(ExprRef cond, ExprRef then_expr, ExprRef else_expr) {
  DDT_CHECK(cond->width() == 1);
  DDT_CHECK(then_expr->width() == else_expr->width());
  if (cond->IsConst()) {
    return cond->const_value() != 0 ? then_expr : else_expr;
  }
  if (then_expr == else_expr) {
    return then_expr;
  }
  // Ite(c, 1, 0) over width 1 == c; Ite(c, 0, 1) == !c.
  if (then_expr->width() == 1 && then_expr->IsConst() && else_expr->IsConst()) {
    if (then_expr->const_value() == 1 && else_expr->const_value() == 0) {
      return cond;
    }
    if (then_expr->const_value() == 0 && else_expr->const_value() == 1) {
      return Not(cond);
    }
  }
  return Intern(ExprKind::kIte, then_expr->width(), 0, cond, then_expr, else_expr);
}

ExprRef ExprContext::Extract(ExprRef a, uint32_t low, uint8_t width) {
  DDT_CHECK(low + width <= a->width());
  if (low == 0 && width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    return Const(a->const_value() >> low, width);
  }
  if (a->kind() == ExprKind::kExtract) {
    return Extract(a->op(0), a->extract_low() + low, width);
  }
  if (a->kind() == ExprKind::kConcat) {
    ExprRef high = a->op(0);
    ExprRef lo_part = a->op(1);
    uint8_t lo_w = lo_part->width();
    if (low + width <= lo_w) {
      return Extract(lo_part, low, width);
    }
    if (low >= lo_w) {
      return Extract(high, low - lo_w, width);
    }
    // Straddles the seam: build from both halves.
    uint8_t from_low = static_cast<uint8_t>(lo_w - low);
    ExprRef low_bits = Extract(lo_part, low, from_low);
    ExprRef high_bits = Extract(high, 0, static_cast<uint8_t>(width - from_low));
    return Concat(high_bits, low_bits);
  }
  if (a->kind() == ExprKind::kZExt) {
    ExprRef inner = a->op(0);
    if (low + width <= inner->width()) {
      return Extract(inner, low, width);
    }
    if (low >= inner->width()) {
      return Const(0, width);
    }
  }
  return Intern(ExprKind::kExtract, width, low, a);
}

ExprRef ExprContext::Concat(ExprRef high, ExprRef low) {
  uint8_t w = static_cast<uint8_t>(high->width() + low->width());
  DDT_CHECK(w <= 64);
  if (high->IsConst() && low->IsConst()) {
    return Const((high->const_value() << low->width()) | low->const_value(), w);
  }
  if (high->IsConst() && high->const_value() == 0) {
    return ZExt(low, w);
  }
  // Concat(Extract(x, k+n, a), Extract(x, k, n)) -> Extract(x, k, a+n):
  // reassembles words split into bytes by the memory model.
  if (high->kind() == ExprKind::kExtract && low->kind() == ExprKind::kExtract &&
      high->op(0) == low->op(0) && high->extract_low() == low->extract_low() + low->width()) {
    return Extract(high->op(0), low->extract_low(), w);
  }
  // Same pattern where the low part is the full variable.
  if (high->kind() == ExprKind::kExtract && high->op(0) == low && high->extract_low() == low->width() &&
      low->kind() == ExprKind::kVar) {
    return Extract(high->op(0), 0, w);
  }
  return Intern(ExprKind::kConcat, w, 0, high, low);
}

ExprRef ExprContext::ZExt(ExprRef a, uint8_t width) {
  DDT_CHECK(width >= a->width());
  if (width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    return Const(a->const_value(), width);
  }
  if (a->kind() == ExprKind::kZExt) {
    return ZExt(a->op(0), width);
  }
  return Intern(ExprKind::kZExt, width, 0, a);
}

ExprRef ExprContext::SExt(ExprRef a, uint8_t width) {
  DDT_CHECK(width >= a->width());
  if (width == a->width()) {
    return a;
  }
  if (a->IsConst()) {
    return Const(static_cast<uint64_t>(SignExtend(a->const_value(), a->width())), width);
  }
  return Intern(ExprKind::kSExt, width, 0, a);
}

// --- Utilities --------------------------------------------------------------

namespace {

void CollectVarsImpl(ExprRef e, std::unordered_set<ExprRef>* seen,
                     std::unordered_set<uint32_t>* ids) {
  if (!seen->insert(e).second) {
    return;
  }
  if (e->IsVar()) {
    ids->insert(e->var_id());
    return;
  }
  for (int i = 0; i < e->num_ops(); ++i) {
    CollectVarsImpl(e->op(i), seen, ids);
  }
}

}  // namespace

void ExprContext::AppendVars(ExprRef e, std::vector<uint32_t>* out) {
  if (++visit_epoch_ == 0) {
    // The stamp wrapped: forget every old mark so none can match again.
    for (Expr& node : all_) {
      node.visit_mark_ = 0;
    }
    visit_epoch_ = 1;
  }
  AppendUnmarkedVars(e, visit_epoch_, out);
}

void ExprContext::AppendUnmarkedVars(ExprRef e, uint32_t mark, std::vector<uint32_t>* out) {
  if (e->visit_mark_ == mark) {
    return;
  }
  e->visit_mark_ = mark;
  if (e->IsVar()) {
    // Var nodes are interned per id, so a first visit is a first occurrence.
    out->push_back(e->var_id());
    return;
  }
  for (int i = 0; i < e->num_ops(); ++i) {
    AppendUnmarkedVars(e->op(i), mark, out);
  }
}

void CollectVars(ExprRef e, std::unordered_set<uint32_t>* out) {
  std::unordered_set<ExprRef> seen;
  CollectVarsImpl(e, &seen, out);
}

std::string ExprToString(ExprRef e) {
  switch (e->kind()) {
    case ExprKind::kConst:
      return StrFormat("0x%llx:%u", static_cast<unsigned long long>(e->const_value()),
                       e->width());
    case ExprKind::kVar:
      return StrFormat("v%u:%u", e->var_id(), e->width());
    case ExprKind::kExtract:
      return StrFormat("(Extract[%u+%u] %s)", e->extract_low(), e->width(),
                       ExprToString(e->op(0)).c_str());
    default: {
      std::string out = "(";
      out += ExprKindName(e->kind());
      for (int i = 0; i < e->num_ops(); ++i) {
        out += ' ';
        out += ExprToString(e->op(i));
      }
      out += ')';
      return out;
    }
  }
}

}  // namespace ddt
