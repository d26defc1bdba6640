#include "src/solver/bitblast.h"

#include <algorithm>

#include "src/support/check.h"

namespace ddt {

Bitblaster::Bitblaster(SatSolver* sat) : sat_(sat) { MakeTrueLit(); }

void Bitblaster::Reset() {
  sat_->Reset();
  lits_.clear();
  std::fill(index_.begin(), index_.end(), Slot{});
  indexed_ = 0;
  vars_.clear();
  MakeTrueLit();
}

void Bitblaster::CopyFrom(const Bitblaster& other) {
  *sat_ = *other.sat_;
  true_lit_ = other.true_lit_;
  lits_ = other.lits_;
  index_ = other.index_;
  indexed_ = other.indexed_;
  vars_ = other.vars_;
}

size_t Bitblaster::SlotFor(ExprRef e) const {
  size_t mask = index_.size() - 1;
  // Fibonacci hashing of the pointer; its high bits are the best mixed.
  size_t i = static_cast<size_t>((reinterpret_cast<uintptr_t>(e) * 0x9E3779B97F4A7C15ull) >> 32) &
             mask;
  while (index_[i].expr != nullptr && index_[i].expr != e) {
    i = (i + 1) & mask;
  }
  return i;
}

void Bitblaster::Insert(ExprRef e, uint32_t offset) {
  if (2 * (indexed_ + 1) > index_.size()) {
    std::vector<Slot> old = std::move(index_);
    index_.assign(std::max<size_t>(64, 2 * old.size()), Slot{});
    for (const Slot& slot : old) {
      if (slot.expr != nullptr) {
        index_[SlotFor(slot.expr)] = slot;
      }
    }
  }
  index_[SlotFor(e)] = Slot{e, offset};
  ++indexed_;
}

void Bitblaster::MakeTrueLit() {
  true_lit_ = MakeLit(sat_->NewVar(), false);
  sat_->AddUnit(true_lit_);
}

SatLit Bitblaster::FreshLit() { return MakeLit(sat_->NewVar(), false); }

SatLit Bitblaster::GateAnd(SatLit a, SatLit b) {
  if (a == false_lit() || b == false_lit()) {
    return false_lit();
  }
  if (a == true_lit_) {
    return b;
  }
  if (b == true_lit_) {
    return a;
  }
  if (a == b) {
    return a;
  }
  if (a == NegateLit(b)) {
    return false_lit();
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(a), NegateLit(b), o);
  sat_->AddBinary(a, NegateLit(o));
  sat_->AddBinary(b, NegateLit(o));
  return o;
}

SatLit Bitblaster::GateOr(SatLit a, SatLit b) {
  return NegateLit(GateAnd(NegateLit(a), NegateLit(b)));
}

SatLit Bitblaster::GateXor(SatLit a, SatLit b) {
  if (a == false_lit()) {
    return b;
  }
  if (b == false_lit()) {
    return a;
  }
  if (a == true_lit_) {
    return NegateLit(b);
  }
  if (b == true_lit_) {
    return NegateLit(a);
  }
  if (a == b) {
    return false_lit();
  }
  if (a == NegateLit(b)) {
    return true_lit_;
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(a), NegateLit(b), NegateLit(o));
  sat_->AddTernary(a, b, NegateLit(o));
  sat_->AddTernary(a, NegateLit(b), o);
  sat_->AddTernary(NegateLit(a), b, o);
  return o;
}

SatLit Bitblaster::GateMux(SatLit sel, SatLit if_true, SatLit if_false) {
  if (sel == true_lit_) {
    return if_true;
  }
  if (sel == false_lit()) {
    return if_false;
  }
  if (if_true == if_false) {
    return if_true;
  }
  SatLit o = FreshLit();
  sat_->AddTernary(NegateLit(sel), NegateLit(if_true), o);
  sat_->AddTernary(NegateLit(sel), if_true, NegateLit(o));
  sat_->AddTernary(sel, NegateLit(if_false), o);
  sat_->AddTernary(sel, if_false, NegateLit(o));
  return o;
}

SatLit Bitblaster::GateFullAdder(SatLit a, SatLit b, SatLit carry_in, SatLit* carry_out) {
  SatLit ab = GateXor(a, b);
  SatLit sum = GateXor(ab, carry_in);
  // carry = (a & b) | (carry_in & (a ^ b)). The second AND is built first:
  // like operand order (see OperandOrder), gate order numbers variables.
  SatLit carry_and_ab = GateAnd(carry_in, ab);
  *carry_out = GateOr(GateAnd(a, b), carry_and_ab);
  return sum;
}

SatLit Bitblaster::GateOrMany(LitSpan lits) {
  SatLit acc = false_lit();
  for (SatLit lit : lits) {
    acc = GateOr(acc, lit);
  }
  return acc;
}

SatLit Bitblaster::GateEq(LitSpan a, LitSpan b) {
  DDT_CHECK(a.size() == b.size());
  SatLit acc = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = GateAnd(acc, NegateLit(GateXor(a[i], b[i])));
  }
  return acc;
}

SatLit Bitblaster::GateUlt(LitSpan a, LitSpan b) {
  // a < b  <=>  no carry out of a + ~b + 1  <=>  borrow out of a - b.
  DDT_CHECK(a.size() == b.size());
  SatLit carry = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    SatLit nb = NegateLit(b[i]);
    SatLit ab = GateXor(a[i], nb);
    SatLit carry_and_ab = GateAnd(carry, ab);  // built first, as in GateFullAdder
    carry = GateOr(GateAnd(a[i], nb), carry_and_ab);
  }
  return NegateLit(carry);
}

SatLit Bitblaster::GateSlt(LitSpan a, LitSpan b) {
  // Signed: flip sign bits and compare unsigned.
  Bits fa(a.begin(), a.end());
  Bits fb(b.begin(), b.end());
  fa.back() = NegateLit(fa.back());
  fb.back() = NegateLit(fb.back());
  return GateUlt(fa, fb);
}

Bitblaster::Bits Bitblaster::Add(LitSpan a, LitSpan b, SatLit carry_in, SatLit* carry_out) {
  DDT_CHECK(a.size() == b.size());
  Bits sum(a.size());
  SatLit carry = carry_in;
  for (size_t i = 0; i < a.size(); ++i) {
    sum[i] = GateFullAdder(a[i], b[i], carry, &carry);
  }
  if (carry_out != nullptr) {
    *carry_out = carry;
  }
  return sum;
}

Bitblaster::Bits Bitblaster::Negate(LitSpan a) {
  Bits inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = NegateLit(a[i]);
  }
  Bits zero(a.size(), false_lit());
  return Add(inverted, zero, true_lit_);
}

Bitblaster::Bits Bitblaster::Mul(LitSpan a, LitSpan b) {
  DDT_CHECK(a.size() == b.size());
  size_t w = a.size();
  Bits acc(w, false_lit());
  for (size_t i = 0; i < w; ++i) {
    // addend = (b << i) & a[i], truncated to w bits.
    Bits addend(w, false_lit());
    for (size_t j = i; j < w; ++j) {
      addend[j] = GateAnd(b[j - i], a[i]);
    }
    acc = Add(acc, addend, false_lit());
  }
  return acc;
}

void Bitblaster::UDivURem(LitSpan a, LitSpan b, Bits* quotient, Bits* remainder) {
  size_t w = a.size();
  // Fresh result vectors.
  Bits q(w);
  Bits r(w);
  for (size_t i = 0; i < w; ++i) {
    q[i] = FreshLit();
    r[i] = FreshLit();
  }
  SatLit b_zero = true_lit_;
  for (size_t i = 0; i < w; ++i) {
    b_zero = GateAnd(b_zero, NegateLit(b[i]));
  }
  // Case b == 0 (SMT-LIB): q = all-ones, r = a.
  for (size_t i = 0; i < w; ++i) {
    // b_zero -> q[i] == 1
    sat_->AddBinary(NegateLit(b_zero), q[i]);
    // b_zero -> r[i] == a[i]
    SatLit eq_bit = NegateLit(GateXor(r[i], a[i]));
    sat_->AddBinary(NegateLit(b_zero), eq_bit);
  }
  // Case b != 0: a == q*b + r computed at double width (no wraparound), r < b.
  Bits q2 = q;
  Bits b2(b.begin(), b.end());
  Bits r2 = r;
  Bits a2(a.begin(), a.end());
  q2.resize(2 * w, false_lit());
  b2.resize(2 * w, false_lit());
  r2.resize(2 * w, false_lit());
  a2.resize(2 * w, false_lit());
  Bits prod = Mul(q2, b2);
  Bits sum = Add(prod, r2, false_lit());
  SatLit exact = GateEq(sum, a2);
  SatLit r_lt_b = GateUlt(r, b);
  sat_->AddBinary(b_zero, exact);   // !b_zero -> exact
  sat_->AddBinary(b_zero, r_lt_b);  // !b_zero -> r < b
  *quotient = q;
  *remainder = r;
}

Bitblaster::Bits Bitblaster::Mux(SatLit sel, LitSpan if_true, LitSpan if_false) {
  DDT_CHECK(if_true.size() == if_false.size());
  Bits out(if_true.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = GateMux(sel, if_true[i], if_false[i]);
  }
  return out;
}

Bitblaster::Bits Bitblaster::Shift(LitSpan value, LitSpan amount, ExprKind kind) {
  size_t w = value.size();
  SatLit fill = false_lit();
  if (kind == ExprKind::kAShr) {
    fill = value.back();  // sign bit
  }
  // Barrel shifter over the low log2(w) amount bits.
  size_t stages = 0;
  while ((1ull << stages) < w) {
    ++stages;
  }
  Bits current(value.begin(), value.end());
  for (size_t s = 0; s < stages && s < amount.size(); ++s) {
    size_t dist = 1ull << s;
    Bits shifted(w, fill);
    for (size_t i = 0; i < w; ++i) {
      if (kind == ExprKind::kShl) {
        if (i >= dist) {
          shifted[i] = current[i - dist];
        }
      } else {  // kLShr / kAShr
        if (i + dist < w) {
          shifted[i] = current[i + dist];
        }
      }
    }
    current = Mux(amount[s], shifted, current);
  }
  // Amount bits above the barrel range: if any is set, the result saturates
  // to all-fill.
  Bits high_amount;
  for (size_t i = stages; i < amount.size(); ++i) {
    high_amount.push_back(amount[i]);
  }
  if (!high_amount.empty()) {
    SatLit overflow = GateOrMany(high_amount);
    Bits saturated(w, fill);
    current = Mux(overflow, saturated, current);
  }
  return current;
}

namespace {

// The order Encode visits a node's operands in. It fixes the SAT variable
// numbering, and with it every model, so it is written out here instead of
// being left to the unspecified evaluation order of call arguments.
const int* OperandOrder(ExprKind kind) {
  static constexpr int kFirstFirst[] = {0, 1};
  static constexpr int kSecondFirst[] = {1, 0};
  static constexpr int kCondElseThen[] = {0, 2, 1};
  switch (kind) {
    case ExprKind::kAdd:
    case ExprKind::kSub:
    case ExprKind::kMul:
    case ExprKind::kUDiv:
    case ExprKind::kURem:
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
    case ExprKind::kEq:
    case ExprKind::kUlt:
    case ExprKind::kSlt:
    case ExprKind::kConcat:
      return kSecondFirst;
    case ExprKind::kIte:
      return kCondElseThen;
    default:
      return kFirstFirst;
  }
}

}  // namespace

uint32_t Bitblaster::Encode(ExprRef e) {
  if (!index_.empty()) {
    const Slot& slot = index_[SlotFor(e)];
    if (slot.expr == e) {
      return slot.offset;
    }
  }
  const int* order = OperandOrder(e->kind());
  uint32_t offsets[3];
  for (int k = 0; k < e->num_ops(); ++k) {
    offsets[order[k]] = Encode(e->op(order[k]));
  }
  // Only now, after the last nested Encode, can the arena be read in place.
  LitSpan ops[3];
  for (int i = 0; i < e->num_ops(); ++i) {
    ops[i] = LitSpan(lits(offsets[i]), e->op(i)->width());
  }
  Bits bits = EncodeNode(e, ops);
  DDT_CHECK(bits.size() == e->width());
  uint32_t offset = static_cast<uint32_t>(lits_.size());
  lits_.insert(lits_.end(), bits.begin(), bits.end());
  Insert(e, offset);
  if (e->IsVar()) {
    vars_.emplace_back(e, offset);
  }
  return offset;
}

Bitblaster::Bits Bitblaster::EncodeNode(ExprRef e, const LitSpan* ops) {
  uint8_t w = e->width();
  switch (e->kind()) {
    case ExprKind::kConst: {
      Bits bits(w);
      for (uint8_t i = 0; i < w; ++i) {
        bits[i] = ConstLit(((e->const_value() >> i) & 1) != 0);
      }
      return bits;
    }
    case ExprKind::kVar: {
      Bits bits(w);
      for (uint8_t i = 0; i < w; ++i) {
        bits[i] = FreshLit();
      }
      return bits;
    }
    case ExprKind::kAdd:
      return Add(ops[0], ops[1], false_lit());
    case ExprKind::kSub: {
      Bits inverted(ops[1].size());
      for (size_t i = 0; i < inverted.size(); ++i) {
        inverted[i] = NegateLit(ops[1][i]);
      }
      return Add(ops[0], inverted, true_lit_);
    }
    case ExprKind::kMul:
      return Mul(ops[0], ops[1]);
    case ExprKind::kUDiv:
    case ExprKind::kURem: {
      Bits q;
      Bits r;
      UDivURem(ops[0], ops[1], &q, &r);
      return e->kind() == ExprKind::kUDiv ? q : r;
    }
    case ExprKind::kSDiv:
    case ExprKind::kSRem: {
      // Lower through unsigned division on absolute values with
      // sign-corrected results (wrap-around semantics match the evaluator).
      LitSpan a = ops[0];
      LitSpan b = ops[1];
      SatLit sign_a = a.back();
      SatLit sign_b = b.back();
      Bits abs_a = Mux(sign_a, Negate(a), a);
      Bits abs_b = Mux(sign_b, Negate(b), b);
      Bits q;
      Bits r;
      UDivURem(abs_a, abs_b, &q, &r);
      if (e->kind() == ExprKind::kSDiv) {
        SatLit diff_sign = GateXor(sign_a, sign_b);
        Bits result = Mux(diff_sign, Negate(q), q);
        // SMT-LIB sdiv-by-zero: 1 if a < 0, all-ones otherwise. The udiv
        // zero-case yields q = all-ones on |a|; patch the b == 0 case.
        SatLit b_zero = true_lit_;
        for (SatLit bit : b) {
          b_zero = GateAnd(b_zero, NegateLit(bit));
        }
        Bits one(a.size(), false_lit());
        one[0] = true_lit_;
        Bits all_ones(a.size(), true_lit_);
        Bits zero_case = Mux(sign_a, one, all_ones);
        return Mux(b_zero, zero_case, result);
      }
      // srem: result has the sign of the dividend.
      Bits result = Mux(sign_a, Negate(r), r);
      SatLit b_zero = true_lit_;
      for (SatLit bit : b) {
        b_zero = GateAnd(b_zero, NegateLit(bit));
      }
      return Mux(b_zero, a, result);
    }
    case ExprKind::kAnd: {
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateAnd(ops[0][i], ops[1][i]);
      }
      return out;
    }
    case ExprKind::kOr: {
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateOr(ops[0][i], ops[1][i]);
      }
      return out;
    }
    case ExprKind::kXor: {
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateXor(ops[0][i], ops[1][i]);
      }
      return out;
    }
    case ExprKind::kNot: {
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = NegateLit(ops[0][i]);
      }
      return out;
    }
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
      return Shift(ops[0], ops[1], e->kind());
    case ExprKind::kEq:
      return Bits{GateEq(ops[0], ops[1])};
    case ExprKind::kUlt:
      return Bits{GateUlt(ops[0], ops[1])};
    case ExprKind::kUle:
      return Bits{NegateLit(GateUlt(ops[1], ops[0]))};
    case ExprKind::kSlt:
      return Bits{GateSlt(ops[0], ops[1])};
    case ExprKind::kSle:
      return Bits{NegateLit(GateSlt(ops[1], ops[0]))};
    case ExprKind::kIte:
      return Mux(ops[0][0], ops[1], ops[2]);
    case ExprKind::kExtract: {
      LitSpan a = ops[0].subspan(e->extract_low(), w);
      return Bits(a.begin(), a.end());
    }
    case ExprKind::kConcat: {
      Bits out;
      out.reserve(w);
      out.insert(out.end(), ops[1].begin(), ops[1].end());  // low part first
      out.insert(out.end(), ops[0].begin(), ops[0].end());
      return out;
    }
    case ExprKind::kZExt:
    case ExprKind::kSExt: {
      Bits out(ops[0].begin(), ops[0].end());
      out.resize(w, e->kind() == ExprKind::kZExt ? false_lit() : ops[0].back());
      return out;
    }
  }
  DDT_UNREACHABLE("bad expr kind");
}

void Bitblaster::AssertTrue(ExprRef e) {
  DDT_CHECK(e->width() == 1);
  sat_->AddUnit(*lits(Encode(e)));
}

Assignment Bitblaster::ExtractModel() const {
  Assignment model;
  for (const auto& [var, offset] : vars_) {
    uint64_t value = 0;
    for (size_t i = 0; i < var->width(); ++i) {
      SatLit lit = lits_[offset + i];
      bool bit = sat_->ModelValue(LitVar(lit));
      if (LitNegated(lit)) {
        bit = !bit;
      }
      if (bit) {
        value |= 1ull << i;
      }
    }
    model.Set(var->var_id(), value);
  }
  return model;
}

}  // namespace ddt
