#include "src/solver/bitblast.h"

#include <algorithm>

#include "src/support/check.h"

namespace ddt {

Bitblaster::Bitblaster(SatSolver* sat) : sat_(sat) { MakeTrueLit(); }

void Bitblaster::Reset() {
  sat_->Reset();
  cache_.clear();
  // A fresh map, not clear(): clear() keeps the bucket count, and the
  // iteration order ExtractModel fills the model in would then differ from
  // a new blaster's.
  var_bits_ = std::unordered_map<uint32_t, Bits>();
  MakeTrueLit();
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
  // carry = (a & b) | (carry_in & (a ^ b))
  *carry_out = GateOr(GateAnd(a, b), GateAnd(carry_in, ab));
  return sum;
}

SatLit Bitblaster::GateOrMany(const Bits& lits) {
  SatLit acc = false_lit();
  for (SatLit lit : lits) {
    acc = GateOr(acc, lit);
  }
  return acc;
}

SatLit Bitblaster::GateEq(const Bits& a, const Bits& b) {
  DDT_CHECK(a.size() == b.size());
  SatLit acc = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    acc = GateAnd(acc, NegateLit(GateXor(a[i], b[i])));
  }
  return acc;
}

SatLit Bitblaster::GateUlt(const Bits& a, const Bits& b) {
  // a < b  <=>  no carry out of a + ~b + 1  <=>  borrow out of a - b.
  DDT_CHECK(a.size() == b.size());
  SatLit carry = true_lit_;
  for (size_t i = 0; i < a.size(); ++i) {
    SatLit nb = NegateLit(b[i]);
    SatLit ab = GateXor(a[i], nb);
    carry = GateOr(GateAnd(a[i], nb), GateAnd(carry, ab));
  }
  return NegateLit(carry);
}

SatLit Bitblaster::GateSlt(const Bits& a, const Bits& b) {
  // Signed: flip sign bits and compare unsigned.
  Bits fa = a;
  Bits fb = b;
  fa.back() = NegateLit(fa.back());
  fb.back() = NegateLit(fb.back());
  return GateUlt(fa, fb);
}

Bitblaster::Bits Bitblaster::Add(const Bits& a, const Bits& b, SatLit carry_in,
                                 SatLit* carry_out) {
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

Bitblaster::Bits Bitblaster::Negate(const Bits& a) {
  Bits inverted(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    inverted[i] = NegateLit(a[i]);
  }
  Bits zero(a.size(), false_lit());
  return Add(inverted, zero, true_lit_);
}

Bitblaster::Bits Bitblaster::Mul(const Bits& a, const Bits& b) {
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

void Bitblaster::UDivURem(const Bits& a, const Bits& b, Bits* quotient, Bits* remainder) {
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
  Bits b2 = b;
  Bits r2 = r;
  Bits a2 = a;
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

Bitblaster::Bits Bitblaster::Mux(SatLit sel, const Bits& if_true, const Bits& if_false) {
  DDT_CHECK(if_true.size() == if_false.size());
  Bits out(if_true.size());
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = GateMux(sel, if_true[i], if_false[i]);
  }
  return out;
}

Bitblaster::Bits Bitblaster::Shift(const Bits& value, const Bits& amount, ExprKind kind) {
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
  Bits current = value;
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

const std::vector<SatLit>& Bitblaster::Encode(ExprRef e) {
  auto it = cache_.find(e);
  if (it != cache_.end()) {
    return it->second;
  }
  Bits bits = EncodeNode(e);
  DDT_CHECK(bits.size() == e->width());
  return cache_.emplace(e, std::move(bits)).first->second;
}

Bitblaster::Bits Bitblaster::EncodeNode(ExprRef e) {
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
      auto it = var_bits_.find(e->var_id());
      if (it != var_bits_.end()) {
        return it->second;
      }
      Bits bits(w);
      for (uint8_t i = 0; i < w; ++i) {
        bits[i] = FreshLit();
      }
      var_bits_.emplace(e->var_id(), bits);
      return bits;
    }
    case ExprKind::kAdd:
      return Add(Encode(e->op(0)), Encode(e->op(1)), false_lit());
    case ExprKind::kSub: {
      Bits b = Encode(e->op(1));
      Bits inverted(b.size());
      for (size_t i = 0; i < b.size(); ++i) {
        inverted[i] = NegateLit(b[i]);
      }
      return Add(Encode(e->op(0)), inverted, true_lit_);
    }
    case ExprKind::kMul:
      return Mul(Encode(e->op(0)), Encode(e->op(1)));
    case ExprKind::kUDiv: {
      Bits q;
      Bits r;
      UDivURem(Encode(e->op(0)), Encode(e->op(1)), &q, &r);
      return q;
    }
    case ExprKind::kURem: {
      Bits q;
      Bits r;
      UDivURem(Encode(e->op(0)), Encode(e->op(1)), &q, &r);
      return r;
    }
    case ExprKind::kSDiv:
    case ExprKind::kSRem: {
      // Lower through unsigned division on absolute values with
      // sign-corrected results (wrap-around semantics match the evaluator).
      Bits a = Encode(e->op(0));
      Bits b = Encode(e->op(1));
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
      Bits a = Encode(e->op(0));
      Bits b = Encode(e->op(1));
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateAnd(a[i], b[i]);
      }
      return out;
    }
    case ExprKind::kOr: {
      Bits a = Encode(e->op(0));
      Bits b = Encode(e->op(1));
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateOr(a[i], b[i]);
      }
      return out;
    }
    case ExprKind::kXor: {
      Bits a = Encode(e->op(0));
      Bits b = Encode(e->op(1));
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = GateXor(a[i], b[i]);
      }
      return out;
    }
    case ExprKind::kNot: {
      Bits a = Encode(e->op(0));
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = NegateLit(a[i]);
      }
      return out;
    }
    case ExprKind::kShl:
    case ExprKind::kLShr:
    case ExprKind::kAShr:
      return Shift(Encode(e->op(0)), Encode(e->op(1)), e->kind());
    case ExprKind::kEq:
      return Bits{GateEq(Encode(e->op(0)), Encode(e->op(1)))};
    case ExprKind::kUlt:
      return Bits{GateUlt(Encode(e->op(0)), Encode(e->op(1)))};
    case ExprKind::kUle:
      return Bits{NegateLit(GateUlt(Encode(e->op(1)), Encode(e->op(0))))};
    case ExprKind::kSlt:
      return Bits{GateSlt(Encode(e->op(0)), Encode(e->op(1)))};
    case ExprKind::kSle:
      return Bits{NegateLit(GateSlt(Encode(e->op(1)), Encode(e->op(0))))};
    case ExprKind::kIte: {
      SatLit sel = Encode(e->op(0))[0];
      return Mux(sel, Encode(e->op(1)), Encode(e->op(2)));
    }
    case ExprKind::kExtract: {
      const Bits& a = Encode(e->op(0));
      Bits out(w);
      for (uint8_t i = 0; i < w; ++i) {
        out[i] = a[e->extract_low() + i];
      }
      return out;
    }
    case ExprKind::kConcat: {
      Bits low = Encode(e->op(1));
      Bits high = Encode(e->op(0));
      Bits out;
      out.reserve(w);
      out.insert(out.end(), low.begin(), low.end());
      out.insert(out.end(), high.begin(), high.end());
      return out;
    }
    case ExprKind::kZExt: {
      Bits a = Encode(e->op(0));
      a.resize(w, false_lit());
      return a;
    }
    case ExprKind::kSExt: {
      Bits a = Encode(e->op(0));
      SatLit sign = a.back();
      a.resize(w, sign);
      return a;
    }
  }
  DDT_UNREACHABLE("bad expr kind");
}

void Bitblaster::AssertTrue(ExprRef e) {
  DDT_CHECK(e->width() == 1);
  sat_->AddUnit(Encode(e)[0]);
}

Assignment Bitblaster::ExtractModel() const {
  Assignment model;
  for (const auto& [var_id, bits] : var_bits_) {
    uint64_t value = 0;
    for (size_t i = 0; i < bits.size(); ++i) {
      SatLit lit = bits[i];
      bool bit = sat_->ModelValue(LitVar(lit));
      if (LitNegated(lit)) {
        bit = !bit;
      }
      if (bit) {
        value |= 1ull << i;
      }
    }
    model.Set(var_id, value);
  }
  return model;
}

}  // namespace ddt
