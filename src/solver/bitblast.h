// Tseitin bit-blasting of bitvector expressions into CNF over a SatSolver.
//
// Each expression node lowers to a vector of SAT literals (LSB first). Gate
// outputs are fresh SAT variables constrained by Tseitin clauses. The
// translation is cached until the next Reset(), so shared DAG nodes are
// encoded once per instance.
#ifndef SRC_SOLVER_BITBLAST_H_
#define SRC_SOLVER_BITBLAST_H_

#include <unordered_map>
#include <vector>

#include "src/expr/eval.h"
#include "src/expr/expr.h"
#include "src/solver/sat.h"

namespace ddt {

class Bitblaster {
 public:
  // `sat` must be empty: new or just Reset().
  explicit Bitblaster(SatSolver* sat);

  // Resets the SAT solver, forgets every encoding and re-creates the true
  // literal: the pair is then exactly what a new one would be, and encodes
  // the same variables and clauses in the same order.
  void Reset();

  // Asserts that the width-1 expression `e` is true.
  void AssertTrue(ExprRef e);

  // Returns the literal vector for `e` (encodes it on first use).
  const std::vector<SatLit>& Encode(ExprRef e);

  // After a kSat result, reads back concrete values for every expression
  // variable that was encoded. Variables never encoded are absent.
  Assignment ExtractModel() const;

  SatLit true_lit() const { return true_lit_; }
  SatLit false_lit() const { return NegateLit(true_lit_); }

 private:
  using Bits = std::vector<SatLit>;

  SatLit FreshLit();
  SatLit ConstLit(bool value) { return value ? true_lit_ : false_lit(); }

  // Gate builders: return output literal constrained by Tseitin clauses.
  SatLit GateAnd(SatLit a, SatLit b);
  SatLit GateOr(SatLit a, SatLit b);
  SatLit GateXor(SatLit a, SatLit b);
  SatLit GateMux(SatLit sel, SatLit if_true, SatLit if_false);
  // Full adder: returns sum, sets *carry_out.
  SatLit GateFullAdder(SatLit a, SatLit b, SatLit carry_in, SatLit* carry_out);
  // N-ary OR of a literal list.
  SatLit GateOrMany(const Bits& lits);
  // Equality over bit vectors -> single literal.
  SatLit GateEq(const Bits& a, const Bits& b);
  // a <u b over bit vectors.
  SatLit GateUlt(const Bits& a, const Bits& b);
  SatLit GateSlt(const Bits& a, const Bits& b);

  Bits Add(const Bits& a, const Bits& b, SatLit carry_in, SatLit* carry_out = nullptr);
  Bits Negate(const Bits& a);
  Bits Mul(const Bits& a, const Bits& b);
  // Unsigned divide with SMT-LIB zero semantics; produces quotient and
  // remainder bit vectors related by fresh-variable constraints.
  void UDivURem(const Bits& a, const Bits& b, Bits* quotient, Bits* remainder);
  Bits Shift(const Bits& value, const Bits& amount, ExprKind kind);
  Bits Mux(SatLit sel, const Bits& if_true, const Bits& if_false);

  Bits EncodeNode(ExprRef e);

  // Allocates the constant-true variable (always SAT variable 0).
  void MakeTrueLit();

  SatSolver* sat_;
  SatLit true_lit_;
  std::unordered_map<ExprRef, Bits> cache_;
  // Expression variable id -> its bit literals (for model extraction).
  std::unordered_map<uint32_t, Bits> var_bits_;
};

}  // namespace ddt

#endif  // SRC_SOLVER_BITBLAST_H_
