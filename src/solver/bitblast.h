// Tseitin bit-blasting of bitvector expressions into CNF over a SatSolver.
//
// Each expression node lowers to a run of SAT literals (LSB first). Gate
// outputs are fresh SAT variables constrained by Tseitin clauses. The
// translation is cached until the next Reset(), so shared DAG nodes are
// encoded once per instance. Every node's literals live in one flat arena
// behind an open-addressing index, so copying a blaster is a few buffer
// copies.
#ifndef SRC_SOLVER_BITBLAST_H_
#define SRC_SOLVER_BITBLAST_H_

#include <cstdint>
#include <span>
#include <utility>
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

  // Makes this blaster and its SAT solver exact copies of `other` and its
  // solver, reusing this pair's buffers.
  void CopyFrom(const Bitblaster& other);

  // Asserts that the width-1 expression `e` is true.
  void AssertTrue(ExprRef e);

  // After a kSat result, reads back concrete values for every expression
  // variable that was encoded. Variables never encoded are absent.
  Assignment ExtractModel() const;

  SatLit true_lit() const { return true_lit_; }
  SatLit false_lit() const { return NegateLit(true_lit_); }

 private:
  using Bits = std::vector<SatLit>;
  // Literals read in place: an encoding in the arena, or a Bits temporary.
  using LitSpan = std::span<const SatLit>;

  // One index slot: an encoded node and the offset of its literals.
  struct Slot {
    ExprRef expr = nullptr;
    uint32_t offset = 0;
  };

  // Encodes `e` on first use. Returns the offset of its e->width() literals,
  // which lits() reads.
  uint32_t Encode(ExprRef e);
  // The literals at an offset Encode returned. Valid until the next Encode,
  // which may grow the arena they live in.
  const SatLit* lits(uint32_t offset) const { return lits_.data() + offset; }

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
  SatLit GateOrMany(LitSpan lits);
  // Equality over bit vectors -> single literal.
  SatLit GateEq(LitSpan a, LitSpan b);
  // a <u b over bit vectors.
  SatLit GateUlt(LitSpan a, LitSpan b);
  SatLit GateSlt(LitSpan a, LitSpan b);

  Bits Add(LitSpan a, LitSpan b, SatLit carry_in, SatLit* carry_out = nullptr);
  Bits Negate(LitSpan a);
  Bits Mul(LitSpan a, LitSpan b);
  // Unsigned divide with SMT-LIB zero semantics; produces quotient and
  // remainder bit vectors related by fresh-variable constraints.
  void UDivURem(LitSpan a, LitSpan b, Bits* quotient, Bits* remainder);
  Bits Shift(LitSpan value, LitSpan amount, ExprKind kind);
  Bits Mux(SatLit sel, LitSpan if_true, LitSpan if_false);

  // Lowers `e` given its operands' literals.
  Bits EncodeNode(ExprRef e, const LitSpan* ops);

  // The slot holding `e`, or the empty slot where it would go.
  size_t SlotFor(ExprRef e) const;
  // Indexes `e` at `offset`, doubling the index when it is half full.
  void Insert(ExprRef e, uint32_t offset);

  // Allocates the constant-true variable (always SAT variable 0).
  void MakeTrueLit();

  SatSolver* sat_;
  SatLit true_lit_;
  // Every encoding's literals, back to back.
  std::vector<SatLit> lits_;
  // Open addressing with linear probing over a power-of-two table.
  std::vector<Slot> index_;
  size_t indexed_ = 0;
  // Encoded variables, in encoding order, with their literal offsets.
  std::vector<std::pair<ExprRef, uint32_t>> vars_;
};

}  // namespace ddt

#endif  // SRC_SOLVER_BITBLAST_H_
