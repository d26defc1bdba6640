// Symbolic bitvector expressions.
//
// This is DDT's analogue of the KLEE expression library: an immutable,
// hash-consed DAG of fixed-width bitvector operations. Every value the guest
// CPU manipulates is either a concrete 32-bit word or a pointer into this
// DAG. Path constraints are width-1 expressions.
//
// Expressions are owned by an ExprContext and live as long as it does;
// ExprRef is a plain pointer. A context is shared by every execution state of
// one engine run, so forked states share structure for free.
#ifndef SRC_EXPR_EXPR_H_
#define SRC_EXPR_EXPR_H_

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace ddt {

enum class ExprKind : uint8_t {
  kConst,
  kVar,
  // Arithmetic (width-preserving, two operands).
  kAdd,
  kSub,
  kMul,
  kUDiv,
  kSDiv,
  kURem,
  kSRem,
  // Bitwise.
  kAnd,
  kOr,
  kXor,
  kNot,   // one operand
  kShl,
  kLShr,
  kAShr,
  // Comparisons (result width 1).
  kEq,
  kUlt,
  kUle,
  kSlt,
  kSle,
  // Structural.
  kIte,      // ops: cond(width 1), then, else
  kExtract,  // aux = low bit index; width = extracted width
  kConcat,   // ops[0] = high part, ops[1] = low part; width = sum
  kZExt,
  kSExt,
};

const char* ExprKindName(ExprKind kind);

class Expr;
using ExprRef = const Expr*;

// Where a symbolic variable came from. Used by trace analysis (§3.6: "on what
// symbolic values did the condition depend, when were they created, why") and
// by the replayer to map solved values back onto concrete device/registry
// inputs.
struct VarOrigin {
  enum class Source : uint8_t {
    kHardwareRead,   // symbolic device register read; aux = BAR offset, seq = read index
    kInterruptSlot,  // reserved for symbolic interrupt timing choices
    kRegistry,       // annotation-injected registry value; label = parameter name
    kEntryArg,       // symbolic entry point argument; label = entry point name
    kPacketData,     // symbolic network packet contents
    kAnnotation,     // generic annotation-created value
    kTest,           // unit tests
  };
  Source source = Source::kTest;
  std::string label;
  uint64_t aux = 0;
  uint64_t seq = 0;
};

struct VarInfo {
  uint32_t id = 0;
  uint8_t width = 0;
  std::string name;
  VarOrigin origin;
};

class Expr {
 public:
  ExprKind kind() const { return kind_; }
  uint8_t width() const { return width_; }
  size_t hash() const { return hash_; }

  bool IsConst() const { return kind_ == ExprKind::kConst; }
  bool IsVar() const { return kind_ == ExprKind::kVar; }
  // True for width-1 constant 1 / 0.
  bool IsTrue() const;
  bool IsFalse() const;

  // Constant value (masked to width). Only valid when IsConst().
  uint64_t const_value() const { return aux_; }
  // Variable id. Only valid when IsVar().
  uint32_t var_id() const { return static_cast<uint32_t>(aux_); }
  // Extract low-bit index. Only valid for kExtract.
  uint32_t extract_low() const { return static_cast<uint32_t>(aux_); }

  int num_ops() const { return num_ops_; }
  ExprRef op(int i) const { return ops_[static_cast<size_t>(i)]; }

 private:
  friend class ExprContext;
  Expr() = default;

  ExprKind kind_ = ExprKind::kConst;
  uint8_t width_ = 0;
  uint8_t num_ops_ = 0;
  // ExprContext::AppendVars' visit stamp (fills padding: no extra bytes).
  mutable uint32_t visit_mark_ = 0;
  uint64_t aux_ = 0;
  std::array<ExprRef, 3> ops_ = {nullptr, nullptr, nullptr};
  size_t hash_ = 0;
};

// Builder + owner of expressions. All construction goes through the context
// so that structurally equal expressions are the same pointer, and so that
// cheap canonicalizations/folds happen exactly once.
class ExprContext {
 public:
  ExprContext();
  ExprContext(const ExprContext&) = delete;
  ExprContext& operator=(const ExprContext&) = delete;

  // --- Leaves ---
  ExprRef Const(uint64_t value, uint8_t width);
  ExprRef True() { return true_; }
  ExprRef False() { return false_; }
  ExprRef Var(uint8_t width, const std::string& name, const VarOrigin& origin = VarOrigin());

  // --- Arithmetic ---
  ExprRef Add(ExprRef a, ExprRef b);
  ExprRef Sub(ExprRef a, ExprRef b);
  ExprRef Mul(ExprRef a, ExprRef b);
  ExprRef UDiv(ExprRef a, ExprRef b);  // SMT-LIB semantics: x/0 == all-ones
  ExprRef SDiv(ExprRef a, ExprRef b);
  ExprRef URem(ExprRef a, ExprRef b);  // x%0 == x
  ExprRef SRem(ExprRef a, ExprRef b);
  ExprRef Neg(ExprRef a);  // two's complement negation

  // --- Bitwise ---
  ExprRef And(ExprRef a, ExprRef b);
  ExprRef Or(ExprRef a, ExprRef b);
  ExprRef Xor(ExprRef a, ExprRef b);
  ExprRef Not(ExprRef a);
  ExprRef Shl(ExprRef a, ExprRef amount);
  ExprRef LShr(ExprRef a, ExprRef amount);
  ExprRef AShr(ExprRef a, ExprRef amount);

  // --- Comparisons (width-1 results) ---
  ExprRef Eq(ExprRef a, ExprRef b);
  ExprRef Ne(ExprRef a, ExprRef b);
  ExprRef Ult(ExprRef a, ExprRef b);
  ExprRef Ule(ExprRef a, ExprRef b);
  ExprRef Ugt(ExprRef a, ExprRef b) { return Ult(b, a); }
  ExprRef Uge(ExprRef a, ExprRef b) { return Ule(b, a); }
  ExprRef Slt(ExprRef a, ExprRef b);
  ExprRef Sle(ExprRef a, ExprRef b);
  ExprRef Sgt(ExprRef a, ExprRef b) { return Slt(b, a); }
  ExprRef Sge(ExprRef a, ExprRef b) { return Sle(b, a); }

  // --- Boolean combinators over width-1 expressions ---
  ExprRef BoolAnd(ExprRef a, ExprRef b) { return And(a, b); }
  ExprRef BoolOr(ExprRef a, ExprRef b) { return Or(a, b); }
  ExprRef BoolNot(ExprRef a) { return Not(a); }

  // --- Structural ---
  ExprRef Ite(ExprRef cond, ExprRef then_expr, ExprRef else_expr);
  ExprRef Extract(ExprRef a, uint32_t low, uint8_t width);
  ExprRef Concat(ExprRef high, ExprRef low);
  ExprRef ZExt(ExprRef a, uint8_t width);
  ExprRef SExt(ExprRef a, uint8_t width);

  // Extracts byte `i` (0 = least significant).
  ExprRef ExtractByte(ExprRef a, uint32_t i) { return Extract(a, i * 8, 8); }

  const VarInfo& var_info(uint32_t id) const { return vars_[id]; }
  uint32_t num_vars() const { return static_cast<uint32_t>(vars_.size()); }
  size_t num_exprs() const { return all_.size(); }

  // Appends the distinct variable ids of `e` (an expression of this
  // context) to `out`, in first-visit order. Apart from growing `out` it
  // allocates nothing: visited nodes are stamped with a per-context mark.
  // One walk at a time; the context is single-threaded like the rest of it.
  void AppendVars(ExprRef e, std::vector<uint32_t>* out);

 private:
  static void AppendUnmarkedVars(ExprRef e, uint32_t mark, std::vector<uint32_t>* out);
  ExprRef Intern(ExprKind kind, uint8_t width, uint64_t aux, ExprRef a = nullptr,
                 ExprRef b = nullptr, ExprRef c = nullptr);

  struct ExprPtrHash {
    size_t operator()(const Expr* e) const { return e->hash(); }
  };
  struct ExprPtrEq {
    bool operator()(const Expr* a, const Expr* b) const;
  };

  std::deque<Expr> all_;  // stable addresses
  std::unordered_set<Expr*, ExprPtrHash, ExprPtrEq> interned_;
  std::vector<VarInfo> vars_;
  ExprRef true_ = nullptr;
  ExprRef false_ = nullptr;
  uint32_t visit_epoch_ = 0;  // the mark of the latest AppendVars walk
};

// Masks `value` to `width` bits.
inline uint64_t MaskToWidth(uint64_t value, uint8_t width) {
  return width >= 64 ? value : (value & ((1ull << width) - 1));
}

// Sign-extends the low `width` bits of `value` to 64 bits.
inline int64_t SignExtend(uint64_t value, uint8_t width) {
  if (width >= 64) {
    return static_cast<int64_t>(value);
  }
  uint64_t sign_bit = 1ull << (width - 1);
  uint64_t masked = MaskToWidth(value, width);
  return static_cast<int64_t>((masked ^ sign_bit) - sign_bit);
}

// Adds the variable ids referenced by `e` to `out` (ExprContext::AppendVars
// collects them in first-visit order instead).
void CollectVars(ExprRef e, std::unordered_set<uint32_t>* out);

// Human-readable rendering, e.g. "(Add w32 (Var hw0) (Const 0x4))".
std::string ExprToString(ExprRef e);

}  // namespace ddt

#endif  // SRC_EXPR_EXPR_H_
