// Concrete evaluation of expression DAGs under a variable assignment.
// Used by the solver to verify models, by the replayer to turn symbolic
// inputs into concrete device/registry values, and by tests as an oracle.
#ifndef SRC_EXPR_EVAL_H_
#define SRC_EXPR_EVAL_H_

#include <cstdint>
#include <unordered_map>

#include "src/expr/expr.h"
#include "src/expr/expr_map.h"

namespace ddt {

// Partial map from variable id to concrete value. Unassigned variables
// default to zero (a solver model only mentions variables it had to decide).
class Assignment {
 public:
  void Set(uint32_t var_id, uint64_t value) { values_[var_id] = value; }
  uint64_t Get(uint32_t var_id) const {
    auto it = values_.find(var_id);
    return it == values_.end() ? 0 : it->second;
  }
  bool Has(uint32_t var_id) const { return values_.find(var_id) != values_.end(); }
  size_t size() const { return values_.size(); }
  const std::unordered_map<uint32_t, uint64_t>& values() const { return values_; }

 private:
  std::unordered_map<uint32_t, uint64_t> values_;
};

// Evaluates expressions through a memo it keeps between calls, so that once
// the memo has grown to the largest DAG seen an evaluation allocates
// nothing. Whoever evaluates per query (the solver's model checks) keeps
// one; EvalExpr and EvalBool below make a throwaway one.
class Evaluator {
 public:
  // Evaluates `e` under `assignment`; result is masked to e->width().
  uint64_t Eval(ExprRef e, const Assignment& assignment);
  // True iff the width-1 expression evaluates to 1.
  bool EvalBool(ExprRef e, const Assignment& assignment);

 private:
  ExprScratchMap<uint64_t> memo_;  // valid within one Eval call
};

// Evaluates `e` under `assignment`; result is masked to e->width().
uint64_t EvalExpr(ExprRef e, const Assignment& assignment);

// Convenience: true iff the width-1 expression evaluates to 1.
bool EvalBool(ExprRef e, const Assignment& assignment);

}  // namespace ddt

#endif  // SRC_EXPR_EVAL_H_
