// CDCL SAT solver (MiniSat-style): two-watched-literal propagation, 1UIP
// conflict analysis with clause learning, VSIDS-like activity ordering with
// phase saving, and Luby restarts. This is the back-end the bit-blaster
// targets; DDT uses it the way KLEE uses STP.
//
// Every clause lives in one flat literal arena behind a {start, size}
// header, and Reset() empties the instance while keeping every buffer's
// capacity, so one solver serves query after query without allocating once
// its buffers have grown to the largest instance seen. Copy assignment
// likewise refills this solver's buffers, so restoring a saved instance is a
// few buffer copies.
#ifndef SRC_SOLVER_SAT_H_
#define SRC_SOLVER_SAT_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ddt {

// A literal encodes variable v with polarity: positive = 2v, negated = 2v+1.
using SatLit = uint32_t;

inline SatLit MakeLit(uint32_t var, bool negated) { return (var << 1) | (negated ? 1u : 0u); }
inline uint32_t LitVar(SatLit lit) { return lit >> 1; }
inline bool LitNegated(SatLit lit) { return (lit & 1u) != 0; }
inline SatLit NegateLit(SatLit lit) { return lit ^ 1u; }

enum class SatResult { kSat, kUnsat, kUnknown };

class SatSolver {
 public:
  SatSolver();
  SatSolver(const SatSolver&) = default;
  // Makes this solver an exact copy of `other` (its solve scratch aside),
  // reusing this solver's buffers.
  SatSolver& operator=(const SatSolver& other);

  // Empties the instance but keeps every buffer's capacity. Afterwards the
  // solver is indistinguishable from a new one: variables and clauses are
  // numbered from 0 again, and activities, saved phases, the trail, the
  // counters and the known-unsat/deadline/abort flags are cleared.
  void Reset();

  // Allocates a fresh variable; returns its index.
  uint32_t NewVar();
  uint32_t num_vars() const { return static_cast<uint32_t>(assign_.size()); }

  // Adds the clause lits[0] | ... | lits[count-1]. An empty clause makes the
  // instance trivially unsat. Returns false if the solver is already
  // known-unsat. The literals are normalized in a reused scratch buffer.
  bool AddClause(const SatLit* lits, size_t count);
  // The bit-blaster's gate clauses: the same clause, and the same level-0
  // outcome, as AddClause, but sorted by compare-swaps on the stack.
  void AddUnit(SatLit lit) { AddSorted(&lit, 1); }
  void AddBinary(SatLit a, SatLit b) {
    SatLit lits[] = {std::min(a, b), std::max(a, b)};
    AddSorted(lits, 2);
  }
  void AddTernary(SatLit a, SatLit b, SatLit c) {
    if (a > b) {
      std::swap(a, b);
    }
    if (b > c) {
      std::swap(b, c);
    }
    if (a > b) {
      std::swap(a, b);
    }
    SatLit lits[] = {a, b, c};
    AddSorted(lits, 3);
  }

  // Solves under the given assumptions. kUnknown only if conflict_budget
  // (when nonzero) is exhausted, `deadline` (when non-null) passes, or
  // `abort` (when non-null) becomes true; deadline and abort are checked at
  // conflicts and periodically at decisions, so overshoot is bounded by one
  // propagation. The abort flag is the campaign supervisor's cooperative
  // cancellation point: a watchdog on another thread sets it and a hung
  // query unwinds within one propagation instead of stalling the pass.
  SatResult Solve(const std::vector<SatLit>& assumptions = {}, uint64_t conflict_budget = 0,
                  const std::chrono::steady_clock::time_point* deadline = nullptr,
                  const std::atomic<bool>* abort = nullptr);

  // Model access after kSat.
  bool ModelValue(uint32_t var) const;

  // True if the last Solve returned kUnknown because of the deadline (as
  // opposed to conflict-budget exhaustion).
  bool hit_deadline() const { return hit_deadline_; }

  // True if the last Solve returned kUnknown because the abort flag fired.
  bool hit_abort() const { return hit_abort_; }

  uint64_t conflicts() const { return conflicts_; }
  uint64_t decisions() const { return decisions_; }
  uint64_t propagations() const { return propagations_; }
  size_t num_clauses() const { return clauses_.size(); }

 private:
  enum : uint8_t { kUndef = 2 };  // assign_ values: 0 = false, 1 = true, 2 = unassigned

  // A clause's literals are arena_[start, start + size).
  struct Clause {
    uint32_t start = 0;
    uint32_t size = 0;
  };

  using ClauseIdx = uint32_t;
  static constexpr ClauseIdx kNoReason = 0xFFFFFFFF;

  bool LitValueIsTrue(SatLit lit) const {
    uint8_t v = assign_[LitVar(lit)];
    return v != kUndef && (v == 1) != LitNegated(lit);
  }
  bool LitValueIsFalse(SatLit lit) const {
    uint8_t v = assign_[LitVar(lit)];
    return v != kUndef && (v == 1) == LitNegated(lit);
  }
  bool LitUnassigned(SatLit lit) const { return assign_[LitVar(lit)] == kUndef; }

  void Enqueue(SatLit lit, ClauseIdx reason);
  // Returns the index of a conflicting clause, or kNoReason if no conflict.
  ClauseIdx Propagate();
  // Derives the 1UIP clause for `conflict` into learned_.
  void Analyze(ClauseIdx conflict, uint32_t* backtrack_level);
  void Backtrack(uint32_t level);
  void BumpVar(uint32_t var);
  void DecayActivities();
  SatLit PickBranchLit();
  // AddClause on sorted literals, normalized in place: dedupes, drops
  // level-0 false literals, and drops the clause if it is a tautology or
  // already true at level 0.
  bool AddSorted(SatLit* lits, size_t count);
  // Stores lits[0, size) as a new clause and watches its first two literals.
  ClauseIdx StoreClause(const SatLit* lits, size_t size);

  std::vector<SatLit> arena_;
  std::vector<Clause> clauses_;
  // Indexed by literal. Reset() empties the lists in place; the lists of
  // literals past 2 * num_vars() are always empty.
  std::vector<std::vector<ClauseIdx>> watches_;
  std::vector<uint8_t> assign_;
  std::vector<uint8_t> saved_phase_;
  std::vector<uint32_t> level_;
  std::vector<ClauseIdx> reason_;
  std::vector<SatLit> trail_;
  std::vector<uint32_t> trail_limits_;  // decision level boundaries
  size_t propagate_head_ = 0;

  std::vector<double> activity_;
  double activity_inc_ = 1.0;

  bool known_unsat_ = false;
  bool hit_deadline_ = false;
  bool hit_abort_ = false;
  uint64_t conflicts_ = 0;
  uint64_t decisions_ = 0;
  uint64_t propagations_ = 0;

  std::vector<uint8_t> seen_;     // scratch for Analyze
  std::vector<SatLit> learned_;   // scratch for Analyze
  std::vector<SatLit> add_lits_;  // scratch for AddClause
};

}  // namespace ddt

#endif  // SRC_SOLVER_SAT_H_
