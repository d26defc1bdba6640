#include "src/solver/sat.h"

#include <algorithm>

#include "src/support/check.h"

namespace ddt {

namespace {

// Luby restart sequence: 1,1,2,1,1,2,4,... (MiniSat's formulation, 0-based).
uint64_t Luby(uint64_t x) {
  uint64_t size = 1;
  uint64_t seq = 0;
  while (size < x + 1) {
    ++seq;
    size = 2 * size + 1;
  }
  while (size - 1 != x) {
    size = (size - 1) >> 1;
    --seq;
    x = x % size;
  }
  return 1ull << seq;
}

constexpr uint64_t kRestartBase = 256;

}  // namespace

SatSolver::SatSolver() = default;

SatSolver& SatSolver::operator=(const SatSolver& other) {
  // Watch lists past 2 * num_vars() are empty on both sides (see watches_):
  // copy the live ones list by list, so each keeps its buffer, and empty
  // this solver's surplus.
  size_t live = 2 * other.assign_.size();
  size_t stale = 2 * assign_.size();
  if (watches_.size() < live) {
    watches_.resize(live);
  }
  for (size_t lit = 0; lit < live; ++lit) {
    watches_[lit] = other.watches_[lit];
  }
  for (size_t lit = live; lit < stale; ++lit) {
    watches_[lit].clear();
  }
  arena_ = other.arena_;
  clauses_ = other.clauses_;
  assign_ = other.assign_;
  saved_phase_ = other.saved_phase_;
  level_ = other.level_;
  reason_ = other.reason_;
  trail_ = other.trail_;
  trail_limits_ = other.trail_limits_;
  propagate_head_ = other.propagate_head_;
  activity_ = other.activity_;
  activity_inc_ = other.activity_inc_;
  known_unsat_ = other.known_unsat_;
  hit_deadline_ = other.hit_deadline_;
  hit_abort_ = other.hit_abort_;
  conflicts_ = other.conflicts_;
  decisions_ = other.decisions_;
  propagations_ = other.propagations_;
  seen_ = other.seen_;
  return *this;
}

void SatSolver::Reset() {
  for (size_t lit = 0; lit < 2 * assign_.size(); ++lit) {
    watches_[lit].clear();
  }
  arena_.clear();
  clauses_.clear();
  assign_.clear();
  saved_phase_.clear();
  level_.clear();
  reason_.clear();
  trail_.clear();
  trail_limits_.clear();
  propagate_head_ = 0;
  activity_.clear();
  activity_inc_ = 1.0;
  known_unsat_ = false;
  hit_deadline_ = false;
  hit_abort_ = false;
  conflicts_ = 0;
  decisions_ = 0;
  propagations_ = 0;
  seen_.clear();
}

uint32_t SatSolver::NewVar() {
  uint32_t var = static_cast<uint32_t>(assign_.size());
  assign_.push_back(kUndef);
  saved_phase_.push_back(0);
  level_.push_back(0);
  reason_.push_back(kNoReason);
  activity_.push_back(0.0);
  seen_.push_back(0);
  if (watches_.size() < 2 * (static_cast<size_t>(var) + 1)) {
    watches_.emplace_back();
    watches_.emplace_back();
  }
  return var;
}

bool SatSolver::AddClause(const SatLit* lits, size_t count) {
  add_lits_.assign(lits, lits + count);
  std::sort(add_lits_.begin(), add_lits_.end());
  return AddSorted(add_lits_.data(), count);
}

bool SatSolver::AddSorted(SatLit* lits, size_t count) {
  if (known_unsat_) {
    return false;
  }
  DDT_CHECK_MSG(trail_limits_.empty(), "AddClause only at decision level 0");
  // Dedupe, drop clauses with complementary pairs, drop false literals, and
  // short-circuit on true literals. The first `kept` slots hold the cleaned
  // clause; the read index never trails them.
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    SatLit lit = lits[i];
    if (i + 1 < count && lits[i + 1] == NegateLit(lit)) {
      return true;  // tautology
    }
    if (kept != 0 && lits[kept - 1] == lit) {
      continue;
    }
    if (LitValueIsTrue(lit)) {
      return true;  // satisfied at level 0
    }
    if (LitValueIsFalse(lit)) {
      continue;  // drop
    }
    lits[kept++] = lit;
  }
  if (kept == 0) {
    known_unsat_ = true;
    return false;
  }
  if (kept == 1) {
    Enqueue(lits[0], kNoReason);
    if (Propagate() != kNoReason) {
      known_unsat_ = true;
      return false;
    }
    return true;
  }
  StoreClause(lits, kept);
  return true;
}

SatSolver::ClauseIdx SatSolver::StoreClause(const SatLit* lits, size_t size) {
  ClauseIdx idx = static_cast<ClauseIdx>(clauses_.size());
  clauses_.push_back(Clause{static_cast<uint32_t>(arena_.size()), static_cast<uint32_t>(size)});
  for (size_t i = 0; i < size; ++i) {
    arena_.push_back(lits[i]);
  }
  watches_[NegateLit(lits[0])].push_back(idx);
  watches_[NegateLit(lits[1])].push_back(idx);
  return idx;
}

void SatSolver::Enqueue(SatLit lit, ClauseIdx reason) {
  uint32_t var = LitVar(lit);
  DDT_CHECK(assign_[var] == kUndef);
  assign_[var] = LitNegated(lit) ? 0 : 1;
  level_[var] = static_cast<uint32_t>(trail_limits_.size());
  reason_[var] = reason;
  trail_.push_back(lit);
}

SatSolver::ClauseIdx SatSolver::Propagate() {
  while (propagate_head_ < trail_.size()) {
    SatLit p = trail_[propagate_head_++];
    ++propagations_;
    // Clauses watching ¬p: that literal just became false.
    std::vector<ClauseIdx>& watch_list = watches_[p];
    size_t keep = 0;
    for (size_t i = 0; i < watch_list.size(); ++i) {
      ClauseIdx idx = watch_list[i];
      SatLit* lits = &arena_[clauses_[idx].start];
      uint32_t size = clauses_[idx].size;
      SatLit false_lit = NegateLit(p);
      // Ensure the false literal is in slot 1.
      if (lits[0] == false_lit) {
        std::swap(lits[0], lits[1]);
      }
      // If slot 0 is already true, clause is satisfied; keep watch.
      if (LitValueIsTrue(lits[0])) {
        watch_list[keep++] = idx;
        continue;
      }
      // Look for a replacement watch.
      bool found = false;
      for (uint32_t k = 2; k < size; ++k) {
        if (!LitValueIsFalse(lits[k])) {
          std::swap(lits[1], lits[k]);
          watches_[NegateLit(lits[1])].push_back(idx);
          found = true;
          break;
        }
      }
      if (found) {
        continue;  // watch moved; drop from this list
      }
      // Clause is unit or conflicting.
      watch_list[keep++] = idx;
      if (LitValueIsFalse(lits[0])) {
        // Conflict: restore remaining watches and report.
        for (size_t j = i + 1; j < watch_list.size(); ++j) {
          watch_list[keep++] = watch_list[j];
        }
        watch_list.resize(keep);
        propagate_head_ = trail_.size();
        return idx;
      }
      Enqueue(lits[0], idx);
    }
    watch_list.resize(keep);
  }
  return kNoReason;
}

void SatSolver::Analyze(ClauseIdx conflict, uint32_t* backtrack_level) {
  learned_.clear();
  learned_.push_back(0);  // placeholder for the asserting literal
  uint32_t current_level = static_cast<uint32_t>(trail_limits_.size());
  int counter = 0;
  SatLit p = 0;
  bool have_p = false;
  size_t trail_index = trail_.size();
  ClauseIdx reason = conflict;

  for (;;) {
    DDT_CHECK(reason != kNoReason);
    const SatLit* lits = &arena_[clauses_[reason].start];
    uint32_t size = clauses_[reason].size;
    uint32_t start = have_p ? 1 : 0;  // skip the asserting literal itself
    for (uint32_t i = start; i < size; ++i) {
      SatLit q = lits[i];
      if (have_p && q == p) {
        continue;
      }
      uint32_t var = LitVar(q);
      if (seen_[var] != 0 || level_[var] == 0) {
        continue;
      }
      seen_[var] = 1;
      BumpVar(var);
      if (level_[var] == current_level) {
        ++counter;
      } else {
        learned_.push_back(q);
      }
    }
    // Select next literal on the trail to resolve on.
    do {
      DDT_CHECK(trail_index > 0);
      --trail_index;
      p = trail_[trail_index];
    } while (seen_[LitVar(p)] == 0);
    have_p = true;
    seen_[LitVar(p)] = 0;
    reason = reason_[LitVar(p)];
    --counter;
    if (counter <= 0) {
      break;
    }
    // Invariant from Enqueue/Propagate: a reason clause always has its
    // asserting literal in slot 0, so the `start = 1` skip above is valid.
    if (reason != kNoReason) {
      DDT_CHECK(arena_[clauses_[reason].start] == p);
    }
  }
  learned_[0] = NegateLit(p);

  // Clear seen marks for the learned clause literals.
  for (SatLit lit : learned_) {
    seen_[LitVar(lit)] = 0;
  }

  // Backtrack level: maximum level among non-asserting literals.
  *backtrack_level = 0;
  size_t max_pos = 1;
  for (size_t i = 1; i < learned_.size(); ++i) {
    uint32_t lvl = level_[LitVar(learned_[i])];
    if (lvl > *backtrack_level) {
      *backtrack_level = lvl;
      max_pos = i;
    }
  }
  if (learned_.size() > 1) {
    std::swap(learned_[1], learned_[max_pos]);
  }
}

void SatSolver::Backtrack(uint32_t target_level) {
  if (trail_limits_.size() <= target_level) {
    return;
  }
  size_t bound = trail_limits_[target_level];
  for (size_t i = trail_.size(); i > bound; --i) {
    SatLit lit = trail_[i - 1];
    uint32_t var = LitVar(lit);
    saved_phase_[var] = assign_[var];
    assign_[var] = kUndef;
    reason_[var] = kNoReason;
  }
  trail_.resize(bound);
  trail_limits_.resize(target_level);
  propagate_head_ = trail_.size();
}

void SatSolver::BumpVar(uint32_t var) {
  activity_[var] += activity_inc_;
  if (activity_[var] > 1e100) {
    for (double& a : activity_) {
      a *= 1e-100;
    }
    activity_inc_ *= 1e-100;
  }
}

void SatSolver::DecayActivities() { activity_inc_ *= (1.0 / 0.95); }

SatLit SatSolver::PickBranchLit() {
  // Linear scan for the highest-activity unassigned variable. Problem sizes
  // here (a few thousand variables) make a heap unnecessary.
  double best = -1.0;
  uint32_t best_var = UINT32_MAX;
  for (uint32_t v = 0; v < assign_.size(); ++v) {
    if (assign_[v] == kUndef && activity_[v] > best) {
      best = activity_[v];
      best_var = v;
    }
  }
  if (best_var == UINT32_MAX) {
    return UINT32_MAX;
  }
  // Phase saving: re-use the last assigned polarity.
  bool negate = saved_phase_[best_var] == 0;
  return MakeLit(best_var, negate);
}

SatResult SatSolver::Solve(const std::vector<SatLit>& assumptions, uint64_t conflict_budget,
                           const std::chrono::steady_clock::time_point* deadline,
                           const std::atomic<bool>* abort) {
  hit_deadline_ = false;
  hit_abort_ = false;
  if (known_unsat_) {
    return SatResult::kUnsat;
  }
  Backtrack(0);
  if (Propagate() != kNoReason) {
    known_unsat_ = true;
    return SatResult::kUnsat;
  }

  uint64_t conflicts_at_start = conflicts_;
  uint64_t restarts = 0;
  uint64_t restart_limit = kRestartBase * Luby(0);
  uint64_t conflicts_since_restart = 0;

  for (;;) {
    ClauseIdx conflict = Propagate();
    if (conflict != kNoReason) {
      ++conflicts_;
      ++conflicts_since_restart;
      if (trail_limits_.empty()) {
        known_unsat_ = true;
        return SatResult::kUnsat;
      }
      if (trail_limits_.size() <= assumptions.size()) {
        // Conflict entirely under the assumption prefix.
        Backtrack(0);
        return SatResult::kUnsat;
      }
      uint32_t backtrack_level;
      Analyze(conflict, &backtrack_level);
      Backtrack(backtrack_level);
      if (learned_.size() == 1) {
        Backtrack(0);
        if (!LitUnassigned(learned_[0])) {
          if (LitValueIsFalse(learned_[0])) {
            known_unsat_ = true;
            return SatResult::kUnsat;
          }
        } else {
          Enqueue(learned_[0], kNoReason);
        }
      } else {
        Enqueue(learned_[0], StoreClause(learned_.data(), learned_.size()));
      }
      DecayActivities();
      if (conflict_budget != 0 && conflicts_ - conflicts_at_start >= conflict_budget) {
        Backtrack(0);
        return SatResult::kUnknown;
      }
      if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
        hit_deadline_ = true;
        Backtrack(0);
        return SatResult::kUnknown;
      }
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        hit_abort_ = true;
        Backtrack(0);
        return SatResult::kUnknown;
      }
      if (conflicts_since_restart >= restart_limit) {
        ++restarts;
        conflicts_since_restart = 0;
        restart_limit = kRestartBase * Luby(restarts);
        Backtrack(0);
      }
      continue;
    }

    // No conflict: extend the assumption prefix, then decide.
    if (trail_limits_.size() < assumptions.size()) {
      SatLit lit = assumptions[trail_limits_.size()];
      if (LitValueIsFalse(lit)) {
        Backtrack(0);
        return SatResult::kUnsat;
      }
      trail_limits_.push_back(static_cast<uint32_t>(trail_.size()));
      if (LitUnassigned(lit)) {
        Enqueue(lit, kNoReason);
      }
      continue;
    }
    SatLit decision = PickBranchLit();
    if (decision == UINT32_MAX) {
      return SatResult::kSat;  // full assignment
    }
    // Conflict-free instances never reach the conflict-side deadline/abort
    // checks; poll them here too, cheaply (every 128 decisions).
    if ((decisions_ & 0x7F) == 0) {
      if (deadline != nullptr && std::chrono::steady_clock::now() >= *deadline) {
        hit_deadline_ = true;
        Backtrack(0);
        return SatResult::kUnknown;
      }
      if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
        hit_abort_ = true;
        Backtrack(0);
        return SatResult::kUnknown;
      }
    }
    ++decisions_;
    trail_limits_.push_back(static_cast<uint32_t>(trail_.size()));
    Enqueue(decision, kNoReason);
  }
}

bool SatSolver::ModelValue(uint32_t var) const {
  DDT_CHECK(var < assign_.size());
  return assign_[var] == 1;
}

}  // namespace ddt
