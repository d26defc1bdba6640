// Solver facade: the engine-facing query interface.
//
// Layered like KLEE's solver chain:
//   1. expression-level constant folding (already done by ExprContext),
//   2. interval quick checks (solver/intervals.h),
//   3. independent-constraint slicing: only constraints transitively sharing
//      variables with the query are sent to SAT,
//   4. query cache keyed on the sliced constraint set,
//   5. bit-blasting + CDCL SAT.
//
// Every SAT model is re-verified with the concrete evaluator before being
// trusted — an end-to-end check on the encoder.
#ifndef SRC_SOLVER_SOLVER_H_
#define SRC_SOLVER_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "src/expr/eval.h"
#include "src/expr/expr.h"
#include "src/obs/counter_table.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/solver/shared_cache.h"

namespace ddt {

struct SolverConfig {
  // CDCL conflict budget per query; 0 = unlimited. Exhaustion yields a
  // conservative "maybe" answer.
  uint64_t conflict_budget = 500000;
  // Per-query wall deadline in milliseconds; 0 = unlimited. A query that
  // exceeds it returns the same conservative "maybe" as budget exhaustion
  // (counted in SolverStats::query_timeouts); callers degrade gracefully —
  // branch exploration over-approximates, GetValue falls back to
  // concretization under a partial model.
  uint64_t max_query_ms = 0;
  bool verify_models = true;
  bool enable_cache = true;
  bool enable_slicing = true;
  // Before bit-blasting a satisfiability-only query, evaluate it under the
  // most recent satisfying model; consecutive queries on the same path often
  // share one. Only applies when the caller wants no model back, so the
  // values the engine concretizes with are unaffected.
  bool enable_model_reuse = true;

  // Optional process-wide query cache shared across solver instances (one per
  // fault campaign; non-owning, must outlive the solver). Queries are keyed
  // on a canonical form independent of ExprContext identity, so identical
  // logical queries hit across passes, threads, and — via its on-disk
  // persistence — across runs. Verdict-only queries can be answered from it
  // (cached models are re-verified by the concrete evaluator first);
  // model-requesting queries always fall through to a fresh SAT solve so the
  // values the engine concretizes with are byte-identical cache on or off.
  SharedQueryCache* shared_cache = nullptr;

  // Test hook: collapse every cache fingerprint to one value, forcing hash
  // collisions so the full-key compare paths (per-solver cache entry list,
  // shared-cache chain) are exercised. Never set outside tests.
  bool testing_collide_cache_keys = false;

  // --- Observability (src/obs) — both null by default (kill switch) ---
  // Per-query latency histogram + query counters land here (non-owning).
  obs::MetricsRegistry* metrics = nullptr;
  // SAT wall time is attributed to obs::Phase::kSolver here (non-owning).
  obs::PassProfile* profile = nullptr;
};

// Every uint64_t counter of SolverStats, declared once as
//   X(field, merge, journal_key, metric)
// with the same columns as DDT_ENGINE_COUNTERS (src/engine/engine.h).
// solver.shared_cache.* rows publish only for passes that ran against a
// shared query cache.
#define DDT_SOLVER_COUNTERS(X)                                                            \
  X(queries, kSum, "s_queries", "solver.queries")                                         \
  /* Answered by interval analysis. */                                                    \
  X(quick_decides, kSum, "s_quick_decides", "solver.quick_decides")                       \
  X(cache_hits, kSum, "s_cache_hits", "solver.cache_hits")                                \
  X(sat_calls, kSum, "s_sat_calls", "solver.sat_calls")                                   \
  X(sat_results, kSum, "s_sat_results", "solver.sat_results")                             \
  X(unsat_results, kSum, "s_unsat_results", "solver.unsat_results")                       \
  X(unknown_results, kSum, "s_unknown_results", "solver.unknown_results")                 \
  /* Queries abandoned because they hit SolverConfig::max_query_ms (a subset */           \
  /* of unknown_results). */                                                              \
  X(query_timeouts, kSum, "s_query_timeouts", "solver.timeouts")                          \
  /* Queries abandoned because the cooperative abort flag fired (also a */                \
  /* subset of unknown_results) — the supervisor cancelled this pass. */                  \
  X(aborted_queries, kSum, "s_aborted_queries", "solver.aborted_queries")                 \
  X(total_conflicts, kSum, "s_total_conflicts", "solver.total_conflicts")                 \
  X(total_sat_vars, kSum, "s_total_sat_vars", "solver.total_sat_vars")                    \
  X(total_sat_clauses, kSum, "s_total_sat_clauses", "solver.total_sat_clauses")           \
  /* Queries answered by re-evaluating under the last satisfying model */                 \
  /* (SolverConfig::enable_model_reuse), skipping bit-blasting entirely. */               \
  X(model_reuse_hits, kSum, "s_model_reuse_hits", "solver.model_reuse_hits")              \
  /* --- Shared cross-pass cache (SolverConfig::shared_cache) --- */                      \
  /* Exact canonical-fingerprint hits answered without a SAT call. */                     \
  X(shared_cache_hits, kSum, "s_sc_hits", "solver.shared_cache.hits")                     \
  /* Counterexample fast-path hits: the query was answered from a cached */               \
  /* verdict/model for its constraint-set prefix (subset → unsat */                       \
  /* propagation, or a cached model that re-verified against the superset). */            \
  X(shared_cache_fastpath_hits, kSum, "s_sc_fastpath",                                    \
    "solver.shared_cache.fastpath_hits")                                                  \
  /* Lookups that found nothing usable and fell through to SAT. */                        \
  X(shared_cache_misses, kSum, "s_sc_misses", "solver.shared_cache.misses")               \
  /* Verdicts this solver contributed to the shared store. */                             \
  X(shared_cache_stores, kSum, "s_sc_stores", "solver.shared_cache.stores")               \
  /* Cached models that failed concrete re-verification (stale or remapped */             \
  /* against the wrong width set) — treated as misses, never trusted. */                  \
  X(shared_cache_verify_failures, kSum, "s_sc_verify_failures",                           \
    "solver.shared_cache.verify_failures")

struct SolverStats {
  DDT_SOLVER_COUNTERS(DDT_COUNTER_FIELD)
  // Wall time of the slowest single SolveExprs call, in milliseconds.
  double max_query_wall_ms = 0;

  // Folds `other` into this: counters by their table merge rule,
  // max_query_wall_ms by max. Used to aggregate per-pass stats across a
  // fault campaign.
  void Accumulate(const SolverStats& other);
};

#define DDT_SOLVER_ROW(...) DDT_COUNTER_ROW(SolverStats, __VA_ARGS__)
inline constexpr obs::CounterRow<SolverStats> kSolverCounters[] = {
    DDT_SOLVER_COUNTERS(DDT_SOLVER_ROW)};
#undef DDT_SOLVER_ROW

class Solver {
 public:
  Solver(ExprContext* ctx, const SolverConfig& config = SolverConfig());

  // True iff (AND of constraints) AND extra is satisfiable. `extra` may be
  // null (checks the constraint set alone). On SAT with `model` non-null,
  // fills a verified satisfying assignment for all variables in the sliced
  // query. Unknown (budget exhausted) is reported as satisfiable (sound for
  // exploration: we may explore an infeasible path but never drop a feasible
  // one) and counted in stats.
  bool IsSatisfiable(const std::vector<ExprRef>& constraints, ExprRef extra,
                     Assignment* model = nullptr);

  // May/Must queries used at branches. Precondition held by the engine: the
  // constraint set itself is satisfiable.
  bool MayBeTrue(const std::vector<ExprRef>& constraints, ExprRef cond);
  bool MayBeFalse(const std::vector<ExprRef>& constraints, ExprRef cond);
  bool MustBeTrue(const std::vector<ExprRef>& constraints, ExprRef cond);
  bool MustBeFalse(const std::vector<ExprRef>& constraints, ExprRef cond);

  // Picks one feasible concrete value for `expr` under the constraints
  // (random-ish: whatever model the solver lands on). nullopt if the
  // constraint set is unsatisfiable or the budget ran out.
  std::optional<uint64_t> GetValue(const std::vector<ExprRef>& constraints, ExprRef expr);

  // Solves the full constraint set and returns values for every variable it
  // mentions — the "concrete inputs and system events" attached to a bug
  // trace (§3.5). Solves independent components separately and merges.
  bool GetInitialValues(const std::vector<ExprRef>& constraints, Assignment* out);

  const SolverStats& stats() const { return stats_; }
  ExprContext* context() { return ctx_; }

  // Cooperative cancellation: when `flag` (owned by the caller, may be set
  // from another thread) becomes true, in-flight SAT searches unwind at the
  // next conflict/decision poll and later queries degrade immediately to the
  // conservative "maybe" answer — the same graceful path as a query timeout.
  void SetAbortFlag(const std::atomic<bool>* flag) { abort_flag_ = flag; }

 private:
  // Per-solver cache entry. `exprs` is the sorted, deduplicated constraint
  // set the verdict was computed for — the full key. The map is keyed on a
  // hash of that set; entries chain within a bucket and are only trusted
  // after an exact set compare, so a hash collision can never serve a wrong
  // verdict.
  struct CacheEntry {
    std::vector<ExprRef> exprs;
    bool sat = false;
    Assignment model;
  };

  // Returns the subset of constraints transitively sharing variables with
  // `seed_vars`.
  std::vector<ExprRef> Slice(const std::vector<ExprRef>& constraints,
                             const std::vector<uint32_t>& seed_vars) const;

  // Uncached SAT query over an explicit expression list.
  bool SolveExprs(const std::vector<ExprRef>& exprs, Assignment* model, bool* unknown);

  // Sorted + deduplicated copy of `exprs` (the per-solver cache's full key).
  static std::vector<ExprRef> SortedUnique(const std::vector<ExprRef>& exprs);
  uint64_t CacheKey(const std::vector<ExprRef>& sorted_exprs) const;

  // Shared-cache consultation for the filtered query; returns true when the
  // query was answered (verdict in *sat). `extra_at_back` marks that the last
  // element of `filtered` is the branch condition appended to a sliced prefix
  // (enables the counterexample fast path). `out_query` receives the
  // canonical form for a later Store on miss.
  bool SharedCacheDecide(const std::vector<ExprRef>& filtered, bool want_model,
                         bool extra_at_back, CanonicalQuery* out_query, bool* sat);
  // Remaps a canonical model into this context's variable ids and re-verifies
  // it against `exprs` with the concrete evaluator. False = do not trust.
  bool RemapAndVerify(const CanonicalModel& model, const CanonicalQuery& query,
                      const std::vector<ExprRef>& exprs, Assignment* out);

  ExprContext* ctx_;
  SolverConfig config_;
  SolverStats stats_;
  // Registered once at construction (registry lookups take a lock); null when
  // metrics are off, which skips the observe in one branch.
  obs::Histogram* obs_query_ms_ = nullptr;
  const std::atomic<bool>* abort_flag_ = nullptr;
  std::unordered_map<uint64_t, std::vector<CacheEntry>> cache_;
  // Canonical-form renderer for the shared cache (memoizes per-root
  // templates, so it lives with the solver).
  QueryCanonicalizer canonicalizer_;
  Assignment last_model_;         // most recent satisfying assignment
  bool have_last_model_ = false;
};

}  // namespace ddt

#endif  // SRC_SOLVER_SOLVER_H_
