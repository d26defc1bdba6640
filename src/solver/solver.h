// Solver facade: the engine-facing query interface.
//
// Layered like KLEE's solver chain:
//   1. expression-level constant folding (already done by ExprContext): a
//      conjunct that folds to a literal decides or drops out without SAT,
//   2. independent-constraint slicing: only constraints transitively sharing
//      variables with the query are sent to SAT,
//   3. model reuse: the last satisfying model, re-evaluated on the slice,
//   4. the query store (solver/shared_cache.h), keyed on the canonical form
//      of the sliced constraint set, so a query that recurs over fresh
//      variables is answered once per run: the campaign's shared store when
//      one is configured, else the solver's own. A model request is served
//      only a "solved" entry's model, the one SAT produced for exactly that
//      key,
//   5. bit-blasting + CDCL SAT, into one SAT instance per solver. A call
//      whose list starts with the previous call's prefix (all its
//      expressions but the last) resumes from an exact snapshot of the
//      instance after that prefix and asserts only the rest; any other call
//      resets the instance to exactly a new one and refills it. Either way
//      the instance, and so the model, is the one a new instance would give
//      (total_sat_clauses still counts each solved instance's clauses,
//      restored ones included).
//
// Every SAT model is re-verified with the concrete evaluator before being
// trusted — an end-to-end check on the encoder.
#ifndef SRC_SOLVER_SOLVER_H_
#define SRC_SOLVER_SOLVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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
  // Before bit-blasting a satisfiability-only query, evaluate it under the
  // most recent satisfying model; consecutive queries on the same path often
  // share one. Only applies when the caller wants no model back, so the
  // values the engine concretizes with are unaffected.
  bool enable_model_reuse = true;

  // Optional process-wide query store shared across solver instances (one
  // per fault campaign; non-owning, must outlive the solver). When null, the
  // solver answers through its own store, made on the first query that
  // reaches it. Queries are keyed on a canonical form independent of
  // ExprContext identity, so identical logical queries hit across paths
  // and — through a shared store — across passes, threads, and (via its
  // on-disk persistence) runs. Verdict-only queries can be answered from it
  // (cached models are re-verified by the concrete evaluator first). A
  // model-requesting query is answered only from an entry whose model SAT
  // produced for exactly its key, else it solves, so the values the engine
  // concretizes with are the ones a fresh solve returns, store hit or miss.
  SharedQueryCache* shared_cache = nullptr;

  // Test hook: collapse every store fingerprint to one value, forcing hash
  // collisions so the full-key compare path (the store's chain) is
  // exercised. Never set outside tests.
  bool testing_collide_cache_keys = false;

  // --- Observability (src/obs) — both null by default (kill switch) ---
  // Per-query latency histogram + query counters land here (non-owning).
  obs::MetricsRegistry* metrics = nullptr;
  // SAT wall time is attributed to obs::Phase::kSolver here (non-owning).
  obs::PassProfile* profile = nullptr;
};

// Every uint64_t counter of SolverStats, declared once as
//   X(field, merge, metric)
// with the same columns as DDT_ENGINE_COUNTERS (src/engine/engine.h).
// solver.shared_cache.* rows publish only for passes that ran against a
// shared query cache.
#define DDT_SOLVER_COUNTERS(X)                                                            \
  X(queries, kSum, "solver.queries")                                                      \
  /* Decided without SAT: a conjunct of the sliced query is literal false, */             \
  /* or none but literal-true ones are left. */                                           \
  X(quick_decides, kSum, "solver.quick_decides")                                          \
  /* Answered by the solver's own query store: exact and fast-path hits. */               \
  X(cache_hits, kSum, "solver.cache_hits")                                                \
  X(sat_calls, kSum, "solver.sat_calls")                                                  \
  X(sat_results, kSum, "solver.sat_results")                                              \
  X(unsat_results, kSum, "solver.unsat_results")                                          \
  X(unknown_results, kSum, "solver.unknown_results")                                      \
  /* Queries abandoned because they hit SolverConfig::max_query_ms (a subset */           \
  /* of unknown_results). */                                                              \
  X(query_timeouts, kSum, "solver.timeouts")                                              \
  /* Queries abandoned because the cooperative abort flag fired (also a */                \
  /* subset of unknown_results) — the supervisor cancelled this pass. */                  \
  X(aborted_queries, kSum, "solver.aborted_queries")                                      \
  X(total_conflicts, kSum, "solver.total_conflicts")                                      \
  X(total_sat_vars, kSum, "solver.total_sat_vars")                                        \
  X(total_sat_clauses, kSum, "solver.total_sat_clauses")                                  \
  /* Queries answered by re-evaluating under the last satisfying model */                 \
  /* (SolverConfig::enable_model_reuse), skipping bit-blasting entirely. */               \
  X(model_reuse_hits, kSum, "solver.model_reuse_hits")                                    \
  /* --- Shared cross-pass store (SolverConfig::shared_cache only) --- */                  \
  /* Exact canonical-fingerprint hits answered without a SAT call. */                     \
  X(shared_cache_hits, kSum, "solver.shared_cache.hits")                                  \
  /* Counterexample fast-path hits: the query was answered from a cached */               \
  /* verdict/model for its constraint-set prefix (subset → unsat */                       \
  /* propagation, or a cached model that re-verified against the superset). */            \
  X(shared_cache_fastpath_hits, kSum, "solver.shared_cache.fastpath_hits")                \
  /* Lookups that found nothing usable and fell through to SAT. */                        \
  X(shared_cache_misses, kSum, "solver.shared_cache.misses")                              \
  /* Verdicts this solver contributed to the shared store. */                             \
  X(shared_cache_stores, kSum, "solver.shared_cache.stores")                              \
  /* Cached models that failed concrete re-verification (stale or remapped */             \
  /* against the wrong width set) — treated as misses, never trusted. */                  \
  X(shared_cache_verify_failures, kSum, "solver.shared_cache.verify_failures")

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
  ~Solver();

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

  // Frees the SAT instance the solver reuses across calls, and its prefix
  // snapshot; the next SAT call makes a new one. A campaign keeps every finished pass's engine alive
  // (its bugs point into the engine's expressions), so the engine calls this
  // when its run ends instead of holding each pass's instance to the end.
  void ReleaseSatInstance();

  // Cooperative cancellation: when `flag` (owned by the caller, may be set
  // from another thread) becomes true, in-flight SAT searches unwind at the
  // next conflict/decision poll and later queries degrade immediately to the
  // conservative "maybe" answer — the same graceful path as a query timeout.
  void SetAbortFlag(const std::atomic<bool>* flag) { abort_flag_ = flag; }

 private:
  // The SAT solver and bit-blaster pair every SAT call solves in, and the
  // snapshot of its latest prefix.
  struct SatInstance;

  // Appends to `out` the constraints transitively sharing variables with
  // `seed`, in their order in `constraints`. Apart from growing `out`, it
  // allocates nothing once the slice scratch below has grown.
  void Slice(const std::vector<ExprRef>& constraints, ExprRef seed, std::vector<ExprRef>* out);

  // Uncached SAT query over an explicit expression list.
  bool SolveExprs(const std::vector<ExprRef>& exprs, Assignment* model, bool* unknown);

  // The store this solver answers through: the configured shared one, else
  // its own, made on first use.
  SharedQueryCache* QueryStore();

  // Store consultation for the filtered query; returns true when the query
  // was answered (verdict in *sat, and for a sat answer the model in *model
  // when `model` is non-null). `extra_at_back` marks that the last element
  // of `filtered` is the branch condition appended to a sliced prefix
  // (enables the counterexample fast path). `out_query` receives the
  // canonical form for a later Store on miss.
  bool StoreDecide(const std::vector<ExprRef>& filtered, Assignment* model, bool extra_at_back,
                   CanonicalQuery* out_query, bool* sat);
  // Counts a store answer: cache_hits on the solver's own store, the
  // shared_cache_* rows on a configured shared one.
  void CountStoreHit(bool fastpath);
  // Stores a verdict for `query`: sat with `model` (over local variable
  // ids), or unsat when `model` is null. `solved` marks a model SolveExprs
  // returned for exactly this query.
  void Publish(const CanonicalQuery& query, const Assignment* model, bool solved);
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
  // This solver's own store when no shared one is configured; null until a
  // query reaches it.
  std::unique_ptr<SharedQueryCache> own_store_;
  // Canonical-form renderer for the store (memoizes per-root templates, so
  // it lives with the solver).
  QueryCanonicalizer canonicalizer_;
  Assignment last_model_;         // most recent satisfying assignment
  bool have_last_model_ = false;
  // Made on the first SAT call, so a solver that never reaches SAT (a
  // guided fuzz exec) allocates none.
  std::unique_ptr<SatInstance> sat_;
  // Evaluates model checks; its memo is reused across queries.
  Evaluator evaluator_;

  // Slice scratch: the distinct variables of constraint i are
  // slice_vars_[slice_begin_[i], slice_begin_[i + 1]); a variable is live
  // while live_mark_[var] == live_epoch_.
  std::vector<uint32_t> slice_vars_;
  std::vector<uint32_t> slice_begin_;
  std::vector<uint32_t> live_mark_;
  uint32_t live_epoch_ = 0;
  std::vector<uint8_t> slice_included_;
};

}  // namespace ddt

#endif  // SRC_SOLVER_SOLVER_H_
