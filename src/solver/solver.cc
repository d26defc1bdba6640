#include "src/solver/solver.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "src/obs/trace_events.h"
#include "src/solver/bitblast.h"
#include "src/solver/intervals.h"
#include "src/solver/sat.h"
#include "src/support/check.h"
#include "src/support/log.h"

namespace ddt {

void SolverStats::Accumulate(const SolverStats& other) {
  obs::AccumulateCounters(kSolverCounters, other, this);
  max_query_wall_ms = std::max(max_query_wall_ms, other.max_query_wall_ms);
}

Solver::Solver(ExprContext* ctx, const SolverConfig& config) : ctx_(ctx), config_(config) {
#ifndef DDT_OBS_DISABLED
  if (config_.metrics != nullptr) {
    obs_query_ms_ =
        config_.metrics->histogram("solver.query_ms", obs::Histogram::LatencyBucketsMs());
  }
#endif
}

std::vector<ExprRef> Solver::Slice(const std::vector<ExprRef>& constraints,
                                   const std::vector<uint32_t>& seed_vars) const {
  // Fixpoint: pull in every constraint sharing a variable with the working
  // set. Constraint var sets are computed once.
  std::unordered_set<uint32_t> live(seed_vars.begin(), seed_vars.end());
  std::vector<std::unordered_set<uint32_t>> cvars(constraints.size());
  for (size_t i = 0; i < constraints.size(); ++i) {
    CollectVars(constraints[i], &cvars[i]);
  }
  std::vector<bool> included(constraints.size(), false);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (included[i]) {
        continue;
      }
      bool intersects = false;
      for (uint32_t v : cvars[i]) {
        if (live.count(v) != 0) {
          intersects = true;
          break;
        }
      }
      if (intersects) {
        included[i] = true;
        changed = true;
        for (uint32_t v : cvars[i]) {
          live.insert(v);
        }
      }
    }
  }
  std::vector<ExprRef> out;
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (included[i]) {
      out.push_back(constraints[i]);
    }
  }
  return out;
}

std::vector<ExprRef> Solver::SortedUnique(const std::vector<ExprRef>& exprs) {
  std::vector<ExprRef> sorted = exprs;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return sorted;
}

uint64_t Solver::CacheKey(const std::vector<ExprRef>& sorted_exprs) const {
  if (config_.testing_collide_cache_keys) {
    return 0xC0111DEull;  // every query lands in one bucket: full-key compare or bust
  }
  uint64_t h = 0xCBF29CE484222325ull;
  for (ExprRef e : sorted_exprs) {
    h ^= reinterpret_cast<uint64_t>(e);
    h *= 0x100000001B3ull;
  }
  return h;
}

bool Solver::RemapAndVerify(const CanonicalModel& model, const CanonicalQuery& query,
                            const std::vector<ExprRef>& exprs, Assignment* out) {
  Assignment a;
  for (const auto& [canon_id, value] : model) {
    if (canon_id >= query.local_vars.size()) {
      // The stored model mentions a variable the query doesn't have — stale
      // or foreign entry. Never trust it.
      ++stats_.shared_cache_verify_failures;
      return false;
    }
    a.Set(query.local_vars[canon_id], value);
  }
  // Mandatory concrete re-verification, independent of verify_models: a
  // cached model (possibly loaded from disk) is only believed if it actually
  // satisfies this query — so a wrong entry costs a SAT call, never a wrong
  // verdict.
  for (ExprRef e : exprs) {
    if (!EvalBool(e, a)) {
      ++stats_.shared_cache_verify_failures;
      return false;
    }
  }
  *out = std::move(a);
  return true;
}

bool Solver::SharedCacheDecide(const std::vector<ExprRef>& filtered, bool want_model,
                               bool extra_at_back, CanonicalQuery* out_query, bool* sat) {
  *out_query = canonicalizer_.Canonicalize(filtered);
  if (config_.testing_collide_cache_keys) {
    out_query->fingerprint = 0xC0111DEull;
  }
  SharedQueryCache::LookupResult r = config_.shared_cache->Lookup(*out_query);
  if (r.hit) {
    if (!r.sat) {
      // Exact canonical match, unsat. Unsat is a pure verdict (no model to
      // diverge on), so this short-circuit is safe for every caller,
      // including model-requesting ones.
      ++stats_.shared_cache_hits;
      obs::TraceInstant("solver.query", "result", "shared_hit");
      *sat = false;
      return true;
    }
    if (!want_model) {
      Assignment remapped;
      if (RemapAndVerify(r.model, *out_query, filtered, &remapped)) {
        ++stats_.shared_cache_hits;
        obs::TraceInstant("solver.query", "result", "shared_hit");
        last_model_ = std::move(remapped);
        have_last_model_ = true;
        *sat = true;
        return true;
      }
      // Verification failed: fall through to SAT below.
    }
    // want_model with a sat entry: deliberately fall through. Serving the
    // cached model would hand the engine concretization values that depend
    // on cache contents; a fresh solve of the identical expression list
    // returns exactly the model a cache-off run would.
  } else if (extra_at_back && filtered.size() >= 2) {
    // Counterexample fast path (KLEE-style): the query is `prefix AND cond`
    // where `prefix` was itself a recent query on this path. If the prefix
    // is cached unsat, any superset is unsat; if its cached model happens to
    // satisfy the whole query, the query is sat — either way we skip SAT and
    // promote the answer to an exact entry for next time.
    std::vector<ExprRef> prefix(filtered.begin(), filtered.end() - 1);
    CanonicalQuery prefix_query = canonicalizer_.Canonicalize(prefix);
    if (config_.testing_collide_cache_keys) {
      prefix_query.fingerprint = 0xC0111DEull;
    }
    SharedQueryCache::LookupResult pr = config_.shared_cache->Lookup(prefix_query);
    if (pr.hit && !pr.sat) {
      ++stats_.shared_cache_fastpath_hits;
      obs::TraceInstant("solver.query", "result", "shared_fastpath");
      config_.shared_cache->Store(*out_query, false, CanonicalModel());
      ++stats_.shared_cache_stores;
      *sat = false;
      return true;
    }
    if (pr.hit && pr.sat && !want_model) {
      Assignment remapped;
      if (RemapAndVerify(pr.model, prefix_query, filtered, &remapped)) {
        ++stats_.shared_cache_fastpath_hits;
        obs::TraceInstant("solver.query", "result", "shared_fastpath");
        CanonicalModel promoted;
        promoted.reserve(out_query->local_vars.size());
        for (uint32_t i = 0; i < out_query->local_vars.size(); ++i) {
          promoted.emplace_back(i, remapped.Get(out_query->local_vars[i]));
        }
        config_.shared_cache->Store(*out_query, true, std::move(promoted));
        ++stats_.shared_cache_stores;
        last_model_ = std::move(remapped);
        have_last_model_ = true;
        *sat = true;
        return true;
      }
    }
  }
  ++stats_.shared_cache_misses;
  return false;
}

bool Solver::SolveExprs(const std::vector<ExprRef>& exprs, Assignment* model, bool* unknown) {
  *unknown = false;
  // Cancelled pass: don't even start bit-blasting; drain with the same
  // conservative "maybe" a timed-out query yields, so the run loop can
  // observe the abort at its next check instead of queueing behind SAT work.
  if (abort_flag_ != nullptr && abort_flag_->load(std::memory_order_relaxed)) {
    *unknown = true;
    ++stats_.unknown_results;
    ++stats_.aborted_queries;
    obs::TraceInstant("solver.query", "result", "abort");
    return true;
  }
  ++stats_.sat_calls;
  obs::ScopedPhase obs_phase(config_.profile, obs::Phase::kSolver);
  obs::ScopedSpan obs_span("solver.query");
  std::chrono::steady_clock::time_point query_start = std::chrono::steady_clock::now();
  struct QueryTimer {
    std::chrono::steady_clock::time_point start;
    SolverStats* stats;
    obs::Histogram* query_ms;
    ~QueryTimer() {
      double ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      stats->max_query_wall_ms = std::max(stats->max_query_wall_ms, ms);
      if (query_ms != nullptr) {
        query_ms->Observe(ms);
      }
    }
  } timer{query_start, &stats_, obs_query_ms_};
  // Per-query wall deadline (resource governor): the clock starts here, so
  // bit-blasting time counts against the budget too via the first check.
  std::chrono::steady_clock::time_point deadline;
  bool have_deadline = config_.max_query_ms != 0;
  if (have_deadline) {
    deadline = std::chrono::steady_clock::now() + std::chrono::milliseconds(config_.max_query_ms);
  }
  SatSolver sat;
  Bitblaster blaster(&sat);
  for (ExprRef e : exprs) {
    blaster.AssertTrue(e);
  }
  SatResult result =
      sat.Solve({}, config_.conflict_budget, have_deadline ? &deadline : nullptr, abort_flag_);
  stats_.total_conflicts += sat.conflicts();
  stats_.total_sat_vars += sat.num_vars();
  stats_.total_sat_clauses += sat.num_clauses();
  if (result == SatResult::kUnknown) {
    *unknown = true;
    ++stats_.unknown_results;
    if (sat.hit_abort()) {
      ++stats_.aborted_queries;
      obs_span.Tag("result", "abort");
    } else if (sat.hit_deadline() ||
               (have_deadline && std::chrono::steady_clock::now() >= deadline)) {
      ++stats_.query_timeouts;
      obs_span.Tag("result", "timeout");
    } else {
      obs_span.Tag("result", "unknown");
    }
    return true;  // conservative
  }
  if (result == SatResult::kUnsat) {
    ++stats_.unsat_results;
    obs_span.Tag("result", "unsat");
    return false;
  }
  ++stats_.sat_results;
  obs_span.Tag("result", "sat");
  Assignment extracted = blaster.ExtractModel();
  if (config_.verify_models) {
    for (ExprRef e : exprs) {
      DDT_CHECK_MSG(EvalBool(e, extracted), "SAT model fails to satisfy constraint");
    }
  }
  if (model != nullptr) {
    *model = std::move(extracted);
  }
  return true;
}

bool Solver::IsSatisfiable(const std::vector<ExprRef>& constraints, ExprRef extra,
                           Assignment* model) {
  ++stats_.queries;

  // Quick path: an always-false conjunct kills the query; an always-true
  // `extra` reduces to the constraint set.
  if (extra != nullptr) {
    QuickAnswer qa = QuickCheck(extra);
    if (qa == QuickAnswer::kAlwaysFalse) {
      ++stats_.quick_decides;
      return false;
    }
    if (qa == QuickAnswer::kAlwaysTrue) {
      extra = nullptr;  // no information
    }
  }
  if (extra == nullptr && constraints.empty()) {
    ++stats_.quick_decides;
    if (model != nullptr) {
      *model = Assignment();
    }
    return true;
  }

  std::vector<ExprRef> query;
  if (config_.enable_slicing && extra != nullptr) {
    std::vector<uint32_t> seed;
    CollectVars(extra, &seed);
    query = Slice(constraints, seed);
    query.push_back(extra);
  } else {
    query = constraints;
    if (extra != nullptr) {
      query.push_back(extra);
    }
  }
  // Drop literal-true conjuncts; a literal-false conjunct decides it.
  std::vector<ExprRef> filtered;
  for (ExprRef e : query) {
    if (e->IsTrue()) {
      continue;
    }
    if (e->IsFalse()) {
      ++stats_.quick_decides;
      return false;
    }
    filtered.push_back(e);
  }
  if (filtered.empty()) {
    ++stats_.quick_decides;
    if (model != nullptr) {
      *model = Assignment();
    }
    return true;
  }

  uint64_t key = 0;
  std::vector<ExprRef> sorted;
  if (config_.enable_cache) {
    sorted = SortedUnique(filtered);
    key = CacheKey(sorted);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      for (const CacheEntry& entry : it->second) {
        if (entry.exprs != sorted) {
          continue;  // hash collision: keep scanning the chain
        }
        ++stats_.cache_hits;
        obs::TraceInstant("solver.query", "result", "cached");
        if (entry.sat) {
          last_model_ = entry.model;
          have_last_model_ = true;
          if (model != nullptr) {
            *model = entry.model;
          }
        }
        return entry.sat;
      }
    }
  }

  // Model-reuse fast path: consecutive queries on one path usually extend the
  // same constraint set, so the previous satisfying model often still works.
  // Evaluating is linear in expression size — far cheaper than bit-blasting.
  // Restricted to model-free queries (MayBe*/MustBe*) so callers that
  // concretize from the returned model see exactly the values a fresh SAT
  // solve would hand them.
  if (config_.enable_model_reuse && model == nullptr && have_last_model_) {
    bool all_true = true;
    for (ExprRef e : filtered) {
      if (!EvalBool(e, last_model_)) {
        all_true = false;
        break;
      }
    }
    if (all_true) {
      ++stats_.model_reuse_hits;
      obs::TraceInstant("solver.query", "result", "model_reuse");
      return true;
    }
  }

  // Cross-pass shared cache: canonical-fingerprint lookup plus the
  // counterexample fast path. Answers only verdicts it can prove locally
  // (exact unsat, or a cached model re-verified by the concrete evaluator);
  // model-requesting callers always fall through to a fresh solve.
  CanonicalQuery shared_query;
  bool have_shared_query = false;
  if (config_.shared_cache != nullptr) {
    bool extra_at_back = extra != nullptr && !filtered.empty() && filtered.back() == extra;
    bool shared_sat = false;
    if (SharedCacheDecide(filtered, model != nullptr, extra_at_back, &shared_query,
                          &shared_sat)) {
      return shared_sat;
    }
    have_shared_query = true;
  }

  Assignment local_model;
  bool unknown = false;
  bool sat = SolveExprs(filtered, &local_model, &unknown);
  if (config_.enable_cache && !unknown) {
    cache_[key].push_back(CacheEntry{sorted, sat, local_model});
  }
  if (have_shared_query && !unknown) {
    // Publish the fresh verdict for other passes/threads/runs. The model is
    // stored against canonical variable ids (complete over the query's
    // variables; solver-undecided ones are zero, exactly what verification
    // assumed).
    CanonicalModel canonical_model;
    if (sat) {
      canonical_model.reserve(shared_query.local_vars.size());
      for (uint32_t i = 0; i < static_cast<uint32_t>(shared_query.local_vars.size()); ++i) {
        canonical_model.emplace_back(i, local_model.Get(shared_query.local_vars[i]));
      }
    }
    config_.shared_cache->Store(shared_query, sat, std::move(canonical_model));
    ++stats_.shared_cache_stores;
  }
  if (sat && !unknown) {
    last_model_ = local_model;
    have_last_model_ = true;
  }
  if (sat && model != nullptr) {
    *model = std::move(local_model);
  }
  return sat;
}

bool Solver::MayBeTrue(const std::vector<ExprRef>& constraints, ExprRef cond) {
  return IsSatisfiable(constraints, cond);
}

bool Solver::MayBeFalse(const std::vector<ExprRef>& constraints, ExprRef cond) {
  return IsSatisfiable(constraints, ctx_->Not(cond));
}

bool Solver::MustBeTrue(const std::vector<ExprRef>& constraints, ExprRef cond) {
  return !MayBeFalse(constraints, cond);
}

bool Solver::MustBeFalse(const std::vector<ExprRef>& constraints, ExprRef cond) {
  return !MayBeTrue(constraints, cond);
}

std::optional<uint64_t> Solver::GetValue(const std::vector<ExprRef>& constraints, ExprRef expr) {
  if (expr->IsConst()) {
    return expr->const_value();
  }
  // Slice to the constraints relevant to this expression, solve, evaluate.
  std::vector<uint32_t> seed;
  CollectVars(expr, &seed);
  std::vector<ExprRef> relevant =
      config_.enable_slicing ? Slice(constraints, seed) : constraints;
  Assignment model;
  if (!IsSatisfiable(relevant, nullptr, &model)) {
    return std::nullopt;
  }
  return EvalExpr(expr, model);
}

bool Solver::GetInitialValues(const std::vector<ExprRef>& constraints, Assignment* out) {
  // Solve the whole set (sliced into independent components for tractability)
  // and merge the models. Variables in no constraint default to zero, which
  // Assignment::Get already provides.
  *out = Assignment();
  if (constraints.empty()) {
    return true;
  }
  // Union-find over constraints via shared variables would be neater; a
  // simple repeated-slice partition is clear and fast enough.
  std::vector<ExprRef> remaining = constraints;
  while (!remaining.empty()) {
    std::vector<uint32_t> seed;
    CollectVars(remaining[0], &seed);
    std::vector<ExprRef> component = Slice(remaining, seed);
    if (component.empty()) {
      component.push_back(remaining[0]);
    }
    Assignment model;
    if (!IsSatisfiable(component, nullptr, &model)) {
      return false;
    }
    for (const auto& [var, value] : model.values()) {
      out->Set(var, value);
    }
    std::unordered_set<ExprRef> in_component(component.begin(), component.end());
    std::vector<ExprRef> next;
    for (ExprRef e : remaining) {
      if (in_component.count(e) == 0) {
        next.push_back(e);
      }
    }
    // Guard against no progress (shouldn't happen: component contains
    // remaining[0]).
    DDT_CHECK(next.size() < remaining.size());
    remaining = std::move(next);
  }
  return true;
}

}  // namespace ddt
