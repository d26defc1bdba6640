#include "src/solver/solver.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>

#include "src/obs/trace_events.h"
#include "src/solver/bitblast.h"
#include "src/solver/sat.h"
#include "src/support/check.h"
#include "src/support/log.h"

namespace ddt {

void SolverStats::Accumulate(const SolverStats& other) {
  obs::AccumulateCounters(kSolverCounters, other, this);
  max_query_wall_ms = std::max(max_query_wall_ms, other.max_query_wall_ms);
}

struct Solver::SatInstance {
  SatInstance() = default;
  // Each blaster points at its solver: never copy or move the instance.
  SatInstance(const SatInstance&) = delete;
  SatInstance& operator=(const SatInstance&) = delete;

  // The instance every SAT call solves in.
  SatSolver sat;
  Bitblaster blaster{&sat};
  // An exact copy of `blaster` right after `prefix` was asserted into a
  // reset instance; no snapshot while `prefix` is empty.
  SatSolver snapshot_sat;
  Bitblaster snapshot{&snapshot_sat};
  std::vector<ExprRef> prefix;
};

Solver::Solver(ExprContext* ctx, const SolverConfig& config) : ctx_(ctx), config_(config) {
#ifndef DDT_OBS_DISABLED
  if (config_.metrics != nullptr) {
    obs_query_ms_ =
        config_.metrics->histogram("solver.query_ms", obs::Histogram::LatencyBucketsMs());
  }
#endif
}

Solver::~Solver() = default;

void Solver::ReleaseSatInstance() { sat_.reset(); }

void Solver::Slice(const std::vector<ExprRef>& constraints, ExprRef seed,
                   std::vector<ExprRef>* out) {
  slice_vars_.clear();
  slice_begin_.clear();
  for (ExprRef c : constraints) {
    slice_begin_.push_back(static_cast<uint32_t>(slice_vars_.size()));
    ctx_->AppendVars(c, &slice_vars_);
  }
  slice_begin_.push_back(static_cast<uint32_t>(slice_vars_.size()));

  // A fresh live set: the seed's variables.
  if (++live_epoch_ == 0) {
    std::fill(live_mark_.begin(), live_mark_.end(), 0);
    live_epoch_ = 1;
  }
  if (live_mark_.size() < ctx_->num_vars()) {
    live_mark_.resize(ctx_->num_vars(), 0);
  }
  size_t seed_begin = slice_vars_.size();
  ctx_->AppendVars(seed, &slice_vars_);
  for (size_t k = seed_begin; k < slice_vars_.size(); ++k) {
    live_mark_[slice_vars_[k]] = live_epoch_;
  }

  // Fixpoint: pull in every constraint sharing a variable with the live set.
  slice_included_.assign(constraints.size(), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < constraints.size(); ++i) {
      if (slice_included_[i] != 0) {
        continue;
      }
      bool intersects = false;
      for (uint32_t k = slice_begin_[i]; k < slice_begin_[i + 1]; ++k) {
        if (live_mark_[slice_vars_[k]] == live_epoch_) {
          intersects = true;
          break;
        }
      }
      if (intersects) {
        slice_included_[i] = 1;
        changed = true;
        for (uint32_t k = slice_begin_[i]; k < slice_begin_[i + 1]; ++k) {
          live_mark_[slice_vars_[k]] = live_epoch_;
        }
      }
    }
  }
  for (size_t i = 0; i < constraints.size(); ++i) {
    if (slice_included_[i] != 0) {
      out->push_back(constraints[i]);
    }
  }
}

SharedQueryCache* Solver::QueryStore() {
  if (config_.shared_cache != nullptr) {
    return config_.shared_cache;
  }
  if (own_store_ == nullptr) {
    own_store_ = std::make_unique<SharedQueryCache>();
  }
  return own_store_.get();
}

void Solver::CountStoreHit(bool fastpath) {
  if (config_.shared_cache == nullptr) {
    ++stats_.cache_hits;
    obs::TraceInstant("solver.query", "result", "cached");
  } else if (fastpath) {
    ++stats_.shared_cache_fastpath_hits;
    obs::TraceInstant("solver.query", "result", "shared_fastpath");
  } else {
    ++stats_.shared_cache_hits;
    obs::TraceInstant("solver.query", "result", "shared_hit");
  }
}

bool Solver::RemapAndVerify(const CanonicalModel& model, const CanonicalQuery& query,
                            const std::vector<ExprRef>& exprs, Assignment* out) {
  Assignment a;
  for (const auto& [canon_id, value] : model) {
    if (canon_id >= query.local_vars.size()) {
      // The stored model mentions a variable the query doesn't have — stale
      // or foreign entry. Never trust it.
      stats_.shared_cache_verify_failures += config_.shared_cache != nullptr;
      return false;
    }
    a.Set(query.local_vars[canon_id], value);
  }
  // Mandatory concrete re-verification: a cached model (possibly loaded from
  // disk) is only believed if it actually satisfies this query — so a wrong
  // entry costs a SAT call, never a wrong verdict.
  for (ExprRef e : exprs) {
    if (!evaluator_.EvalBool(e, a)) {
      stats_.shared_cache_verify_failures += config_.shared_cache != nullptr;
      return false;
    }
  }
  *out = std::move(a);
  return true;
}

bool Solver::StoreDecide(const std::vector<ExprRef>& filtered, Assignment* model,
                         bool extra_at_back, CanonicalQuery* out_query, bool* sat) {
  SharedQueryCache* store = QueryStore();
  *out_query = canonicalizer_.Canonicalize(filtered);
  if (config_.testing_collide_cache_keys) {
    out_query->fingerprint = 0xC0111DEull;
  }
  SharedQueryCache::LookupResult r = store->Lookup(*out_query);
  if (r.hit) {
    if (!r.sat) {
      // Exact canonical match, unsat. Unsat is a pure verdict (no model to
      // diverge on), so this short-circuit is safe for every caller,
      // including model-requesting ones.
      CountStoreHit(/*fastpath=*/false);
      *sat = false;
      return true;
    }
    // A model request takes only a solved entry's model: SolveExprs turns
    // a key into one CNF, so that model is exactly what solving this query
    // would return. A promoted model would hand the engine concretization
    // values that depend on store contents; that request solves instead.
    if (model == nullptr || r.solved) {
      Assignment remapped;
      if (RemapAndVerify(r.model, *out_query, filtered, &remapped)) {
        CountStoreHit(/*fastpath=*/false);
        if (model != nullptr) {
          *model = remapped;
        }
        last_model_ = std::move(remapped);
        have_last_model_ = true;
        *sat = true;
        return true;
      }
      // Verification failed: fall through to SAT below.
    }
  } else if (extra_at_back && filtered.size() >= 2) {
    // Counterexample fast path (KLEE-style): the query is `prefix AND cond`
    // where `prefix` was itself a recent query on this path. If the prefix
    // is cached unsat, any superset is unsat; if its cached model happens to
    // satisfy the whole query, the query is sat — either way we skip SAT and
    // promote the answer to an exact entry (not a solved one) for next time.
    std::vector<ExprRef> prefix(filtered.begin(), filtered.end() - 1);
    CanonicalQuery prefix_query = canonicalizer_.Canonicalize(prefix);
    if (config_.testing_collide_cache_keys) {
      prefix_query.fingerprint = 0xC0111DEull;
    }
    SharedQueryCache::LookupResult pr = store->Lookup(prefix_query);
    if (pr.hit && !pr.sat) {
      CountStoreHit(/*fastpath=*/true);
      Publish(*out_query, nullptr, /*solved=*/false);
      *sat = false;
      return true;
    }
    if (pr.hit && pr.sat && model == nullptr) {
      Assignment remapped;
      if (RemapAndVerify(pr.model, prefix_query, filtered, &remapped)) {
        CountStoreHit(/*fastpath=*/true);
        Publish(*out_query, &remapped, /*solved=*/false);
        last_model_ = std::move(remapped);
        have_last_model_ = true;
        *sat = true;
        return true;
      }
    }
  }
  stats_.shared_cache_misses += config_.shared_cache != nullptr;
  return false;
}

void Solver::Publish(const CanonicalQuery& query, const Assignment* model, bool solved) {
  // The model is stored against canonical variable ids (complete over the
  // query's variables; solver-undecided ones are zero, exactly what
  // verification assumed).
  CanonicalModel canonical;
  if (model != nullptr) {
    canonical.reserve(query.local_vars.size());
    for (uint32_t i = 0; i < static_cast<uint32_t>(query.local_vars.size()); ++i) {
      canonical.emplace_back(i, model->Get(query.local_vars[i]));
    }
  }
  QueryStore()->Store(query, model != nullptr, std::move(canonical), solved);
  stats_.shared_cache_stores += config_.shared_cache != nullptr;
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
  if (sat_ == nullptr) {
    sat_ = std::make_unique<SatInstance>();
  }
  SatInstance& instance = *sat_;
  SatSolver& sat = instance.sat;
  Bitblaster& blaster = instance.blaster;
  // Resume from the snapshot when this list starts with its prefix, else
  // from a reset instance; both are exactly the instance a reset one has
  // after the same assertions. Then snapshot all but the last expression,
  // unless the snapshot already holds that much.
  DDT_CHECK(!exprs.empty());
  size_t asserted = 0;
  const std::vector<ExprRef>& prefix = instance.prefix;
  if (!prefix.empty() && prefix.size() <= exprs.size() &&
      std::equal(prefix.begin(), prefix.end(), exprs.begin())) {
    blaster.CopyFrom(instance.snapshot);
    asserted = prefix.size();
  } else {
    blaster.Reset();
  }
  size_t last = exprs.size() - 1;
  if (asserted < last) {
    for (; asserted < last; ++asserted) {
      blaster.AssertTrue(exprs[asserted]);
    }
    instance.snapshot.CopyFrom(blaster);
    instance.prefix.assign(exprs.begin(), exprs.begin() + static_cast<ptrdiff_t>(last));
  }
  for (; asserted < exprs.size(); ++asserted) {
    blaster.AssertTrue(exprs[asserted]);
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
  // Safety check: every SAT model must satisfy the query it answers.
  for (ExprRef e : exprs) {
    DDT_CHECK_MSG(evaluator_.EvalBool(e, extracted), "SAT model fails to satisfy constraint");
  }
  if (model != nullptr) {
    *model = std::move(extracted);
  }
  return true;
}

bool Solver::IsSatisfiable(const std::vector<ExprRef>& constraints, ExprRef extra,
                           Assignment* model) {
  ++stats_.queries;

  std::vector<ExprRef> sliced;
  if (extra != nullptr) {
    Slice(constraints, extra, &sliced);
    sliced.push_back(extra);
  }
  const std::vector<ExprRef>& query = extra != nullptr ? sliced : constraints;
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

  // Model-reuse fast path: consecutive queries on one path usually extend the
  // same constraint set, so the previous satisfying model often still works.
  // Evaluating is linear in expression size — far cheaper than bit-blasting.
  // Restricted to model-free queries (MayBe*/MustBe*) so callers that
  // concretize from the returned model see exactly the values a fresh SAT
  // solve would hand them.
  if (config_.enable_model_reuse && model == nullptr && have_last_model_) {
    bool all_true = true;
    for (ExprRef e : filtered) {
      if (!evaluator_.EvalBool(e, last_model_)) {
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

  // Query store: canonical-fingerprint lookup plus the counterexample fast
  // path. Answers only what it can prove locally (exact unsat, or a cached
  // model re-verified by the concrete evaluator); a model request is served
  // only a model that solving its key produced, else it solves.
  CanonicalQuery canonical;
  bool extra_at_back = extra != nullptr && filtered.back() == extra;
  bool stored_sat = false;
  if (StoreDecide(filtered, model, extra_at_back, &canonical, &stored_sat)) {
    return stored_sat;
  }

  Assignment local_model;
  bool unknown = false;
  bool sat = SolveExprs(filtered, &local_model, &unknown);
  if (!unknown) {
    // Publish the fresh verdict for later paths (and, through a shared
    // store, other passes/threads/runs); a sat one as a solved entry.
    Publish(canonical, sat ? &local_model : nullptr, /*solved=*/sat);
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
  std::vector<ExprRef> sliced;
  Slice(constraints, expr, &sliced);
  Assignment model;
  if (!IsSatisfiable(sliced, nullptr, &model)) {
    return std::nullopt;
  }
  return evaluator_.Eval(expr, model);
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
    std::vector<ExprRef> component;
    Slice(remaining, remaining[0], &component);
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
