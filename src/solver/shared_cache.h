// Process-wide shared solver query cache (KLEE-style counterexample cache).
//
// Every fault-campaign pass re-executes the same driver entry points under a
// slightly different fault schedule, so the sliced constraint sets the passes
// send to SAT are overwhelmingly identical — but each pass owns a private
// ExprContext, so the same logical query arrives with different ExprRef
// pointers and different variable ids. The per-solver cache (keyed on
// pointers) cannot see across passes; this layer can:
//
//   1. QueryCanonicalizer renders a sliced constraint set into a *canonical*
//      textual form that is independent of pointer identity and of the order
//      in which variable ids were handed out: every expression DAG is
//      serialized bottom-up with per-root node numbering, and variables are
//      renumbered v0, v1, ... in first-visit order over the constraint list.
//      Two passes (or two threads, or a run last week) that build the same
//      logical query get byte-identical canonical text — and its FNV-1a hash
//      is the cache fingerprint.
//
//   2. SharedQueryCache is a sharded, mutex-per-shard store from fingerprint
//      to {verdict, satisfying model over canonical variable ids}. Colliding
//      fingerprints chain within a bucket and are disambiguated by comparing
//      the full canonical text, so a hash collision can never return the
//      wrong verdict. Each shard is bounded (entries and bytes) with
//      LRU-ish eviction.
//
//   3. The store persists to a file of CRC-framed records
//      (src/support/record.h) — a version-tagged header naming the entry
//      count, then one record per entry — so a repeated or resumed campaign
//      warm-starts: load is all-or-nothing and best-effort (a missing,
//      truncated, corrupt, or version-mismatched file, or one whose counts
//      claim more than its bytes hold, is ignored and counted, never fatal),
//      save is atomic (tmp + rename) under a lock file.
//
// Determinism contract (the reason the integration in solver.cc is shaped
// the way it is): the shared cache may change *how fast* a verdict is found,
// never *which* verdict or which model the engine concretizes from. Cached
// models are only ever used after re-verification by the concrete evaluator,
// and only to answer verdict-only (MayBe*/MustBe*) queries; any caller that
// wants a model back always gets a fresh SAT solve. See DESIGN.md §7d.
#ifndef SRC_SOLVER_SHARED_CACHE_H_
#define SRC_SOLVER_SHARED_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/expr/expr.h"
#include "src/support/status.h"

namespace ddt {

// A constraint-set query in canonical form. `text` is the full serialized
// query (the collision-proof key); `fingerprint` is FNV-1a over `text`;
// `local_vars[i]` is the querying context's variable id for canonical
// variable vi (the remap table for models).
struct CanonicalQuery {
  std::string text;
  uint64_t fingerprint = 0;
  std::vector<uint32_t> local_vars;  // canonical id -> local var id
};

// A satisfying model expressed over canonical variable ids. Kept sorted by
// canonical id so serialized entries are stable.
using CanonicalModel = std::vector<std::pair<uint32_t, uint64_t>>;

// Renders constraint sets into canonical form. One instance per Solver (it
// memoizes per-root templates against that solver's ExprContext, so it is
// not thread-safe and must not outlive the context).
class QueryCanonicalizer {
 public:
  // Canonicalizes the conjunction of `exprs`. Order-sensitive by design: the
  // solver's sliced constraint lists are themselves deterministic (path
  // order), and preserving list order keeps canonical variable numbering
  // deterministic without inventing a tie-break over arbitrary structures.
  // Duplicate pointers are dropped (first occurrence wins).
  CanonicalQuery Canonicalize(const std::vector<ExprRef>& exprs);

  size_t memo_size() const { return templates_.size(); }

 private:
  // A root expression serialized with placeholder variables `@k` (k = index
  // into `vars`, the root's distinct variables in first-visit order). The
  // template depends only on structure, so it is valid for the lifetime of
  // the ExprRef and memoizable across queries.
  struct RootTemplate {
    std::string text;
    std::vector<uint32_t> vars;
  };

  const RootTemplate& TemplateFor(ExprRef root);

  std::unordered_map<ExprRef, RootTemplate> templates_;
};

struct SharedCacheConfig {
  size_t num_shards = 16;
  // Bounds are global; each shard enforces its 1/num_shards slice.
  uint64_t max_bytes = 64ull << 20;
  uint64_t max_entries = 1u << 20;
};

// Thread-safe verdict + counterexample store, shared by every solver in a
// campaign (all passes, all worker threads).
class SharedQueryCache {
 public:
  explicit SharedQueryCache(const SharedCacheConfig& config = SharedCacheConfig());

  struct LookupResult {
    bool hit = false;
    bool sat = false;
    CanonicalModel model;  // valid iff hit && sat
  };

  // Exact lookup by fingerprint + full canonical-text compare.
  LookupResult Lookup(const CanonicalQuery& query);

  // Stores a verdict (idempotent; an existing entry for the same text is
  // refreshed, not duplicated). `model` must be empty for unsat entries.
  void Store(const CanonicalQuery& query, bool sat, CanonicalModel model);

  // --- Persistence ---
  // Atomic save (tmp + rename) of every resident entry as CRC-framed,
  // version-tagged records. Returns an error only for I/O failures — callers treat
  // even that as a warning, never a campaign failure.
  Status SaveToFile(const std::string& path) const;
  // Best-effort warm start: loads entries from `path` into the store. A
  // missing file is silently fine; a truncated/corrupt/version-mismatched
  // file is ignored with stats().load_errors bumped. Returns the number of
  // entries loaded.
  size_t LoadFromFile(const std::string& path);

  struct Stats {
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
    uint64_t load_errors = 0;
    uint64_t loaded_entries = 0;
    uint64_t saved_entries = 0;
  };
  Stats stats() const;

  // On-disk format version; bumped whenever the canonical encoding or the
  // file layout changes so a stale cache can never be misread.
  static constexpr uint32_t kFormatVersion = 2;

 private:
  struct Entry {
    std::string text;  // full canonical key (collision disambiguation)
    bool sat = false;
    CanonicalModel model;
    uint64_t last_used = 0;  // shard tick, for LRU-ish eviction
    uint64_t bytes = 0;      // approximate footprint of this entry
  };

  struct Shard {
    mutable std::mutex mu;
    std::unordered_map<uint64_t, std::vector<Entry>> map;  // fingerprint -> chain
    uint64_t tick = 0;
    uint64_t entries = 0;
    uint64_t bytes = 0;
    uint64_t evictions = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    return *shards_[fingerprint % shards_.size()];
  }
  void EvictIfNeeded(Shard& shard);  // caller holds shard.mu

  SharedCacheConfig config_;
  std::vector<std::unique_ptr<Shard>> shards_;
  mutable std::mutex io_stats_mu_;
  uint64_t load_errors_ = 0;
  uint64_t loaded_entries_ = 0;
  mutable uint64_t saved_entries_ = 0;
};

}  // namespace ddt

#endif  // SRC_SOLVER_SHARED_CACHE_H_
