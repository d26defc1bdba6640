// Tests for the cross-pass shared solver cache (src/solver/shared_cache):
// canonical query fingerprints (pointer- and var-id-independent), the
// sharded collision-safe store, on-disk persistence, solver integration
// (verdict hits, the counterexample fast path, model-path determinism), and
// the campaign-level contract that the deterministic report is byte-identical
// shared cache off vs cold vs warm-from-disk at any thread count.
#include "src/solver/shared_cache.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/expr/eval.h"
#include "src/solver/solver.h"
#include "src/support/record.h"
#include "src/support/subprocess.h"

namespace ddt {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "ddt_shared_cache_" + name;
}

// --- Canonicalization -------------------------------------------------------

TEST(CanonicalizerTest, SameQueryInDifferentContextsFingerprintsIdentically) {
  // Context 1: variables created in one order.
  ExprContext ctx1;
  ExprRef a1 = ctx1.Var(32, "a");
  ExprRef b1 = ctx1.Var(32, "b");
  std::vector<ExprRef> q1 = {ctx1.Eq(ctx1.Add(a1, b1), ctx1.Const(5, 32)),
                             ctx1.Ult(a1, ctx1.Const(10, 32))};

  // Context 2: junk interning first, then the variables in the *opposite*
  // creation order, so both the pointers and the variable ids differ.
  ExprContext ctx2;
  ctx2.Var(8, "junk0");
  ctx2.Const(0xDEAD, 32);
  ExprRef b2 = ctx2.Var(32, "bee");
  ExprRef a2 = ctx2.Var(32, "ay");
  ctx2.Mul(a2, b2);  // unrelated construction shifts intern order too
  std::vector<ExprRef> q2 = {ctx2.Eq(ctx2.Add(a2, b2), ctx2.Const(5, 32)),
                             ctx2.Ult(a2, ctx2.Const(10, 32))};

  QueryCanonicalizer canon1;
  QueryCanonicalizer canon2;
  CanonicalQuery c1 = canon1.Canonicalize(q1);
  CanonicalQuery c2 = canon2.Canonicalize(q2);
  EXPECT_EQ(c1.text, c2.text);
  EXPECT_EQ(c1.fingerprint, c2.fingerprint);
  // The remap tables point back at each context's own variable ids, in the
  // same canonical (first-visit) order.
  ASSERT_EQ(c1.local_vars.size(), 2u);
  ASSERT_EQ(c2.local_vars.size(), 2u);
  EXPECT_EQ(c1.local_vars[0], a1->var_id());
  EXPECT_EQ(c1.local_vars[1], b1->var_id());
  EXPECT_EQ(c2.local_vars[0], a2->var_id());
  EXPECT_EQ(c2.local_vars[1], b2->var_id());
}

TEST(CanonicalizerTest, StructurallyDifferentQueriesDiffer) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  QueryCanonicalizer canon;
  CanonicalQuery ult = canon.Canonicalize({ctx.Ult(x, ctx.Const(10, 32))});
  CanonicalQuery ule = canon.Canonicalize({ctx.Ule(x, ctx.Const(10, 32))});
  CanonicalQuery other_const = canon.Canonicalize({ctx.Ult(x, ctx.Const(11, 32))});
  EXPECT_NE(ult.text, ule.text);
  EXPECT_NE(ult.fingerprint, ule.fingerprint);
  EXPECT_NE(ult.text, other_const.text);
}

TEST(CanonicalizerTest, ConstraintListOrderMattersButDuplicatesDrop) {
  // List order drives canonical variable numbering, so it is part of the
  // key; duplicate pointers collapse to the first occurrence.
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef c1 = ctx.Ult(x, ctx.Const(10, 32));
  ExprRef c2 = ctx.Ult(ctx.Const(2, 32), x);
  QueryCanonicalizer canon;
  CanonicalQuery with_dup = canon.Canonicalize({c1, c2, c1});
  CanonicalQuery without = canon.Canonicalize({c1, c2});
  EXPECT_EQ(with_dup.text, without.text);
}

TEST(CanonicalizerTest, VariableNamesDoNotAffectTheFingerprint) {
  ExprContext ctx1;
  ExprContext ctx2;
  ExprRef x = ctx1.Var(32, "hardware_read_0");
  ExprRef y = ctx2.Var(32, "registry:NetworkAddress");
  QueryCanonicalizer canon1;
  QueryCanonicalizer canon2;
  EXPECT_EQ(canon1.Canonicalize({ctx1.Eq(x, ctx1.Const(7, 32))}).fingerprint,
            canon2.Canonicalize({ctx2.Eq(y, ctx2.Const(7, 32))}).fingerprint);
}

// --- Store: collision safety, eviction --------------------------------------

TEST(SharedQueryCacheTest, CollidingFingerprintsAreDisambiguatedByFullKey) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  QueryCanonicalizer canon;
  CanonicalQuery sat_query = canon.Canonicalize({ctx.Eq(x, ctx.Const(1, 32))});
  CanonicalQuery unsat_query = canon.Canonicalize(
      {ctx.Eq(x, ctx.Const(1, 32)), ctx.Eq(x, ctx.Const(2, 32))});
  ASSERT_NE(sat_query.text, unsat_query.text);
  // Force the collision the FNV hash makes astronomically unlikely.
  sat_query.fingerprint = 42;
  unsat_query.fingerprint = 42;

  SharedQueryCache cache;
  cache.Store(sat_query, true, {{0, 1}});
  cache.Store(unsat_query, false, {});

  SharedQueryCache::LookupResult r1 = cache.Lookup(sat_query);
  ASSERT_TRUE(r1.hit);
  EXPECT_TRUE(r1.sat);
  ASSERT_EQ(r1.model.size(), 1u);
  EXPECT_EQ(r1.model[0].second, 1u);

  SharedQueryCache::LookupResult r2 = cache.Lookup(unsat_query);
  ASSERT_TRUE(r2.hit);
  EXPECT_FALSE(r2.sat);
}

TEST(SharedQueryCacheTest, EvictionKeepsTheStoreBounded) {
  SharedCacheConfig config;
  config.num_shards = 1;  // deterministic bound accounting
  config.max_entries = 4;
  SharedQueryCache cache(config);

  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  QueryCanonicalizer canon;
  for (uint64_t i = 0; i < 10; ++i) {
    CanonicalQuery q = canon.Canonicalize({ctx.Eq(x, ctx.Const(i, 32))});
    cache.Store(q, true, {{0, i}});
  }
  SharedQueryCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 4u);
  EXPECT_EQ(stats.evictions, 6u);
  // The most recently stored entry survived; the first did not.
  CanonicalQuery newest = canon.Canonicalize({ctx.Eq(x, ctx.Const(9ull, 32))});
  CanonicalQuery oldest = canon.Canonicalize({ctx.Eq(x, ctx.Const(0ull, 32))});
  EXPECT_TRUE(cache.Lookup(newest).hit);
  EXPECT_FALSE(cache.Lookup(oldest).hit);
}

// --- Persistence -------------------------------------------------------------

TEST(SharedQueryCacheTest, SaveLoadRoundTrip) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  QueryCanonicalizer canon;
  CanonicalQuery sat_query = canon.Canonicalize({ctx.Eq(x, ctx.Const(3, 32))});
  CanonicalQuery unsat_query = canon.Canonicalize(
      {ctx.Eq(x, ctx.Const(3, 32)), ctx.Eq(x, ctx.Const(4, 32))});

  std::string path = TempPath("roundtrip.bin");
  {
    SharedQueryCache cache;
    cache.Store(sat_query, true, {{0, 3}});
    cache.Store(unsat_query, false, {});
    Status saved = cache.SaveToFile(path);
    ASSERT_TRUE(saved.ok()) << saved.message();
    EXPECT_EQ(cache.stats().saved_entries, 2u);
  }
  SharedQueryCache reloaded;
  EXPECT_EQ(reloaded.LoadFromFile(path), 2u);
  EXPECT_EQ(reloaded.stats().loaded_entries, 2u);
  EXPECT_EQ(reloaded.stats().load_errors, 0u);

  SharedQueryCache::LookupResult r1 = reloaded.Lookup(sat_query);
  ASSERT_TRUE(r1.hit);
  EXPECT_TRUE(r1.sat);
  ASSERT_EQ(r1.model.size(), 1u);
  EXPECT_EQ(r1.model[0].first, 0u);
  EXPECT_EQ(r1.model[0].second, 3u);
  SharedQueryCache::LookupResult r2 = reloaded.Lookup(unsat_query);
  ASSERT_TRUE(r2.hit);
  EXPECT_FALSE(r2.sat);
  std::remove(path.c_str());
}

TEST(SharedQueryCacheTest, ConcurrentForkedWritersElectOneAndNeverTearTheFile) {
  // Two processes hammering SaveToFile on the same path share the same tmp
  // file; without the flock election one writer can rename the other's
  // half-written bytes into place. Each writer saves a differently-sized
  // cache many times — afterwards the file must parse cleanly and hold
  // exactly one writer's complete entry set, never a blend or a torn tail.
  std::string path = TempPath("elected.bin");
  std::remove(path.c_str());
  constexpr int kRounds = 40;
  auto writer_main = [&path](size_t entries) -> int {
    ExprContext ctx;
    ExprRef x = ctx.Var(32, "x");
    QueryCanonicalizer canon;
    SharedQueryCache cache;
    for (uint64_t i = 0; i < entries; ++i) {
      cache.Store(canon.Canonicalize({ctx.Eq(x, ctx.Const(i, 32))}), true, {{0, i}});
    }
    for (int round = 0; round < kRounds; ++round) {
      if (!cache.SaveToFile(path).ok()) {
        return 1;
      }
    }
    return 0;
  };
  Result<ChildProcess> a = SpawnChild([&](int, int) { return writer_main(7); });
  Result<ChildProcess> b = SpawnChild([&](int, int) { return writer_main(13); });
  ASSERT_TRUE(a.ok()) << a.status().message();
  ASSERT_TRUE(b.ok()) << b.status().message();
  for (ChildProcess* child : {&a.value(), &b.value()}) {
    int status = 0;
    while (!TryReap(child->pid, &status)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << DescribeExit(status);
    child->CloseFds();
  }

  SharedQueryCache loaded;
  size_t n = loaded.LoadFromFile(path);
  EXPECT_EQ(loaded.stats().load_errors, 0u);
  EXPECT_TRUE(n == 7u || n == 13u) << "blended or torn save: " << n << " entries";
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
}

TEST(SharedQueryCacheTest, MissingFileIsSilentlyCold) {
  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(TempPath("never_written.bin")), 0u);
  EXPECT_EQ(cache.stats().load_errors, 0u);
}

// Helper: save a small cache and return the file bytes.
std::string SavedCacheBytes(const std::string& path) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  QueryCanonicalizer canon;
  SharedQueryCache cache;
  for (uint64_t i = 0; i < 5; ++i) {
    cache.Store(canon.Canonicalize({ctx.Eq(x, ctx.Const(i, 32))}), true, {{0, i}});
  }
  Status saved = cache.SaveToFile(path);
  EXPECT_TRUE(saved.ok()) << saved.message();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  std::string bytes;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.append(buf, n);
  }
  std::fclose(f);
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

TEST(SharedQueryCacheTest, TruncatedFileIsIgnoredWithCounter) {
  std::string path = TempPath("truncated.bin");
  std::string bytes = SavedCacheBytes(path);
  ASSERT_GT(bytes.size(), 16u);
  WriteBytes(path, bytes.substr(0, bytes.size() - 9));

  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

TEST(SharedQueryCacheTest, CorruptPayloadIsIgnoredWithCounter) {
  std::string path = TempPath("corrupt.bin");
  std::string bytes = SavedCacheBytes(path);
  bytes[bytes.size() / 2] ^= 0x5A;  // flip a payload byte under the CRC
  WriteBytes(path, bytes);

  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  std::remove(path.c_str());
}

TEST(SharedQueryCacheTest, VersionMismatchIsRejectedCleanly) {
  std::string path = TempPath("version.bin");
  std::string bytes = SavedCacheBytes(path);
  // Re-seal the header record with the next version, so the file is intact
  // and only its version is wrong. Header payload: [u32 6]["DDTSQC"][u32 version]...
  size_t pos = 0;
  std::string_view header_view;
  ASSERT_EQ(ReadRecord(bytes, &pos, &header_view), RecordRead::kRecord);
  std::string header(header_view);
  header[10] = static_cast<char>(SharedQueryCache::kFormatVersion + 1);  // LSB of the version
  std::string resealed;
  ASSERT_TRUE(AppendRecord(&resealed, header).ok());
  WriteBytes(path, resealed + bytes.substr(pos));

  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  std::remove(path.c_str());
}

std::string FromHex(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
}

// A damaged or crafted warm-start file is "ignored and counted, never
// fatal" — even one whose element count claims four billion model pairs.
TEST(SharedQueryCacheTest, LyingModelCountIsRejectedNotAllocated) {
  std::string path = TempPath("lying_count.bin");
  // A file in the earlier magic + CRC-footer layout, valid CRC, whose one sat
  // entry claims 0xFFFFFFFF model pairs.
  WriteBytes(path, FromHex("444454535143010000000100000000000000010100000078ffffffff3c8de967"));
  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 1u);

  // The same lie in intact records of the current layout.
  ByteWriter header;
  header.Str("DDTSQC");
  header.U32(SharedQueryCache::kFormatVersion);
  header.U64(1);
  ByteWriter entry;
  entry.U8(1);
  entry.Str("x");
  entry.U32(0xFFFFFFFFu);
  std::string file;
  ASSERT_TRUE(AppendRecord(&file, header.bytes()).ok());
  ASSERT_TRUE(AppendRecord(&file, entry.bytes()).ok());
  WriteBytes(path, file);
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 2u);
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

// A file saved by a build before the record layout (its bytes, verbatim) is
// refused cleanly, not misread.
TEST(SharedQueryCacheTest, RefusesAFileInTheEarlierLayout) {
  std::string path = TempPath("earlier_layout.bin");
  WriteBytes(path, FromHex("4444545351430100000001000000000000000120000000230a74303d63383a330a"
                           "74313d76303a380a74323d4571312874302c7431290a0100000000000000030000"
                           "00000000000a477ab5"));
  SharedQueryCache cache;
  EXPECT_EQ(cache.LoadFromFile(path), 0u);
  EXPECT_EQ(cache.stats().load_errors, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
  std::remove(path.c_str());
}

// --- Solver integration -----------------------------------------------------

SolverConfig SharedConfig(SharedQueryCache* cache) {
  SolverConfig config;
  config.shared_cache = cache;
  return config;
}

TEST(SolverSharedCacheTest, VerdictHitsAcrossContextsWithoutSatCalls) {
  SharedQueryCache cache;

  ExprContext ctx1;
  Solver s1(&ctx1, SharedConfig(&cache));
  ExprRef x1 = ctx1.Var(32, "x");
  std::vector<ExprRef> cons1 = {ctx1.Ult(x1, ctx1.Const(10, 32))};
  EXPECT_TRUE(s1.MayBeTrue(cons1, ctx1.Eq(x1, ctx1.Const(3, 32))));
  EXPECT_EQ(s1.stats().sat_calls, 1u);
  EXPECT_EQ(s1.stats().shared_cache_stores, 1u);

  // Same logical query from a different context with shifted variable ids:
  // answered from the shared cache, no SAT call, model re-verified.
  ExprContext ctx2;
  ctx2.Var(16, "padding");
  Solver s2(&ctx2, SharedConfig(&cache));
  ExprRef x2 = ctx2.Var(32, "y");
  std::vector<ExprRef> cons2 = {ctx2.Ult(x2, ctx2.Const(10, 32))};
  EXPECT_TRUE(s2.MayBeTrue(cons2, ctx2.Eq(x2, ctx2.Const(3, 32))));
  EXPECT_EQ(s2.stats().sat_calls, 0u);
  EXPECT_EQ(s2.stats().shared_cache_hits, 1u);
  EXPECT_EQ(s2.stats().shared_cache_verify_failures, 0u);
}

TEST(SolverSharedCacheTest, UnsatPropagatesAcrossContexts) {
  SharedQueryCache cache;

  ExprContext ctx1;
  Solver s1(&ctx1, SharedConfig(&cache));
  ExprRef x1 = ctx1.Var(32, "x");
  std::vector<ExprRef> cons1 = {ctx1.Ult(x1, ctx1.Const(3, 32))};
  EXPECT_FALSE(s1.MayBeTrue(cons1, ctx1.Eq(x1, ctx1.Const(7, 32))));
  ASSERT_GE(s1.stats().sat_calls, 1u);

  ExprContext ctx2;
  Solver s2(&ctx2, SharedConfig(&cache));
  ExprRef x2 = ctx2.Var(32, "x");
  std::vector<ExprRef> cons2 = {ctx2.Ult(x2, ctx2.Const(3, 32))};
  EXPECT_FALSE(s2.MayBeTrue(cons2, ctx2.Eq(x2, ctx2.Const(7, 32))));
  EXPECT_EQ(s2.stats().sat_calls, 0u);
  EXPECT_EQ(s2.stats().shared_cache_hits, 1u);
}

TEST(SolverSharedCacheTest, ModelRequestsAlwaysSolveFreshAndMatchCacheOff) {
  // Warm the shared cache with a verdict + model from one context.
  SharedQueryCache cache;
  ExprContext ctx1;
  Solver s1(&ctx1, SharedConfig(&cache));
  ExprRef x1 = ctx1.Var(32, "x");
  std::vector<ExprRef> cons1 = {ctx1.Ult(x1, ctx1.Const(100, 32)),
                                ctx1.Ult(ctx1.Const(10, 32), x1)};
  EXPECT_TRUE(s1.IsSatisfiable(cons1, nullptr));

  // A model-requesting query against the warm cache must not be served the
  // cached model: it solves fresh, so its model is identical to what a
  // cache-off solver produces for the same query.
  ExprContext ctx2;
  Solver warm(&ctx2, SharedConfig(&cache));
  ExprRef x2 = ctx2.Var(32, "x");
  std::vector<ExprRef> cons2 = {ctx2.Ult(x2, ctx2.Const(100, 32)),
                                ctx2.Ult(ctx2.Const(10, 32), x2)};
  Assignment warm_model;
  EXPECT_TRUE(warm.IsSatisfiable(cons2, nullptr, &warm_model));
  EXPECT_EQ(warm.stats().sat_calls, 1u) << "cached model must not be served to model requests";

  ExprContext ctx3;
  Solver off(&ctx3, SolverConfig());
  ExprRef x3 = ctx3.Var(32, "x");
  std::vector<ExprRef> cons3 = {ctx3.Ult(x3, ctx3.Const(100, 32)),
                                ctx3.Ult(ctx3.Const(10, 32), x3)};
  Assignment off_model;
  EXPECT_TRUE(off.IsSatisfiable(cons3, nullptr, &off_model));
  EXPECT_EQ(warm_model.Get(x2->var_id()), off_model.Get(x3->var_id()))
      << "shared cache changed the concretization value";
}

TEST(SolverSharedCacheTest, CounterexampleFastPathServesSupersets) {
  SharedQueryCache cache;

  // Context 1 answers the prefix {x == 3} and caches its model.
  ExprContext ctx1;
  Solver s1(&ctx1, SharedConfig(&cache));
  ExprRef x1 = ctx1.Var(32, "x");
  std::vector<ExprRef> prefix1 = {ctx1.Eq(x1, ctx1.Const(3, 32))};
  EXPECT_TRUE(s1.IsSatisfiable(prefix1, nullptr));

  // Context 2 asks {x == 3} AND x < 10 — an exact miss, but the cached
  // prefix model (x = 3) satisfies the superset, so no SAT call is needed.
  ExprContext ctx2;
  SolverConfig config2 = SharedConfig(&cache);
  config2.enable_model_reuse = false;  // isolate the shared-cache fast path
  Solver s2(&ctx2, config2);
  ExprRef x2 = ctx2.Var(32, "x");
  std::vector<ExprRef> prefix2 = {ctx2.Eq(x2, ctx2.Const(3, 32))};
  EXPECT_TRUE(s2.MayBeTrue(prefix2, ctx2.Ult(x2, ctx2.Const(10, 32))));
  EXPECT_EQ(s2.stats().sat_calls, 0u);
  EXPECT_EQ(s2.stats().shared_cache_fastpath_hits, 1u);

  // The fast path promoted the superset to an exact entry: a third context
  // hits it directly.
  ExprContext ctx3;
  SolverConfig config3 = SharedConfig(&cache);
  config3.enable_model_reuse = false;
  Solver s3(&ctx3, config3);
  ExprRef x3 = ctx3.Var(32, "x");
  std::vector<ExprRef> prefix3 = {ctx3.Eq(x3, ctx3.Const(3, 32))};
  EXPECT_TRUE(s3.MayBeTrue(prefix3, ctx3.Ult(x3, ctx3.Const(10, 32))));
  EXPECT_EQ(s3.stats().sat_calls, 0u);
  EXPECT_EQ(s3.stats().shared_cache_hits, 1u);
}

TEST(SolverSharedCacheTest, UnsatPrefixDecidesSupersetViaFastPath) {
  SharedQueryCache cache;

  ExprContext ctx1;
  Solver s1(&ctx1, SharedConfig(&cache));
  ExprRef x1 = ctx1.Var(32, "x");
  std::vector<ExprRef> unsat_prefix1 = {ctx1.Eq(x1, ctx1.Const(1, 32)),
                                        ctx1.Eq(x1, ctx1.Const(2, 32))};
  EXPECT_FALSE(s1.IsSatisfiable(unsat_prefix1, nullptr));

  ExprContext ctx2;
  Solver s2(&ctx2, SharedConfig(&cache));
  ExprRef x2 = ctx2.Var(32, "x");
  std::vector<ExprRef> unsat_prefix2 = {ctx2.Eq(x2, ctx2.Const(1, 32)),
                                        ctx2.Eq(x2, ctx2.Const(2, 32))};
  EXPECT_FALSE(s2.MayBeTrue(unsat_prefix2, ctx2.Ult(x2, ctx2.Const(50, 32))));
  EXPECT_EQ(s2.stats().sat_calls, 0u);
  EXPECT_EQ(s2.stats().shared_cache_fastpath_hits, 1u);
}

TEST(SolverSharedCacheTest, BogusCachedModelFailsVerificationAndFallsBackToSat) {
  // Poison the cache with a wrong model for a satisfiable query (simulating
  // a stale or foreign disk entry). The solver must reject it on concrete
  // re-verification and still produce the correct verdict via SAT.
  SharedQueryCache cache;
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef eq = ctx.Eq(x, ctx.Const(3, 32));
  QueryCanonicalizer canon;
  CanonicalQuery q = canon.Canonicalize({eq});
  cache.Store(q, true, {{0, 999}});  // x = 999 does not satisfy x == 3

  Solver solver(&ctx, SharedConfig(&cache));
  EXPECT_TRUE(solver.MayBeTrue({}, eq));
  EXPECT_EQ(solver.stats().shared_cache_verify_failures, 1u);
  EXPECT_EQ(solver.stats().shared_cache_hits, 0u);
  EXPECT_EQ(solver.stats().sat_calls, 1u);
}

TEST(SolverSharedCacheTest, ForcedCollisionsStillYieldCorrectVerdicts) {
  // With every fingerprint collapsed to one value, both the shared cache and
  // the per-solver cache must disambiguate by full key.
  SharedQueryCache cache;
  ExprContext ctx;
  SolverConfig config = SharedConfig(&cache);
  config.testing_collide_cache_keys = true;
  Solver solver(&ctx, config);
  ExprRef x = ctx.Var(32, "x");
  ExprRef sat_cond = ctx.Eq(x, ctx.Const(1, 32));
  std::vector<ExprRef> pin = {ctx.Eq(x, ctx.Const(1, 32))};
  ExprRef contradiction = ctx.Eq(x, ctx.Const(2, 32));

  EXPECT_TRUE(solver.MayBeTrue({}, sat_cond));
  EXPECT_FALSE(solver.MayBeTrue(pin, contradiction));
  // Repeat both: served by (collision-chained) caches, verdicts unchanged.
  EXPECT_TRUE(solver.MayBeTrue({}, sat_cond));
  EXPECT_FALSE(solver.MayBeTrue(pin, contradiction));
}

// --- Concurrency (exercised under TSan in CI) -------------------------------

TEST(SharedQueryCacheTest, ConcurrentStoreLookupSaveIsSafe) {
  SharedCacheConfig config;
  config.max_entries = 64;  // force concurrent eviction too
  SharedQueryCache cache(config);
  std::string path = TempPath("concurrent.bin");

  auto worker = [&cache](unsigned seed) {
    ExprContext ctx;
    ExprRef x = ctx.Var(32, "x");
    QueryCanonicalizer canon;
    for (uint64_t i = 0; i < 200; ++i) {
      uint64_t value = (i + seed) % 100;  // overlapping canonical queries
      CanonicalQuery q = canon.Canonicalize({ctx.Eq(x, ctx.Const(value, 32))});
      if (i % 3 == 0) {
        cache.Store(q, true, {{0, value}});
      } else {
        SharedQueryCache::LookupResult r = cache.Lookup(q);
        if (r.hit) {
          ASSERT_TRUE(r.sat);
          ASSERT_EQ(r.model.size(), 1u);
          ASSERT_EQ(r.model[0].second, value);
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < 4; ++t) {
    threads.emplace_back(worker, t * 17);
  }
  for (int i = 0; i < 5; ++i) {
    (void)cache.stats();
    (void)cache.SaveToFile(path);
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::remove(path.c_str());
}

// --- Campaign-level determinism and warm start ------------------------------

FaultCampaignConfig QuickCampaign() {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.base.engine.max_states = 512;
  config.max_passes = 8;
  config.max_occurrences_per_class = 3;
  config.escalation_rounds = 0;
  return config;
}

TEST(SharedCacheCampaignTest, DeterministicReportIdenticalOffColdWarmAtAnyThreadCount) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");

  auto run = [&driver](bool shared, const std::string& path, uint32_t threads,
                       FaultCampaignResult* out_result) {
    FaultCampaignConfig config = QuickCampaign();
    config.threads = threads;
    config.shared_cache = shared;
    config.shared_cache_path = path;
    Result<FaultCampaignResult> result = RunFaultCampaign(config, driver.image, driver.pci);
    EXPECT_TRUE(result.ok()) << result.status().message();
    if (!result.ok()) {
      return std::string();
    }
    std::string report = result.value().FormatReport(driver.name, /*include_volatile=*/false);
    if (out_result != nullptr) {
      *out_result = std::move(result.value());
    }
    return report;
  };

  std::string cache_path = TempPath("campaign.bin");
  std::remove(cache_path.c_str());

  FaultCampaignResult cold_result;
  FaultCampaignResult warm_result;
  std::string off = run(false, "", 1, nullptr);
  std::string cold = run(true, cache_path, 1, &cold_result);
  std::string warm = run(true, cache_path, 1, &warm_result);
  std::string cold4 = run(true, TempPath("campaign4.bin"), 4, nullptr);
  std::string warm4 = run(true, cache_path, 4, nullptr);

  ASSERT_FALSE(off.empty());
  EXPECT_EQ(off, cold) << "cold shared cache changed the deterministic report";
  EXPECT_EQ(off, warm) << "warm shared cache changed the deterministic report";
  EXPECT_EQ(off, cold4) << "cold shared cache at 4 threads changed the deterministic report";
  EXPECT_EQ(off, warm4) << "warm shared cache at 4 threads changed the deterministic report";

  // The cold run actually populated and persisted the cache...
  EXPECT_TRUE(cold_result.shared_cache_used);
  EXPECT_GT(cold_result.total_solver_stats.shared_cache_stores, 0u);
  EXPECT_GT(cold_result.shared_cache_saved_entries, 0u);
  // ...and the warm run actually loaded and hit it.
  EXPECT_GT(warm_result.shared_cache_loaded_entries, 0u);
  EXPECT_GT(warm_result.total_solver_stats.shared_cache_hits +
                warm_result.total_solver_stats.shared_cache_fastpath_hits,
            0u);

  // Cached models never reach the engine unverified, and the bug sets match.
  EXPECT_EQ(cold_result.bugs.size(), warm_result.bugs.size());

  std::remove(cache_path.c_str());
  std::remove(TempPath("campaign4.bin").c_str());
}

TEST(SharedCacheCampaignTest, MetricsAndVolatileReportExposeTheCache) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = QuickCampaign();
  config.threads = 1;
  config.shared_cache = true;
  config.collect_metrics = true;
  Result<FaultCampaignResult> result = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();

  const FaultCampaignResult& r = result.value();
  EXPECT_TRUE(r.shared_cache_used);
  // solver.shared_cache.* metrics are exported (per-pass counters from the
  // engine, store-level instruments from the campaign).
  EXPECT_GT(r.metrics.counters.count("solver.shared_cache.misses"), 0u);
  EXPECT_GT(r.metrics.counters.count("solver.shared_cache.stores"), 0u);
  EXPECT_GT(r.metrics.gauges.count("solver.shared_cache.entries"), 0u);

  std::string volatile_report = r.FormatReport(driver.name, /*include_volatile=*/true);
  EXPECT_NE(volatile_report.find("shared cache:"), std::string::npos) << volatile_report;
  std::string deterministic = r.FormatReport(driver.name, /*include_volatile=*/false);
  EXPECT_EQ(deterministic.find("shared cache"), std::string::npos)
      << "cache-temperature-dependent line leaked into the deterministic report";
}

}  // namespace
}  // namespace ddt
