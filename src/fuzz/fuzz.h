// Hybrid concolic fuzzing loop (the src/fuzz subsystem's front door).
//
// DDT's symbolic campaign is exhaustive but solver-bound; its guided replay
// is solver-free but only retraces recorded paths. This loop welds the two
// into a concolic cycle:
//
//   1. Seed derivation — a symbolic pass with EngineConfig::max_path_seeds
//      asks the solver for a concrete model of each explored path and
//      packages it as a replayable FuzzInput (registry values, OID payloads,
//      packet bytes, entry arguments, interrupt timing, fault schedules).
//   2. Concrete execution — mutants replay down the pure fast path (guided
//      mode, block cache; the solver is never invoked), with every checker
//      live, so a crashing mutant yields a full evidence file that replays
//      like any campaign bug.
//   3. Coverage-novelty corpus — an executed input is kept iff it covers a
//      basic block the corpus has not (CoverageBitmap novelty against the
//      block-leader map), persisted CRC-sealed in the journal style.
//   4. Promotion — the most novel corpus entries return to the symbolic
//      engine as concretization hints (EngineConfig::concretization_hints),
//      steering a follow-up symbolic pass toward territory the exhaustive
//      campaign dropped at its fork caps.
//
// Determinism contract: for a fixed --fuzz-seed the mutation streams are
// SplitMix64 functions of (seed, batch, exec); execution results merge in
// exec-index order; so the corpus, its fingerprint, the fuzz bug set, and the
// deterministic report are byte-identical at any thread count and any worker
// count — the same contract the campaign supervisor gives, extended to the
// fuzz plane. A resumed run continues the persisted corpus from its batch
// cursor: completed batches never re-execute, and their tallies and bugs
// come back from the corpus file, so the resumed report is byte-identical to
// an uninterrupted run's. With fuzzing off the campaign report is untouched,
// byte for byte.
#ifndef SRC_FUZZ_FUZZ_H_
#define SRC_FUZZ_FUZZ_H_

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/ddt.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/vm/coverage_map.h"

namespace ddt {
namespace fuzz {

struct FuzzConfig {
  // Root of every mutation stream; the corpus file is bound to it.
  uint64_t seed = 0xF0221;
  // Batch 0 replays the solver-derived seeds; later batches mutate corpus
  // entries. The corpus is checkpointed after every batch.
  uint32_t batches = 4;
  uint32_t execs_per_batch = 32;
  // Cap on solver models derived by the seed pass (EngineConfig::max_path_seeds).
  uint32_t max_seeds = 16;
  // Corpus admission stops at this many entries.
  size_t max_corpus = 256;
  // On-disk corpus (empty = in-memory only). With resume, completed batches
  // load from it and only missing batches execute.
  std::string corpus_path;
  bool resume = false;
  // Promotion channel: feed the most coverage-novel corpus entries back to
  // symbolic exploration as concretization hints.
  bool promote = true;
  uint32_t max_promotions = 2;
  // Fork-isolated shard workers for the concrete executions (fleet-style
  // kFuzzExec frames; a dead worker's execs are salvaged inline). 0 = run
  // in-process on campaign.threads.
  uint32_t workers = 0;
};

struct FuzzCampaignConfig {
  FaultCampaignConfig campaign;
  FuzzConfig fuzz;
  // Optional phase-1 override (the CLI uses it to run the campaign through
  // the process fleet). Null = RunFaultCampaign in-process.
  std::function<Result<FaultCampaignResult>()> run_campaign;
};

struct FuzzCampaignResult {
  FaultCampaignResult campaign;
  // The fuzz knobs this result was produced with (the report header prints
  // the seed/batch shape; worker and thread counts deliberately excluded).
  FuzzConfig fuzz_config;
  // Bugs only the fuzz plane found (deduplicated against the campaign's and
  // each other by the campaign's identity key). Round-tripped through bug_io,
  // so they are process-independent — no keepalive needed.
  std::vector<Bug> fuzz_bugs;
  // Which fuzz input exposed each bug, parallel to fuzz_bugs ("seed#3",
  // "fuzz b2#17", "promotion#0").
  std::vector<std::string> fuzz_bug_origins;

  uint64_t seeds_derived = 0;
  uint64_t execs = 0;
  uint64_t quarantined_execs = 0;
  uint64_t corpus_entries = 0;
  uint64_t corpus_blocks = 0;       // cumulative corpus coverage popcount
  uint64_t corpus_fingerprint = 0;  // cumulative bitmap FNV fingerprint
  // Blocks the corpus covers that the seed pass's symbolic exploration did
  // not reach — what mutation alone bought.
  uint64_t novel_blocks = 0;
  std::array<uint64_t, kNumMutatorKinds> mutations{};

  uint64_t promotions = 0;
  // Blocks the promoted symbolic passes covered beyond seed-pass coverage
  // plus the whole corpus (worker/thread independent by construction).
  uint64_t promotion_novel_blocks = 0;
  // Union of the promoted passes' coverage (for tests comparing against an
  // exhaustive campaign's own coverage).
  CoverageBitmap promotion_coverage;

  // Volatile (never in the deterministic report). fuzz_wall_ms times the
  // batch loop (step 3) alone, so execs_per_sec is the loop's own rate.
  double fuzz_wall_ms = 0;
  double execs_per_sec = 0;
  uint64_t fuzz_workers_spawned = 0;
  uint64_t fuzz_workers_lost = 0;
  uint64_t fuzz_execs_salvaged = 0;
  uint64_t corpus_load_errors = 0;

  // Campaign report plus a "--- fuzz ---" section; same volatility split as
  // FaultCampaignResult::FormatReport.
  std::string FormatReport(const std::string& driver_name, bool include_volatile = true) const;
};

// The corpus-file binding: campaign fingerprint (config + driver image) mixed
// with the fuzz seed.
uint64_t FuzzFingerprint(const FuzzCampaignConfig& config, const DriverImage& image);

// Runs campaign + fuzz loop + promotion. Deterministic in (config, driver).
Result<FuzzCampaignResult> RunFuzzCampaign(const FuzzCampaignConfig& config,
                                           const DriverImage& image,
                                           const PciDescriptor& descriptor);

}  // namespace fuzz
}  // namespace ddt

#endif  // SRC_FUZZ_FUZZ_H_
