#include "src/fuzz/fuzz.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <set>

#include "src/core/bug_io.h"
#include "src/core/campaign_exec.h"
#include "src/fleet/wire.h"
#include "src/fuzz/executor.h"
#include "src/support/check.h"
#include "src/support/record.h"
#include "src/support/strings.h"
#include "src/support/subprocess.h"
#include "src/support/thread_pool.h"

namespace ddt {
namespace fuzz {

namespace {

// In-process execution: campaign.threads semantics (0 = one per hardware
// thread, 1 = inline). Results land in exec-index slots, so the merge order
// downstream is independent of completion order.
std::vector<FuzzExecResult> ExecuteBatchThreads(const FuzzExecutor& executor,
                                                const std::vector<FuzzInput>& inputs,
                                                uint32_t threads) {
  std::vector<FuzzExecResult> results(inputs.size());
  size_t n = threads == 0 ? ThreadPool::HardwareThreads() : threads;
  n = std::min(n, inputs.size());
  if (n <= 1) {
    for (size_t i = 0; i < inputs.size(); ++i) {
      results[i] = executor.Execute(inputs[i]);
    }
    return results;
  }
  ThreadPool pool(n);
  for (size_t i = 0; i < inputs.size(); ++i) {
    pool.Submit([&executor, &inputs, &results, i] { results[i] = executor.Execute(inputs[i]); });
  }
  pool.Wait();
  // Execute() catches everything itself; the pool's capture is the backstop.
  // A slot a crashed task never filled stays !ok and quarantines below.
  pool.TakeExceptions();
  return results;
}

// Child side of a fuzz shard: lease in, result out, BYE ends the loop. Any
// protocol error exits nonzero; the coordinator salvages the shard inline.
int FuzzWorkerMain(const FuzzExecutor& executor, int in_fd, int out_fd) {
  fleet::FrameReader frames(in_fd);
  for (;;) {
    Result<fleet::Frame> frame = frames.Next();
    if (!frame.ok()) {
      return 2;
    }
    if (frame.value().type == fleet::FrameType::kBye) {
      return 0;
    }
    if (frame.value().type != fleet::FrameType::kFuzzExec) {
      return 2;
    }
    fleet::FuzzExecLease lease;
    if (!fleet::DecodeFuzzExecLease(frame.value().body, &lease)) {
      return 2;
    }
    fleet::FuzzExecResultBody body;
    body.index = lease.index;
    Result<FuzzInput> input = ParseFuzzInput(lease.input_text);
    if (!input.ok()) {
      body.ok = 0;
      body.failure = input.error();
    } else {
      FuzzExecResult res = executor.Execute(input.value());
      body.ok = res.ok ? 1 : 0;
      body.failure = res.failure;
      body.coverage_hex = res.coverage.ToHex();
      body.instructions = res.instructions;
      body.bugs_text = res.bugs_text;
    }
    if (!fleet::WriteFrame(out_fd, fleet::FrameType::kFuzzExec, fleet::EncodeFuzzExecResult(body))
             .ok()) {
      return 2;
    }
  }
}

// Fork-isolated execution: worker w owns exec indices i % W == w. Each
// shard's leases (plus the closing BYE) are one pre-encoded byte string
// pushed by a writer thread while the main thread drains results, so a full
// pipe on either side can never deadlock the batch. Lost workers (crash,
// corrupt frame) cost nothing but wall time: their missing execs re-run
// inline, and determinism is unaffected because results merge by index.
std::vector<FuzzExecResult> ExecuteBatchWorkers(const FuzzExecutor& executor,
                                                const std::vector<FuzzInput>& inputs,
                                                uint32_t workers, FuzzCampaignResult* tallies) {
  std::vector<FuzzExecResult> results(inputs.size());
  std::vector<bool> have(inputs.size(), false);
  size_t num_shards = std::min<size_t>(workers, inputs.size());

  struct Shard {
    ChildProcess child;
    std::string lease_bytes;
    std::vector<size_t> indices;
    bool alive = false;
  };
  std::vector<Shard> shards(num_shards);
  for (size_t i = 0; i < inputs.size(); ++i) {
    shards[i % num_shards].indices.push_back(i);
  }
  // Fork before any threads exist (see src/support/subprocess.h).
  for (Shard& shard : shards) {
    bool encoded = true;
    for (size_t idx : shard.indices) {
      fleet::FuzzExecLease lease;
      lease.index = idx;
      lease.input_text = SerializeFuzzInput(inputs[idx]);
      Result<std::string> frame =
          fleet::EncodeFrame(fleet::FrameType::kFuzzExec, fleet::EncodeFuzzExecLease(lease));
      if (!frame.ok()) {
        encoded = false;
        break;
      }
      shard.lease_bytes += frame.value();
    }
    if (!encoded) {
      continue;  // an input over the frame cap: the shard's execs run inline
    }
    shard.lease_bytes += fleet::EncodeFrame(fleet::FrameType::kBye,
                                            fleet::EncodeBye(fleet::ByeBody{fleet::kByeDrain, ""}))
                             .value();
    Result<ChildProcess> spawned =
        SpawnChild([&executor](int in_fd, int out_fd) { return FuzzWorkerMain(executor, in_fd, out_fd); });
    if (spawned.ok()) {
      shard.child = spawned.value();
      shard.alive = true;
      ++tallies->fuzz_workers_spawned;
    }
  }

  {
    ThreadPool writers(std::max<size_t>(num_shards, 1));
    for (Shard& shard : shards) {
      if (shard.alive) {
        // A failed write means a dead worker; the read side detects and salvages.
        writers.Submit([&shard] { (void)WriteAll(shard.child.to_child_fd, shard.lease_bytes); });
      }
    }
    for (Shard& shard : shards) {
      if (!shard.alive) {
        continue;
      }
      bool lost = false;
      // Streamed frames: one reader per pipe keeps every frame of each read().
      fleet::FrameReader frames(shard.child.from_child_fd);
      for (size_t got = 0; got < shard.indices.size(); ++got) {
        Result<fleet::Frame> frame = frames.Next();
        fleet::FuzzExecResultBody body;
        if (!frame.ok() || frame.value().type != fleet::FrameType::kFuzzExec ||
            !fleet::DecodeFuzzExecResult(frame.value().body, &body) ||
            body.index >= results.size()) {
          lost = true;
          break;
        }
        FuzzExecResult r;
        r.ok = body.ok != 0;
        r.failure = body.failure;
        r.instructions = body.instructions;
        r.bugs_text = body.bugs_text;
        if (!CoverageBitmap::FromHex(body.coverage_hex, &r.coverage)) {
          lost = true;
          break;
        }
        results[body.index] = std::move(r);
        have[body.index] = true;
      }
      if (lost) {
        ++tallies->fuzz_workers_lost;
        KillAndReap(shard.child.pid);
        shard.child.CloseFds();
        shard.alive = false;
      }
    }
    writers.Wait();
  }

  // Healthy workers exit on their BYE; give them a moment, then insist.
  for (Shard& shard : shards) {
    if (!shard.alive) {
      continue;
    }
    bool reaped = false;
    for (int spin = 0; spin < 1000 && !reaped; ++spin) {
      int status = 0;
      reaped = TryReap(shard.child.pid, &status);
      if (!reaped) {
        ::usleep(10 * 1000);
      }
    }
    if (!reaped) {
      KillAndReap(shard.child.pid);
    }
    shard.child.CloseFds();
  }

  for (size_t i = 0; i < inputs.size(); ++i) {
    if (!have[i] && results[i].failure.empty() && !results[i].ok) {
      results[i] = executor.Execute(inputs[i]);
      ++tallies->fuzz_execs_salvaged;
    }
  }
  return results;
}

}  // namespace

uint64_t FuzzFingerprint(const FuzzCampaignConfig& config, const DriverImage& image) {
  uint64_t h = CampaignFingerprint(config.campaign, image);
  // Mix in the fuzz seed so a corpus never silently continues under a
  // different mutation universe.
  h ^= config.fuzz.seed + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::string FuzzCampaignResult::FormatReport(const std::string& driver_name,
                                             bool include_volatile) const {
  std::string out = campaign.FormatReport(driver_name, include_volatile);
  out += "\n--- fuzz ---\n";
  out += StrFormat("fuzz seed: 0x%llx  batches: %u  execs/batch: %u\n",
                   static_cast<unsigned long long>(fuzz_config.seed), fuzz_config.batches,
                   fuzz_config.execs_per_batch);
  out += StrFormat("seeds derived: %llu\n", static_cast<unsigned long long>(seeds_derived));
  out += StrFormat("execs: %llu (quarantined: %llu)\n", static_cast<unsigned long long>(execs),
                   static_cast<unsigned long long>(quarantined_execs));
  out += StrFormat("corpus: %llu entries, %llu blocks, fingerprint %016llx\n",
                   static_cast<unsigned long long>(corpus_entries),
                   static_cast<unsigned long long>(corpus_blocks),
                   static_cast<unsigned long long>(corpus_fingerprint));
  out += StrFormat("novel blocks vs seed pass: %llu\n",
                   static_cast<unsigned long long>(novel_blocks));
  out += "mutations:";
  for (size_t k = 0; k < kNumMutatorKinds; ++k) {
    out += StrFormat(" %s=%llu", MutatorKindName(static_cast<MutatorKind>(k)),
                     static_cast<unsigned long long>(mutations[k]));
  }
  out += "\n";
  out += StrFormat("promotions: %llu (novel blocks: %llu)\n",
                   static_cast<unsigned long long>(promotions),
                   static_cast<unsigned long long>(promotion_novel_blocks));
  out += StrFormat("fuzz-only bugs: %zu\n", fuzz_bugs.size());
  for (size_t i = 0; i < fuzz_bugs.size(); ++i) {
    out += "  " + fuzz_bugs[i].Row() +
           (i < fuzz_bug_origins.size() ? " [via " + fuzz_bug_origins[i] + "]" : "") + "\n";
  }
  if (include_volatile) {
    out += StrFormat("fuzz wall ms: %.1f (%.0f execs/sec)\n", fuzz_wall_ms, execs_per_sec);
    out += StrFormat("fuzz workers: spawned %llu, lost %llu, salvaged %llu execs\n",
                     static_cast<unsigned long long>(fuzz_workers_spawned),
                     static_cast<unsigned long long>(fuzz_workers_lost),
                     static_cast<unsigned long long>(fuzz_execs_salvaged));
    if (corpus_load_errors != 0) {
      out += StrFormat("corpus load errors: %llu (torn tail dropped)\n",
                       static_cast<unsigned long long>(corpus_load_errors));
    }
  }
  return out;
}

Result<FuzzCampaignResult> RunFuzzCampaign(const FuzzCampaignConfig& config,
                                           const DriverImage& image,
                                           const PciDescriptor& descriptor) {
  FuzzCampaignResult result;
  result.fuzz_config = config.fuzz;

  // Phase 1: the exhaustive symbolic campaign, untouched (the CLI routes it
  // through the process fleet via run_campaign).
  Result<FaultCampaignResult> campaign =
      config.run_campaign ? config.run_campaign()
                          : RunFaultCampaign(config.campaign, image, descriptor);
  if (!campaign.ok()) {
    return campaign.status();
  }
  result.campaign = std::move(campaign.value());

  std::set<std::string> bug_keys;
  for (const Bug& bug : result.campaign.bugs) {
    bug_keys.insert(BugKey(bug));
  }

  // Phase 2: seed derivation — one symbolic pass with solver models on.
  std::vector<FuzzInput> seeds;
  CoverageBitmap seed_coverage;
  {
    DdtConfig seed_config = config.campaign.base;
    seed_config.engine.max_path_seeds = config.fuzz.max_seeds;
    seed_config.engine.metrics = nullptr;
    seed_config.engine.profile = nullptr;
    try {
      ScopedCheckTrap trap;
      Ddt ddt(seed_config);
      Result<DdtResult> run = ddt.TestDriver(image, descriptor);
      if (!run.ok()) {
        return Status::Error("fuzz seed pass: " + run.error());
      }
      const std::vector<PathSeed>& path_seeds = run.value().path_seeds;
      for (size_t i = 0; i < path_seeds.size(); ++i) {
        seeds.push_back(FromPathSeed(path_seeds[i], seed_config.engine.fault_plan,
                                     StrFormat("seed#%zu", i)));
      }
      seed_coverage = ddt.engine().CoverageSnapshot();
    } catch (const std::exception& e) {
      return Status::Error(std::string("fuzz seed pass: ") + e.what());
    }
  }
  result.seeds_derived = seeds.size();

  // Phase 3: the coverage-guided mutation loop.
  uint64_t fingerprint = FuzzFingerprint(config, image);
  FuzzCorpus corpus;
  FuzzLoopState loop;
  if (config.fuzz.resume && !config.fuzz.corpus_path.empty() &&
      ::access(config.fuzz.corpus_path.c_str(), R_OK) == 0) {
    size_t load_errors = 0;
    Status loaded =
        corpus.LoadFromFile(config.fuzz.corpus_path, fingerprint, &load_errors, &loop);
    if (!loaded.ok()) {
      return loaded;  // fingerprint mismatch or damaged header — never silently fresh
    }
    result.corpus_load_errors = load_errors;
    // Completed batches never re-execute: their tallies and bugs come back
    // from the corpus, and their bug keys dedupe what the rest finds.
    for (const Bug& bug : loop.bugs) {
      bug_keys.insert(BugKey(bug));
    }
  }
  const uint64_t restored_execs = loop.execs;

  FuzzExecutor executor(config.campaign, image, descriptor);
  SplitMix64 root(config.fuzz.seed);

  // The loop's rate covers the batch loop alone: the symbolic campaign and
  // seed pass above report their own wall time.
  auto loop_start = std::chrono::steady_clock::now();
  for (uint32_t b = corpus.batches_done(); b < config.fuzz.batches; ++b) {
    std::vector<FuzzInput> inputs;
    if (b == 0) {
      inputs = seeds;  // replayed unmutated; admission seeds the corpus
    } else {
      // Bases frozen at batch start: every current entry was admitted in an
      // earlier batch (merge runs in batch order). An empty corpus falls back
      // to mutating the raw seeds.
      std::vector<const FuzzInput*> bases;
      for (const CorpusEntry& entry : corpus.entries()) {
        bases.push_back(&entry.input);
      }
      if (bases.empty()) {
        for (const FuzzInput& seed : seeds) {
          bases.push_back(&seed);
        }
      }
      if (bases.empty()) {
        corpus.set_batches_done(b + 1);
        continue;
      }
      for (uint32_t e = 0; e < config.fuzz.execs_per_batch; ++e) {
        SplitMix64 stream = root.Fork(b).Fork(e);
        const FuzzInput& base = *bases[stream.NextBelow(bases.size())];
        FuzzInput mutant = MutateInput(base, stream, &loop.mutations);
        mutant.label = StrFormat("fuzz b%u#%u", b, e);
        inputs.push_back(std::move(mutant));
      }
    }
    if (inputs.empty()) {
      corpus.set_batches_done(b + 1);
      continue;
    }

    std::vector<FuzzExecResult> exec_results =
        config.fuzz.workers > 0
            ? ExecuteBatchWorkers(executor, inputs, config.fuzz.workers, &result)
            : ExecuteBatchThreads(executor, inputs, config.campaign.threads);

    // Merge strictly in exec-index order — the determinism hinge.
    for (size_t i = 0; i < inputs.size(); ++i) {
      ++loop.execs;
      FuzzExecResult& r = exec_results[i];
      if (!r.ok) {
        ++loop.quarantined_execs;
        continue;
      }
      corpus.Offer(inputs[i], r.coverage, b, config.fuzz.max_corpus);
      if (!r.bugs_text.empty()) {
        Result<std::vector<Bug>> bugs = DeserializeBugs(r.bugs_text);
        if (bugs.ok()) {
          for (Bug& bug : bugs.value()) {
            if (bug_keys.insert(BugKey(bug)).second) {
              loop.bugs.push_back(std::move(bug));
              loop.bug_origins.push_back(inputs[i].label);
            }
          }
        }
      }
    }
    corpus.set_batches_done(b + 1);
    if (!config.fuzz.corpus_path.empty()) {
      Status saved = corpus.SaveToFile(config.fuzz.corpus_path, fingerprint, loop);
      if (!saved.ok()) {
        return saved;
      }
    }
  }
  result.fuzz_wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - loop_start)
          .count();
  result.execs_per_sec = result.fuzz_wall_ms > 0
                             ? (loop.execs - restored_execs) / (result.fuzz_wall_ms / 1000.0)
                             : 0;
  result.execs = loop.execs;
  result.quarantined_execs = loop.quarantined_execs;
  result.mutations = loop.mutations;
  result.fuzz_bugs = std::move(loop.bugs);
  result.fuzz_bug_origins = std::move(loop.bug_origins);

  result.corpus_entries = corpus.size();
  result.corpus_blocks = corpus.cumulative().Popcount();
  result.corpus_fingerprint = corpus.cumulative().Fingerprint();
  result.novel_blocks = seed_coverage.NewlyCovered(corpus.cumulative());

  // Phase 4: promotion — the most novel mutant-discovered entries return to
  // symbolic exploration as concretization hints.
  if (config.fuzz.promote && config.fuzz.max_promotions > 0 && corpus.size() > 0) {
    CoverageBitmap promotion_baseline = seed_coverage;
    promotion_baseline.OrWith(corpus.cumulative());

    std::vector<size_t> order(corpus.size());
    std::iota(order.begin(), order.end(), size_t{0});
    const std::vector<CorpusEntry>& entries = corpus.entries();
    std::stable_sort(order.begin(), order.end(), [&entries](size_t a, size_t b) {
      bool mutant_a = entries[a].batch > 0;
      bool mutant_b = entries[b].batch > 0;
      if (mutant_a != mutant_b) {
        return mutant_a;  // mutant-discovered coverage first
      }
      if (entries[a].novel_blocks != entries[b].novel_blocks) {
        return entries[a].novel_blocks > entries[b].novel_blocks;
      }
      return a < b;
    });

    for (size_t k = 0; k < order.size() && result.promotions < config.fuzz.max_promotions; ++k) {
      const CorpusEntry& entry = entries[order[k]];
      DdtConfig promo = config.campaign.base;
      promo.engine.concretization_hints = GuidedInputs(entry.input);
      promo.engine.fault_plan = entry.input.fault_plan;
      promo.engine.max_path_seeds = 0;
      promo.engine.metrics = nullptr;
      promo.engine.profile = nullptr;
      try {
        ScopedCheckTrap trap;
        Ddt ddt(promo);
        Result<DdtResult> run = ddt.TestDriver(image, descriptor);
        if (!run.ok()) {
          continue;
        }
        uint64_t promotion_index = result.promotions;
        ++result.promotions;
        result.promotion_coverage.OrWith(ddt.engine().CoverageSnapshot());
        if (!run.value().bugs.empty()) {
          // Round-trip through bug_io so the bugs outlive this pass's Ddt.
          Result<std::vector<Bug>> bugs = DeserializeBugs(SerializeBugs(run.value().bugs));
          if (bugs.ok()) {
            for (Bug& bug : bugs.value()) {
              if (bug_keys.insert(BugKey(bug)).second) {
                result.fuzz_bugs.push_back(std::move(bug));
                result.fuzz_bug_origins.push_back(
                    StrFormat("promotion#%llu via %s",
                              static_cast<unsigned long long>(promotion_index),
                              entry.input.label.c_str()));
              }
            }
          }
        }
      } catch (const std::exception&) {
        continue;  // a crashing promotion pass quarantines itself
      }
    }
    result.promotion_novel_blocks = promotion_baseline.NewlyCovered(result.promotion_coverage);
  }

  if (config.campaign.collect_metrics) {
    auto& counters = result.campaign.metrics.counters;
    counters["fuzz.execs"] += result.execs;
    counters["fuzz.execs_quarantined"] += result.quarantined_execs;
    counters["fuzz.seeds_derived"] += result.seeds_derived;
    counters["fuzz.corpus_size"] += result.corpus_entries;
    counters["fuzz.corpus_blocks"] += result.corpus_blocks;
    counters["fuzz.novel_blocks"] += result.novel_blocks;
    counters["fuzz.promotions"] += result.promotions;
    counters["fuzz.promotion_novel_blocks"] += result.promotion_novel_blocks;
    counters["fuzz.bugs"] += result.fuzz_bugs.size();
    for (size_t k = 0; k < kNumMutatorKinds; ++k) {
      counters[StrFormat("fuzz.mutations.%s", MutatorKindName(static_cast<MutatorKind>(k)))] +=
          result.mutations[k];
    }
    auto& gauge = result.campaign.metrics.gauges["fuzz.execs_per_sec"];
    gauge.value = static_cast<int64_t>(result.execs_per_sec);
    gauge.max = std::max(gauge.max, gauge.value);
  }

  return result;
}

}  // namespace fuzz
}  // namespace ddt
