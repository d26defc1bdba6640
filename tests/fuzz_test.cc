// The hybrid concolic fuzz loop (src/fuzz): input serialization, deterministic
// mutation, coverage-novelty corpus admission and persistence, the concrete
// executor's seed round-trip and isolation between execs that share one
// prepared driver, report determinism across thread and worker counts and
// across kill-and-resume, the
// latent-bug acceptance path (a bug only the fuzz plane finds, with a
// replayable evidence file), and promotion driving symbolic passes into
// blocks the capped exploration alone never covered.
#include "src/fuzz/fuzz.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"

namespace ddt {
namespace fuzz {
namespace {

FuzzInput SampleInput() {
  FuzzInput input;
  input.label = "seed#0";
  FuzzField reg;
  reg.origin.source = VarOrigin::Source::kRegistry;
  reg.origin.label = "NetworkAddress";
  reg.origin.seq = 1;
  reg.width = 32;
  reg.value = 0xC0FFEE;
  reg.var_name = "registry:NetworkAddress";
  input.fields.push_back(reg);
  FuzzField hw;
  hw.origin.source = VarOrigin::Source::kHardwareRead;
  hw.origin.aux = 0x10;
  hw.origin.seq = 3;
  hw.width = 8;
  hw.value = 0x7F;
  hw.var_name = "hw:+0x10#3";
  input.fields.push_back(hw);
  input.interrupt_schedule = {2, 9};
  input.alternatives = {{4, "fail-once"}};
  input.fault_plan.label = "alloc#0";
  input.fault_plan.points.push_back(FaultPoint{FaultClass::kAllocation, 0});
  input.fault_plan.hw_points.push_back(HwFaultPoint{static_cast<HwFaultKind>(0), 2});
  return input;
}

TEST(FuzzInputTest, SerializationRoundTrips) {
  FuzzInput input = SampleInput();
  std::string text = SerializeFuzzInput(input);
  Result<FuzzInput> parsed = ParseFuzzInput(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  // The round-trip fixed point is the serialized form itself.
  EXPECT_EQ(SerializeFuzzInput(parsed.value()), text);
  EXPECT_EQ(parsed.value().label, "seed#0");
  ASSERT_EQ(parsed.value().fields.size(), 2u);
  EXPECT_EQ(parsed.value().fields[0].value, 0xC0FFEEu);
  EXPECT_EQ(parsed.value().fields[0].origin.label, "NetworkAddress");
  EXPECT_EQ(parsed.value().fields[1].origin.aux, 0x10u);
  EXPECT_EQ(parsed.value().interrupt_schedule, (std::vector<uint32_t>{2, 9}));
  ASSERT_EQ(parsed.value().alternatives.size(), 1u);
  EXPECT_EQ(parsed.value().alternatives[0].second, "fail-once");
  ASSERT_EQ(parsed.value().fault_plan.points.size(), 1u);
  ASSERT_EQ(parsed.value().fault_plan.hw_points.size(), 1u);
}

TEST(FuzzInputTest, ParseRejectsMalformedBlobs) {
  std::string text = SerializeFuzzInput(SampleInput());
  EXPECT_FALSE(ParseFuzzInput("").ok());
  EXPECT_FALSE(ParseFuzzInput("not-a-fuzz-input\nend\n").ok());
  // Truncation (missing the end marker) must be detected, not half-loaded.
  EXPECT_FALSE(ParseFuzzInput(text.substr(0, text.size() - 5)).ok());
  // Unknown keys are corruption, not extensions.
  std::string bad = text;
  bad.insert(bad.find("end\n"), "mystery 1 2 3\n");
  EXPECT_FALSE(ParseFuzzInput(bad).ok());
}

TEST(FuzzMutatorTest, SameStreamSameMutantDifferentStreamsDiverge) {
  FuzzInput base = SampleInput();
  std::array<uint64_t, kNumMutatorKinds> counts{};

  SplitMix64 a = SplitMix64(42).Fork(1).Fork(7);
  SplitMix64 b = SplitMix64(42).Fork(1).Fork(7);
  FuzzInput ma = MutateInput(base, a, &counts);
  FuzzInput mb = MutateInput(base, b, &counts);
  EXPECT_EQ(SerializeFuzzInput(ma), SerializeFuzzInput(mb));

  // Across exec indices the streams decorrelate: with stacked mutations over
  // 16 execs, at least one mutant must differ from the first.
  bool diverged = false;
  for (uint64_t e = 0; e < 16 && !diverged; ++e) {
    SplitMix64 stream = SplitMix64(42).Fork(1).Fork(e + 8);
    diverged = SerializeFuzzInput(MutateInput(base, stream, &counts)) != SerializeFuzzInput(ma);
  }
  EXPECT_TRUE(diverged);
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  EXPECT_GT(total, 0u);  // every application is tallied per mutator kind
}

CoverageBitmap BitmapOf(std::initializer_list<size_t> slots) {
  CoverageBitmap map(64);
  for (size_t slot : slots) {
    map.Set(slot);
  }
  return map;
}

TEST(FuzzCorpusTest, AdmitsOnlyCoverageNovelInputs) {
  FuzzCorpus corpus;
  FuzzInput input = SampleInput();
  EXPECT_EQ(corpus.Offer(input, BitmapOf({1, 2}), 0, 8), 0);   // first is novel
  EXPECT_EQ(corpus.Offer(input, BitmapOf({1, 2}), 0, 8), -1);  // duplicate coverage
  EXPECT_EQ(corpus.Offer(input, BitmapOf({2, 3}), 1, 8), 1);   // slot 3 is new
  EXPECT_EQ(corpus.Offer(input, BitmapOf({9}), 1, 2), -1);     // over max_entries
  EXPECT_EQ(corpus.size(), 2u);
  EXPECT_EQ(corpus.entries()[1].novel_blocks, 1u);
  EXPECT_EQ(corpus.entries()[1].batch, 1u);
  EXPECT_EQ(corpus.cumulative().Popcount(), 3u);
}

TEST(FuzzCorpusTest, PersistsAndSurvivesTornTail) {
  const char* path = "/tmp/ddt_fuzz_corpus_test.bin";
  const uint64_t fp = 0x1234ABCDull;
  FuzzCorpus corpus;
  corpus.Offer(SampleInput(), BitmapOf({1}), 0, 8);
  FuzzInput second = SampleInput();
  second.label = "fuzz b1#3";
  corpus.Offer(second, BitmapOf({1, 2}), 1, 8);
  corpus.set_batches_done(2);
  FuzzLoopState loop;
  loop.execs = 16;
  loop.quarantined_execs = 1;
  loop.mutations = {1, 2, 3, 4, 5, 6};
  Bug bug;
  bug.type = BugType::kResourceLeak;
  bug.title = "rx buffer leaked";
  bug.driver = "toy";
  loop.bugs = {bug};
  loop.bug_origins = {"fuzz b1#3"};
  ASSERT_TRUE(corpus.SaveToFile(path, fp, loop).ok());

  FuzzCorpus loaded;
  FuzzLoopState restored;
  size_t load_errors = 0;
  ASSERT_TRUE(loaded.LoadFromFile(path, fp, &load_errors, &restored).ok());
  EXPECT_EQ(load_errors, 0u);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded.batches_done(), 2u);
  EXPECT_EQ(loaded.entries()[1].input.label, "fuzz b1#3");
  EXPECT_EQ(loaded.cumulative().Fingerprint(), corpus.cumulative().Fingerprint());
  EXPECT_EQ(restored.execs, 16u);
  EXPECT_EQ(restored.quarantined_execs, 1u);
  EXPECT_EQ(restored.mutations, loop.mutations);
  ASSERT_EQ(restored.bugs.size(), 1u);
  EXPECT_EQ(restored.bugs[0].Row(), bug.Row());
  EXPECT_EQ(restored.bug_origins, loop.bug_origins);

  // A different fuzz seed / driver must refuse the file, never silently
  // continue under the wrong mutation universe.
  FuzzCorpus wrong;
  EXPECT_FALSE(wrong.LoadFromFile(path, fp + 1, &load_errors, &restored).ok());

  // Chop bytes off the tail (death mid-save): the intact prefix loads, the
  // damaged record is dropped and counted.
  std::FILE* f = std::fopen(path, "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  std::string bytes(static_cast<size_t>(size), '\0');
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() - 7, f);
  std::fclose(f);

  FuzzCorpus torn;
  ASSERT_TRUE(torn.LoadFromFile(path, fp, &load_errors, &restored).ok());
  EXPECT_EQ(torn.size(), 1u);
  EXPECT_EQ(load_errors, 1u);
  EXPECT_EQ(torn.entries()[0].input.label, "seed#0");
  std::remove(path);
}

// A corpus saved by a build before the record layout (these bytes, verbatim)
// is refused with an error, and the corpus in memory is left as it was.
TEST(FuzzCorpusTest, RefusesAFileInTheEarlierLayout) {
  const char* path = "/tmp/ddt_fuzz_corpus_earlier.bin";
  const std::string earlier =
      "ddt-fuzz-corpus v1 000000001234abcd 1\n"
      "entry c68f4627 61\n"
      "meta 1 0 0000000000000002\n"
      "ddt-fuzz-input v1\n"
      "label seed#0\n"
      "end\n";
  std::FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(earlier.data(), 1, earlier.size(), f);
  std::fclose(f);

  FuzzCorpus corpus;
  corpus.Offer(SampleInput(), BitmapOf({1, 5}), 0, 8);
  corpus.set_batches_done(3);
  FuzzLoopState loop;
  loop.execs = 9;
  size_t load_errors = 0;
  EXPECT_FALSE(corpus.LoadFromFile(path, 0x1234ABCDull, &load_errors, &loop).ok());
  EXPECT_EQ(loop.execs, 9u);
  EXPECT_EQ(corpus.size(), 1u);
  EXPECT_EQ(corpus.batches_done(), 3u);
  EXPECT_EQ(corpus.cumulative().Popcount(), 2u);
  std::remove(path);
}

// --- End-to-end over the rtl8029 corpus driver -----------------------------

FuzzCampaignConfig SmallConfig() {
  FuzzCampaignConfig config;
  config.campaign.max_passes = 4;
  config.campaign.max_occurrences_per_class = 1;
  config.campaign.threads = 1;
  config.fuzz.batches = 2;
  config.fuzz.execs_per_batch = 8;
  config.fuzz.max_seeds = 8;
  config.fuzz.max_promotions = 1;
  return config;
}

// Satellite: a solver-derived seed, serialized and reloaded, must replay to
// the originating path's exact deterministic observation — same coverage
// fingerprint, same instruction count, same serialized bug set — on every
// execution.
TEST(FuzzExecutorTest, SerializedSeedRoundTripReplaysIdentically) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FaultCampaignConfig campaign;

  DdtConfig seed_config = campaign.base;
  seed_config.engine.max_path_seeds = 4;
  Ddt ddt(seed_config);
  Result<DdtResult> run = ddt.TestDriver(rtl.image, rtl.pci);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_FALSE(run.value().path_seeds.empty());

  FuzzInput seed =
      FromPathSeed(run.value().path_seeds.front(), seed_config.engine.fault_plan, "seed#0");
  Result<FuzzInput> reloaded = ParseFuzzInput(SerializeFuzzInput(seed));
  ASSERT_TRUE(reloaded.ok()) << reloaded.error();

  FuzzExecutor executor(campaign, rtl.image, rtl.pci);
  FuzzExecResult first = executor.Execute(reloaded.value());
  FuzzExecResult second = executor.Execute(reloaded.value());
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_GT(first.coverage.Popcount(), 0u);
  EXPECT_GT(first.instructions, 0u);
  EXPECT_EQ(first.coverage.Fingerprint(), second.coverage.Fingerprint());
  EXPECT_EQ(first.instructions, second.instructions);
  EXPECT_EQ(first.bugs_text, second.bugs_text);
}

// A driver whose init ORs a device register into a latch in .data and
// branches on the latch. Each exec must start from the installed image's
// zero latch: a value left by an earlier exec would turn the zero path into
// the latched one.
constexpr const char* kLatchDriver = R"(
  .driver "toy_latch"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r0, 0
    kcall MosMapIoSpace     ; r0 = BAR0 base
    ld32 r1, [r0+4]         ; device register: a fuzz field
    la r2, latch
    ld32 r3, [r2+0]
    or r3, r3, r1
    st32 [r2+0], r3
    bnz r3, latched
    movi r0, 0
    ret
  latched:
    movi r0, 0
    ret

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
  latch:
    .word 0
)";

PciDescriptor LatchPci() {
  PciDescriptor pci;
  pci.vendor_id = 0x10EC;
  pci.device_id = 0x8029;
  pci.irq_line = 10;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

// Everything an execution reports that a leak through the shared image
// could change.
std::string Observation(const FuzzExecResult& r) {
  return StrFormat("ok=%d fingerprint=%016llx instructions=%llu\n", r.ok ? 1 : 0,
                   static_cast<unsigned long long>(r.coverage.Fingerprint()),
                   static_cast<unsigned long long>(r.instructions)) +
         r.failure + "\n" + r.bugs_text;
}

// Every execution loads the one prepared driver; the guest writes of one exec
// must never reach the next. A, B, A through one executor: both A runs are
// identical, and B matches B on a fresh executor.
TEST(FuzzExecutorTest, SharedImageDoesNotLeakBetweenExecs) {
  Result<AssembledDriver> assembled = Assemble(kLatchDriver);
  ASSERT_TRUE(assembled.ok()) << assembled.error();
  const DriverImage& image = assembled.value().image;
  const PciDescriptor pci = LatchPci();
  FaultCampaignConfig campaign;

  DdtConfig seed_config = campaign.base;
  seed_config.engine.max_path_seeds = 8;
  Ddt seed_pass(seed_config);
  Result<DdtResult> run = seed_pass.TestDriver(image, pci);
  ASSERT_TRUE(run.ok()) << run.status().message();
  std::vector<FuzzInput> seeds;
  for (const PathSeed& seed : run.value().path_seeds) {
    seeds.push_back(FromPathSeed(seed, seed_config.engine.fault_plan, "seed"));
  }
  ASSERT_FALSE(seeds.empty());

  // A and B: two seeds whose fresh-executor observations differ, so either
  // exec's writes reaching the other would show.
  const FuzzInput& a = seeds.front();
  std::string fresh_a = Observation(FuzzExecutor(campaign, image, pci).Execute(a));
  const FuzzInput* b = nullptr;
  std::string fresh_b;
  for (const FuzzInput& seed : seeds) {
    fresh_b = Observation(FuzzExecutor(campaign, image, pci).Execute(seed));
    if (fresh_b != fresh_a) {
      b = &seed;
      break;
    }
  }
  ASSERT_NE(b, nullptr) << "every seed replays to the same observation";

  FuzzExecutor executor(campaign, image, pci);
  FuzzExecResult first_a = executor.Execute(a);
  FuzzExecResult only_b = executor.Execute(*b);
  FuzzExecResult second_a = executor.Execute(a);
  ASSERT_TRUE(first_a.ok) << first_a.failure;
  ASSERT_TRUE(only_b.ok) << only_b.failure;
  EXPECT_EQ(Observation(first_a), fresh_a);
  EXPECT_EQ(Observation(only_b), fresh_b);
  EXPECT_EQ(Observation(second_a), fresh_a);
}

// An image that does not load still makes an executor; every exec then
// quarantines with the load's error, a zero budget reported first.
TEST(FuzzExecutorTest, UnloadableImageQuarantinesEveryExec) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  DriverImage image = rtl.image;
  image.imports.push_back("MosNoSuchRoutine");
  FaultCampaignConfig campaign;
  FaultCampaignConfig zero_budget;
  zero_budget.base.engine.max_instructions = 0;

  std::unique_ptr<FuzzExecutor> executor;
  std::unique_ptr<FuzzExecutor> zero_budget_executor;
  ASSERT_NO_THROW(executor = std::make_unique<FuzzExecutor>(campaign, image, rtl.pci));
  ASSERT_NO_THROW(zero_budget_executor =
                      std::make_unique<FuzzExecutor>(zero_budget, image, rtl.pci));
  for (int i = 0; i < 3; ++i) {
    FuzzExecResult r = executor->Execute(SampleInput());
    EXPECT_FALSE(r.ok);
    EXPECT_EQ(r.failure, "unresolved driver import: MosNoSuchRoutine");
    EXPECT_TRUE(r.bugs_text.empty());
    FuzzExecResult z = zero_budget_executor->Execute(SampleInput());
    EXPECT_FALSE(z.ok);
    EXPECT_EQ(z.failure, "EngineConfig.max_instructions must be nonzero");
  }
}

// The full contract: for one fuzz seed the deterministic report is
// byte-identical in-process at 1 and 4 threads and across 3 fork-isolated
// shard workers.
TEST(FuzzCampaignTest, ReportByteIdenticalAcrossThreadAndWorkerCounts) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");

  FuzzCampaignConfig t1 = SmallConfig();
  Result<FuzzCampaignResult> r1 = RunFuzzCampaign(t1, rtl.image, rtl.pci);
  ASSERT_TRUE(r1.ok()) << r1.status().message();

  FuzzCampaignConfig t4 = SmallConfig();
  t4.campaign.threads = 4;
  Result<FuzzCampaignResult> r4 = RunFuzzCampaign(t4, rtl.image, rtl.pci);
  ASSERT_TRUE(r4.ok()) << r4.status().message();

  FuzzCampaignConfig w3 = SmallConfig();
  w3.fuzz.workers = 3;
  Result<FuzzCampaignResult> rw = RunFuzzCampaign(w3, rtl.image, rtl.pci);
  ASSERT_TRUE(rw.ok()) << rw.status().message();

  std::string report1 = r1.value().FormatReport(rtl.name, /*include_volatile=*/false);
  EXPECT_GT(r1.value().execs, 0u);
  EXPECT_GT(r1.value().corpus_entries, 0u);
  EXPECT_EQ(report1, r4.value().FormatReport(rtl.name, /*include_volatile=*/false));
  EXPECT_EQ(report1, rw.value().FormatReport(rtl.name, /*include_volatile=*/false));
  EXPECT_GT(rw.value().fuzz_workers_spawned, 0u);
}

// Killed after batch 2 and resumed to batch 4, the loop reports exactly what
// an uninterrupted 4-batch loop reports: completed batches do not re-run, and
// their tallies and fuzz-only bugs come back from the corpus file.
TEST(FuzzCampaignTest, ResumedLoopReportsLikeAnUninterruptedOne) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FuzzCampaignConfig full = SmallConfig();
  full.fuzz.batches = 4;
  Result<FuzzCampaignResult> uninterrupted = RunFuzzCampaign(full, rtl.image, rtl.pci);
  ASSERT_TRUE(uninterrupted.ok()) << uninterrupted.status().message();
  EXPECT_GT(uninterrupted.value().fuzz_bugs.size(), 0u);

  std::string corpus_path = testing::TempDir() + "fuzz_resume_corpus.bin";
  std::remove(corpus_path.c_str());
  FuzzCampaignConfig killed = full;
  killed.fuzz.batches = 2;
  killed.fuzz.corpus_path = corpus_path;
  Result<FuzzCampaignResult> first = RunFuzzCampaign(killed, rtl.image, rtl.pci);
  ASSERT_TRUE(first.ok()) << first.status().message();

  FuzzCampaignConfig resume = full;
  resume.fuzz.corpus_path = corpus_path;
  resume.fuzz.resume = true;
  Result<FuzzCampaignResult> resumed = RunFuzzCampaign(resume, rtl.image, rtl.pci);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_LT(first.value().execs, resumed.value().execs);
  EXPECT_EQ(resumed.value().FormatReport(rtl.name, /*include_volatile=*/false),
            uninterrupted.value().FormatReport(rtl.name, /*include_volatile=*/false));
  std::remove(corpus_path.c_str());
}

// The loop's rate times the batch loop alone: its wall time and the symbolic
// campaign's are disjoint slices of the one RunFuzzCampaign call.
TEST(FuzzCampaignTest, LoopWallTimeExcludesSymbolicCampaign) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  auto start = std::chrono::steady_clock::now();
  Result<FuzzCampaignResult> run = RunFuzzCampaign(SmallConfig(), rtl.image, rtl.pci);
  double call_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(run.ok()) << run.status().message();
  const FuzzCampaignResult& result = run.value();
  EXPECT_GT(result.execs, 0u);
  EXPECT_GT(result.fuzz_wall_ms, 0.0);
  EXPECT_GT(result.campaign.campaign_wall_ms, 0.0);
  EXPECT_LE(result.fuzz_wall_ms + result.campaign.campaign_wall_ms, call_ms);
  EXPECT_DOUBLE_EQ(result.execs_per_sec,
                   static_cast<double>(result.execs) / (result.fuzz_wall_ms / 1000.0));
}

// Acceptance: the campaign (DMA checker off, its shipping default here) never
// sees the pageable-multicast-list DMA bug; the fuzz plane — whose concrete
// executor always runs every checker — finds it, and the saved evidence file
// replays it like any campaign bug.
TEST(FuzzCampaignTest, FindsLatentDmaBugOnlyViaConcreteExecutor) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FuzzCampaignConfig config = SmallConfig();
  config.fuzz.batches = 1;  // the solver-seeded batch alone exposes it
  ASSERT_FALSE(config.campaign.base.dma_checker);

  Result<FuzzCampaignResult> run = RunFuzzCampaign(config, rtl.image, rtl.pci);
  ASSERT_TRUE(run.ok()) << run.status().message();
  const FuzzCampaignResult& result = run.value();

  auto is_dma_bug = [](const Bug& bug) {
    return bug.title.find("DMA target in pageable memory") != std::string::npos;
  };
  for (const Bug& bug : result.campaign.bugs) {
    EXPECT_FALSE(is_dma_bug(bug)) << "campaign should not see the latent DMA bug";
  }
  const Bug* dma_bug = nullptr;
  for (const Bug& bug : result.fuzz_bugs) {
    if (is_dma_bug(bug)) {
      dma_bug = &bug;
    }
  }
  ASSERT_NE(dma_bug, nullptr) << "fuzz plane missed the latent DMA bug";

  // Evidence file round-trip, then replay under the executor's checker set.
  const char* evidence = "/tmp/ddt_fuzz_dma_evidence.report";
  ASSERT_TRUE(SaveBugsFile(evidence, {*dma_bug}).ok());
  Result<std::vector<Bug>> loaded = LoadBugsFile(evidence);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), 1u);
  DdtConfig replay_config = config.campaign.base;
  replay_config.dma_checker = true;
  ReplayResult replay = ReplayBug(rtl.image, rtl.pci, loaded.value()[0], replay_config);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
  std::remove(evidence);
}

// Acceptance: under a tight fork cap the symbolic exploration is truncated;
// mutation finds concretely-reachable territory beyond it, and promoting
// those corpus entries back to symbolic exploration (as concretization hints)
// covers blocks neither the capped exploration nor any concrete execution
// reached on its own.
TEST(FuzzCampaignTest, PromotionCoversBlocksCappedExplorationMissed) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FuzzCampaignConfig config = SmallConfig();
  config.campaign.base.engine.max_states = 24;  // truncate the exhaustive pass
  config.fuzz.batches = 3;
  config.fuzz.execs_per_batch = 16;
  config.fuzz.max_promotions = 2;

  Result<FuzzCampaignResult> run = RunFuzzCampaign(config, rtl.image, rtl.pci);
  ASSERT_TRUE(run.ok()) << run.status().message();
  EXPECT_GT(run.value().promotions, 0u);
  EXPECT_GT(run.value().promotion_novel_blocks, 0u)
      << "promoted symbolic passes covered nothing beyond seed pass + corpus";
}

}  // namespace
}  // namespace fuzz
}  // namespace ddt
