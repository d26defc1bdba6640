// The hybrid concolic fuzz loop (src/fuzz): the input codec, deterministic
// mutation, coverage-novelty corpus admission and persistence, the concrete
// executor's seed round-trip and isolation between execs that share one
// prepared driver, its key-first results (evidence once per key per
// executor) and the merge's recovery of evidence a later exec took first,
// report determinism across thread and worker counts and
// across kill-and-resume, the
// latent-bug acceptance path (a bug only the fuzz plane finds, with a
// replayable evidence file), and promotion driving symbolic passes into
// blocks the capped exploration alone never covered.
#include "src/fuzz/fuzz.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/campaign_exec.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/support/record.h"
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

TEST(FuzzInputTest, EncodingRoundTrips) {
  FuzzInput input = SampleInput();
  std::string bytes = EncodeFuzzInput(input);
  FuzzInput decoded;
  ASSERT_TRUE(DecodeFuzzInput(bytes, &decoded));
  // The round-trip fixed point is the encoded form itself.
  EXPECT_EQ(EncodeFuzzInput(decoded), bytes);
  EXPECT_EQ(decoded.label, "seed#0");
  ASSERT_EQ(decoded.fields.size(), 2u);
  EXPECT_EQ(decoded.fields[0].value, 0xC0FFEEu);
  EXPECT_EQ(decoded.fields[0].origin.label, "NetworkAddress");
  EXPECT_EQ(decoded.fields[1].origin.aux, 0x10u);
  EXPECT_EQ(decoded.interrupt_schedule, (std::vector<uint32_t>{2, 9}));
  ASSERT_EQ(decoded.alternatives.size(), 1u);
  EXPECT_EQ(decoded.alternatives[0].second, "fail-once");
  ASSERT_EQ(decoded.fault_plan.points.size(), 1u);
  ASSERT_EQ(decoded.fault_plan.hw_points.size(), 1u);

  // Names with spaces and newlines travel as they are.
  input.fields[0].var_name = "registry: Network\nAddress";
  input.fields[0].origin.label = "Network Address";
  ASSERT_TRUE(DecodeFuzzInput(EncodeFuzzInput(input), &decoded));
  EXPECT_EQ(decoded.fields[0].var_name, input.fields[0].var_name);
  EXPECT_EQ(decoded.fields[0].origin.label, input.fields[0].origin.label);
}

TEST(FuzzInputTest, DecodeRejectsMalformedBytes) {
  std::string bytes = EncodeFuzzInput(SampleInput());
  FuzzInput out;
  EXPECT_FALSE(DecodeFuzzInput("", &out));
  // Truncation anywhere must be detected, not half-loaded.
  for (size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(DecodeFuzzInput(std::string_view(bytes).substr(0, n), &out)) << n;
  }
  // Trailing bytes are corruption, not extensions.
  EXPECT_FALSE(DecodeFuzzInput(bytes + '\0', &out));
  // An origin source past the enum. The first field's source byte follows
  // the label ([u32 len]["seed#0"]) and the field count.
  std::string bad = bytes;
  bad[4 + 6 + 4] = 7;
  EXPECT_FALSE(DecodeFuzzInput(bad, &out));
  // A fault point whose class is past the enum.
  FuzzInput input = SampleInput();
  input.fault_plan.points[0].cls = static_cast<FaultClass>(kNumFaultClasses);
  EXPECT_FALSE(DecodeFuzzInput(EncodeFuzzInput(input), &out));
}

TEST(FuzzMutatorTest, SameStreamSameMutantDifferentStreamsDiverge) {
  FuzzInput base = SampleInput();
  std::array<uint64_t, kNumMutatorKinds> counts{};

  SplitMix64 a = SplitMix64(42).Fork(1).Fork(7);
  SplitMix64 b = SplitMix64(42).Fork(1).Fork(7);
  FuzzInput ma = MutateInput(base, a, &counts);
  FuzzInput mb = MutateInput(base, b, &counts);
  EXPECT_EQ(EncodeFuzzInput(ma), EncodeFuzzInput(mb));

  // Across exec indices the streams decorrelate: with stacked mutations over
  // 16 execs, at least one mutant must differ from the first.
  bool diverged = false;
  for (uint64_t e = 0; e < 16 && !diverged; ++e) {
    SplitMix64 stream = SplitMix64(42).Fork(1).Fork(e + 8);
    diverged = EncodeFuzzInput(MutateInput(base, stream, &counts)) != EncodeFuzzInput(ma);
  }
  EXPECT_TRUE(diverged);
  uint64_t total = 0;
  for (uint64_t c : counts) {
    total += c;
  }
  EXPECT_GT(total, 0u);  // every application is tallied per mutator kind
}

std::string HexToBytes(std::string_view hex) {
  std::string bytes;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(static_cast<char>(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return bytes;
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

// A corpus saved by a format-v2 build (whose entries held hex coverage and a
// text fuzz input; these bytes, verbatim) is refused with a version error,
// and the corpus in memory is left as it was.
TEST(FuzzCorpusTest, RefusesAFileInTheEarlierLayout) {
  const char* path = "/tmp/ddt_fuzz_corpus_earlier.bin";
  const std::string earlier = HexToBytes(
      "81000000a07af9100f0000006464742d66757a7a2d636f7270757302000000cdab341200000000010000"
      "000200000000000000000000000000000006000000000000000000000000000000000000000000000000"
      "000000000000000000000000000000000000000000000000000000120000006464742d6275672d726570"
      "6f72742076310a00000000470000001a9077e00100000000000000000000001000000030303030303030"
      "303030303030303032230000006464742d66757a7a2d696e7075742076310a6c6162656c207365656423"
      "300a656e640a");
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
  Status loaded = corpus.LoadFromFile(path, 0x1234ABCDull, &load_errors, &loop);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.message().find("unsupported version 2"), std::string::npos)
      << loaded.message();
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

// Fuzz inputs from the solver models of one symbolic rtl8029 pass, labelled
// the way the loop labels its seeds.
std::vector<FuzzInput> Rtl8029Seeds(const FaultCampaignConfig& campaign) {
  DdtConfig seed_config = campaign.base;
  seed_config.engine.max_path_seeds = 8;
  Ddt ddt(seed_config);
  Result<DdtResult> run = ddt.TestDriver(CorpusDriverByName("rtl8029").image,
                                         CorpusDriverByName("rtl8029").pci);
  std::vector<FuzzInput> seeds;
  for (size_t i = 0; run.ok() && i < run.value().path_seeds.size(); ++i) {
    seeds.push_back(FromPathSeed(run.value().path_seeds[i], seed_config.engine.fault_plan,
                                 StrFormat("seed#%zu", i)));
  }
  return seeds;
}

// Satellite: a solver-derived seed, serialized and reloaded, must replay to
// the originating path's exact deterministic observation — same coverage
// fingerprint, same instruction count, same bug keys — on every execution,
// and its first execution carries the evidence a fresh executor's does.
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
  FuzzInput reloaded;
  ASSERT_TRUE(DecodeFuzzInput(EncodeFuzzInput(seed), &reloaded));

  FuzzExecutor executor(campaign, rtl.image, rtl.pci);
  FuzzExecResult first = executor.Execute(reloaded);
  FuzzExecResult second = executor.Execute(reloaded);
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_GT(first.coverage.Popcount(), 0u);
  EXPECT_GT(first.instructions, 0u);
  EXPECT_EQ(first.coverage.Fingerprint(), second.coverage.Fingerprint());
  EXPECT_EQ(first.instructions, second.instructions);
  EXPECT_EQ(first.failure, second.failure);
  EXPECT_EQ(first.bug_keys, second.bug_keys);
  EXPECT_EQ(first.bugs_text, FuzzExecutor(campaign, rtl.image, rtl.pci).Execute(seed).bugs_text);
}

// The key-first contract: one buggy input run twice on one executor reports
// the same keys both times; the first run's evidence decodes to exactly those
// keys (each once, in bug order) and matches a fresh executor's byte for
// byte; the second run carries no evidence.
TEST(FuzzExecutorTest, EvidenceGoesOutOncePerKeyPerExecutor) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FaultCampaignConfig campaign;
  std::vector<FuzzInput> seeds = Rtl8029Seeds(campaign);
  const FuzzInput* buggy = nullptr;
  FuzzExecResult fresh;
  for (const FuzzInput& seed : seeds) {
    fresh = FuzzExecutor(campaign, rtl.image, rtl.pci).Execute(seed);
    if (fresh.ok && !fresh.bug_keys.empty()) {
      buggy = &seed;
      break;
    }
  }
  ASSERT_NE(buggy, nullptr) << "no seed replays to a bug";

  FuzzExecutor executor(campaign, rtl.image, rtl.pci);
  FuzzExecResult first = executor.Execute(*buggy);
  FuzzExecResult second = executor.Execute(*buggy);
  ASSERT_TRUE(first.ok) << first.failure;
  ASSERT_TRUE(second.ok) << second.failure;
  EXPECT_EQ(first.bug_keys, second.bug_keys);
  EXPECT_EQ(first.bug_keys, fresh.bug_keys);
  EXPECT_EQ(first.bugs_text, fresh.bugs_text);
  EXPECT_TRUE(second.bugs_text.empty());

  Result<std::vector<Bug>> evidence = DeserializeBugs(first.bugs_text);
  ASSERT_TRUE(evidence.ok()) << evidence.status().message();
  std::vector<std::string> distinct;
  for (const std::string& key : first.bug_keys) {
    if (std::find(distinct.begin(), distinct.end(), key) == distinct.end()) {
      distinct.push_back(key);
    }
  }
  std::vector<std::string> decoded;
  for (const Bug& bug : evidence.value()) {
    decoded.push_back(BugKey(bug));
  }
  EXPECT_EQ(decoded, distinct);
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
// could change. Evidence is left out: an executor hands each key's evidence
// out once, so a repeated exec carries none.
std::string Observation(const FuzzExecResult& r) {
  std::string out = StrFormat("ok=%d fingerprint=%016llx instructions=%llu\n", r.ok ? 1 : 0,
                              static_cast<unsigned long long>(r.coverage.Fingerprint()),
                              static_cast<unsigned long long>(r.instructions)) +
                    r.failure + "\n";
  for (const std::string& key : r.bug_keys) {
    out += key + "\n";
  }
  return out;
}

// Every execution loads the one prepared driver; the guest writes of one exec
// must never reach the next. A, B, A through one executor: both A runs are
// identical, B matches B on a fresh executor, and the first A carries a fresh
// executor's evidence.
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
  FuzzExecResult fresh_a_result = FuzzExecutor(campaign, image, pci).Execute(a);
  std::string fresh_a = Observation(fresh_a_result);
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
  EXPECT_EQ(first_a.bugs_text, fresh_a_result.bugs_text);
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
    EXPECT_TRUE(r.bug_keys.empty());
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

// Pool threads finish execs in any order, so a later-index exec can take a
// key's evidence from the executor before an earlier one that has the same
// key. Worst case: every result produced in reverse index order on one
// executor. The merge must recover the withheld evidence and keep the same
// bugs, origins and corpus bytes as a merge of results produced in order.
TEST(FuzzCampaignTest, MergeRecoversEvidenceALaterExecTookFirst) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  FaultCampaignConfig campaign;
  std::vector<FuzzInput> inputs = Rtl8029Seeds(campaign);

  FuzzExecutor forward_executor(campaign, rtl.image, rtl.pci);
  FuzzExecutor reverse_executor(campaign, rtl.image, rtl.pci);
  std::vector<FuzzExecResult> forward(inputs.size());
  std::vector<FuzzExecResult> reverse(inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    forward[i] = forward_executor.Execute(inputs[i]);
    reverse[inputs.size() - 1 - i] = reverse_executor.Execute(inputs[inputs.size() - 1 - i]);
  }
  // Without a key whose evidence went to a later exec the test shows nothing.
  size_t withheld = 0;
  for (size_t i = 0; i < inputs.size(); ++i) {
    ASSERT_EQ(forward[i].bug_keys, reverse[i].bug_keys) << i;
    withheld += forward[i].bugs_text != reverse[i].bugs_text ? 1 : 0;
  }
  ASSERT_GT(withheld, 0u);

  // Each merge saves what it kept as a corpus file; the bytes must match.
  auto merge = [&](const std::vector<FuzzExecResult>& results, const std::string& path,
                   FuzzLoopState* loop) {
    FuzzExecutor recovery(campaign, rtl.image, rtl.pci);
    auto rerun = [&recovery](const FuzzInput& input) { return recovery.Execute(input); };
    std::set<std::string> bug_keys;
    FuzzCorpus corpus;
    MergeBatch(inputs, results, 0, 256, rerun, &bug_keys, &corpus, loop);
    corpus.set_batches_done(1);
    EXPECT_TRUE(corpus.SaveToFile(path, 0x5EED, *loop).ok());
    Result<std::string> bytes = ReadWholeFile(path);
    std::remove(path.c_str());
    return bytes.ok() ? bytes.value() : std::string();
  };
  FuzzLoopState in_order;
  FuzzLoopState out_of_order;
  std::string in_order_bytes = merge(forward, testing::TempDir() + "merge_forward.bin", &in_order);
  std::string out_of_order_bytes =
      merge(reverse, testing::TempDir() + "merge_reverse.bin", &out_of_order);
  ASSERT_FALSE(in_order.bugs.empty());
  EXPECT_EQ(SerializeBugs(out_of_order.bugs), SerializeBugs(in_order.bugs));
  EXPECT_EQ(out_of_order.bug_origins, in_order.bug_origins);
  EXPECT_FALSE(in_order_bytes.empty());
  EXPECT_EQ(out_of_order_bytes, in_order_bytes);
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
