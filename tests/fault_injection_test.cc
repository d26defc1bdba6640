// Fault-injection campaign tests (§3.4 error-path testing):
//   - plan generation is deterministic and well-formed;
//   - a campaign over the RTL8029 corpus driver finds the latent
//     MosMapIoSpace-failure cleanup bug that a plain TestDriver run misses;
//   - the same campaign run twice produces the identical bug set (same seed,
//     same driver => same injection schedule);
//   - a fault-found bug replays concretely, with the recorded failure
//     schedule reproduced exactly.
#include "src/engine/fault_injection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "src/core/campaign_journal.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/support/check.h"
#include "src/support/record.h"
#include "src/vm/assembler.h"

namespace ddt {
namespace {

// ---------------------------------------------------------------------------
// FaultPlan / GenerateCampaignPlans units
// ---------------------------------------------------------------------------

TEST(FaultPlanTest, ShouldFailMatchesExactPoints) {
  FaultPlan plan;
  plan.points.push_back({FaultClass::kAllocation, 1});
  plan.points.push_back({FaultClass::kMapIoSpace, 0});
  EXPECT_TRUE(plan.ShouldFail(FaultClass::kAllocation, 1));
  EXPECT_TRUE(plan.ShouldFail(FaultClass::kMapIoSpace, 0));
  EXPECT_FALSE(plan.ShouldFail(FaultClass::kAllocation, 0));
  EXPECT_FALSE(plan.ShouldFail(FaultClass::kMapIoSpace, 1));
  EXPECT_FALSE(plan.ShouldFail(FaultClass::kRegistryRead, 0));
  EXPECT_FALSE(FaultPlan{}.ShouldFail(FaultClass::kAllocation, 0));
}

TEST(FaultPlanTest, EmptyProfileYieldsNoPlans) {
  EXPECT_TRUE(GenerateCampaignPlans(FaultSiteProfile{}, 1, 8, 2, 64).empty());
}

TEST(FaultPlanTest, SinglesComeFirstAndCoverTheProfile) {
  FaultSiteProfile profile;
  profile.max_occurrences[static_cast<size_t>(FaultClass::kAllocation)] = 3;
  profile.max_occurrences[static_cast<size_t>(FaultClass::kMapIoSpace)] = 1;
  std::vector<FaultPlan> plans = GenerateCampaignPlans(profile, 42, 8, 0, 64);
  ASSERT_EQ(plans.size(), 4u);  // 3 allocation singles + 1 map single
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(plans[i].points.size(), 1u);
    EXPECT_EQ(plans[i].points[0].cls, FaultClass::kAllocation);
    EXPECT_EQ(plans[i].points[0].occurrence, static_cast<uint32_t>(i));
  }
  EXPECT_EQ(plans[3].points[0].cls, FaultClass::kMapIoSpace);
}

TEST(FaultPlanTest, OccurrenceCapLimitsSingles) {
  FaultSiteProfile profile;
  profile.max_occurrences[static_cast<size_t>(FaultClass::kAllocation)] = 100;
  std::vector<FaultPlan> plans = GenerateCampaignPlans(profile, 42, 4, 0, 64);
  EXPECT_EQ(plans.size(), 4u);
}

TEST(FaultPlanTest, GenerationIsDeterministicInSeed) {
  FaultSiteProfile profile;
  profile.max_occurrences[static_cast<size_t>(FaultClass::kAllocation)] = 4;
  profile.max_occurrences[static_cast<size_t>(FaultClass::kRegistryRead)] = 2;
  std::vector<FaultPlan> a = GenerateCampaignPlans(profile, 7, 8, 3, 64);
  std::vector<FaultPlan> b = GenerateCampaignPlans(profile, 7, 8, 3, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].points.size(), b[i].points.size());
    for (size_t j = 0; j < a[i].points.size(); ++j) {
      EXPECT_TRUE(a[i].points[j] == b[i].points[j]);
    }
  }
  // Escalation rounds added multi-point combos past the 6 singles.
  EXPECT_GT(a.size(), 6u);
  for (size_t i = 6; i < a.size(); ++i) {
    EXPECT_GE(a[i].points.size(), 2u);
  }
}

// ---------------------------------------------------------------------------
// Campaign over the RTL8029 corpus driver
// ---------------------------------------------------------------------------

DdtConfig QuickConfig() {
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  return config;
}

FaultCampaignConfig QuickCampaign() {
  FaultCampaignConfig config;
  config.base = QuickConfig();
  config.max_passes = 12;
  config.max_occurrences_per_class = 4;
  config.escalation_rounds = 0;
  return config;
}

bool IsMapFailureCleanupBug(const Bug& bug) {
  return bug.type == BugType::kResourceLeak &&
         bug.title.find("map-io-space") != std::string::npos;
}

TEST(FaultCampaignTest, FindsLatentCleanupBugPlainRunMisses) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");

  // Plain run: the MosMapIoSpace failure path is dead code (BAR0 always
  // maps), so no bug mentions the map fault class.
  Ddt plain(QuickConfig());
  Result<DdtResult> plain_result = plain.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(plain_result.ok()) << plain_result.status().message();
  for (const Bug& bug : plain_result.value().bugs) {
    EXPECT_FALSE(IsMapFailureCleanupBug(bug)) << bug.Format(12);
  }

  // Campaign: the map-io-space#0 plan drives the driver down that path and
  // the cleanup checker flags the still-open configuration handle.
  Result<FaultCampaignResult> campaign =
      RunFaultCampaign(QuickCampaign(), driver.image, driver.pci);
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();
  const FaultCampaignResult& r = campaign.value();
  EXPECT_GT(r.total_faults_injected, 0u);
  EXPECT_GT(r.passes.size(), 1u);

  const Bug* latent = nullptr;
  for (const Bug& bug : r.bugs) {
    if (IsMapFailureCleanupBug(bug)) {
      latent = &bug;
      break;
    }
  }
  ASSERT_NE(latent, nullptr) << r.FormatReport(driver.name);
  // The bug records both the plan that exposed it and the concrete schedule.
  EXPECT_FALSE(latent->fault_plan.empty());
  ASSERT_FALSE(latent->fault_schedule.empty());
  EXPECT_EQ(latent->fault_schedule[0].cls, FaultClass::kMapIoSpace);
  EXPECT_EQ(latent->fault_schedule[0].api, "MosMapIoSpace");
  // The campaign also retains every baseline bug (merge keeps pass-0 output).
  EXPECT_GE(r.bugs.size(), plain_result.value().bugs.size());
}

TEST(FaultCampaignTest, CampaignIsDeterministic) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  auto run = [&] {
    Result<FaultCampaignResult> r = RunFaultCampaign(QuickCampaign(), driver.image, driver.pci);
    EXPECT_TRUE(r.ok());
    std::vector<std::string> keys;
    for (const Bug& bug : r.value().bugs) {
      keys.push_back(std::string(BugTypeName(bug.type)) + "|" + bug.title + "|" +
                     bug.fault_plan.ToString());
    }
    return keys;
  };
  std::vector<std::string> first = run();
  std::vector<std::string> second = run();
  EXPECT_EQ(first, second);
  EXPECT_FALSE(first.empty());
}

TEST(FaultCampaignTest, FaultFoundBugReplaysConcretely) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  DdtConfig config = QuickConfig();
  Result<FaultCampaignResult> campaign =
      RunFaultCampaign(QuickCampaign(), driver.image, driver.pci);
  ASSERT_TRUE(campaign.ok());

  const Bug* latent = nullptr;
  for (const Bug& bug : campaign.value().bugs) {
    if (IsMapFailureCleanupBug(bug)) {
      latent = &bug;
      break;
    }
  }
  ASSERT_NE(latent, nullptr);
  ReplayResult replay = ReplayBug(driver.image, driver.pci, *latent, config);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
}

// ---------------------------------------------------------------------------
// Parallel scheduler determinism
// ---------------------------------------------------------------------------

TEST(FaultCampaignTest, ParallelCampaignMatchesSequentialExactly) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  auto run = [&](uint32_t threads) {
    FaultCampaignConfig config = QuickCampaign();
    config.threads = threads;
    Result<FaultCampaignResult> r = RunFaultCampaign(config, driver.image, driver.pci);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return std::move(r.value());
  };
  FaultCampaignResult sequential = run(1);
  FaultCampaignResult parallel = run(4);

  EXPECT_EQ(sequential.threads_used, 1u);
  EXPECT_GT(parallel.threads_used, 1u);

  // Merged bugs: same set, same order.
  ASSERT_EQ(sequential.bugs.size(), parallel.bugs.size());
  for (size_t i = 0; i < sequential.bugs.size(); ++i) {
    EXPECT_EQ(sequential.bugs[i].Row(), parallel.bugs[i].Row()) << "bug " << i;
    EXPECT_EQ(sequential.bugs[i].fault_plan.ToString(),
              parallel.bugs[i].fault_plan.ToString());
  }
  // Pass table: same plans in the same order with the same outcomes.
  ASSERT_EQ(sequential.passes.size(), parallel.passes.size());
  for (size_t i = 0; i < sequential.passes.size(); ++i) {
    EXPECT_EQ(sequential.passes[i].plan.ToString(), parallel.passes[i].plan.ToString());
    EXPECT_EQ(sequential.passes[i].bugs_found, parallel.passes[i].bugs_found) << "pass " << i;
    EXPECT_EQ(sequential.passes[i].bugs_new, parallel.passes[i].bugs_new) << "pass " << i;
    EXPECT_EQ(sequential.passes[i].stats.instructions, parallel.passes[i].stats.instructions)
        << "pass " << i;
  }
  // Aggregates over deterministic per-pass counters agree too.
  EXPECT_EQ(sequential.total_faults_injected, parallel.total_faults_injected);
  EXPECT_EQ(sequential.total_stats.instructions, parallel.total_stats.instructions);
  EXPECT_EQ(sequential.total_solver_stats.queries, parallel.total_solver_stats.queries);
}

// ---------------------------------------------------------------------------
// Plain runs stay fault-free
// ---------------------------------------------------------------------------

TEST(FaultCampaignTest, NoPlanMeansNoInjections) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  Ddt ddt(QuickConfig());
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.faults_injected, 0u);
  for (const Bug& bug : result.value().bugs) {
    EXPECT_TRUE(bug.fault_schedule.empty());
    EXPECT_TRUE(bug.fault_plan.empty());
  }
  // The baseline still profiles fault-eligible sites for the campaign.
  EXPECT_FALSE(ddt.engine().fault_site_profile().Empty());
}

// ---------------------------------------------------------------------------
// Campaign supervisor: checkpoint/resume, watchdog, retry, quarantine
// ---------------------------------------------------------------------------

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// A campaign killed mid-run and resumed — at any thread count, even with a
// torn half-written record at the kill point — must produce a deterministic
// report byte-identical to an uninterrupted run.
TEST(FaultCampaignSupervisorTest, KillAndResumeReportIsByteIdentical) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");

  std::string full_path = TempPath("campaign_full.journal");
  FaultCampaignConfig config = QuickCampaign();
  config.journal_path = full_path;
  Result<FaultCampaignResult> full = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(full.ok()) << full.status().message();
  std::string reference = full.value().FormatReport(driver.name, /*include_volatile=*/false);
  size_t total_passes = full.value().passes.size();
  ASSERT_GT(total_passes, 1u);

  // The journal holds one header record plus one record per pass.
  std::string journal = ReadFile(full_path);
  std::vector<size_t> record_ends;
  std::string_view payload;
  for (size_t pos = 0; ReadRecord(journal, &pos, &payload) == RecordRead::kRecord;) {
    record_ends.push_back(pos);
  }
  ASSERT_EQ(record_ends.size(), total_passes + 1);
  ASSERT_EQ(record_ends.back(), journal.size());

  // Simulate a kill: keep the header and the first half of the records, then
  // a torn half-appended record (the exact on-disk shape a SIGKILL leaves).
  size_t keep_records = total_passes / 2;
  size_t pos = record_ends[keep_records];
  std::string truncated =
      journal.substr(0, pos) + journal.substr(pos, (record_ends[keep_records + 1] - pos) / 2);

  auto resume_run = [&](const std::string& path, uint32_t threads) {
    FaultCampaignConfig rc = QuickCampaign();
    rc.threads = threads;
    rc.journal_path = path;
    rc.resume = true;
    Result<FaultCampaignResult> r = RunFaultCampaign(rc, driver.image, driver.pci);
    EXPECT_TRUE(r.ok()) << r.status().message();
    return std::move(r.value());
  };

  // Resume sequentially.
  std::string t1 = TempPath("campaign_resume_t1.journal");
  WriteFile(t1, truncated);
  FaultCampaignResult r1 = resume_run(t1, 1);
  EXPECT_EQ(r1.passes_loaded, keep_records);
  EXPECT_EQ(r1.passes.size(), total_passes);
  EXPECT_EQ(r1.FormatReport(driver.name, false), reference);

  // Resume in parallel (resume repairs the file in place, so each resume
  // starts from a fresh copy of the interrupted journal).
  std::string t4 = TempPath("campaign_resume_t4.journal");
  WriteFile(t4, truncated);
  FaultCampaignResult r4 = resume_run(t4, 4);
  EXPECT_EQ(r4.passes_loaded, keep_records);
  EXPECT_EQ(r4.FormatReport(driver.name, false), reference);

  // Resuming a journal of a finished campaign re-runs nothing at all.
  FaultCampaignResult done = resume_run(full_path, 1);
  EXPECT_EQ(done.passes_loaded, done.passes.size());
  EXPECT_EQ(done.FormatReport(driver.name, false), reference);
}

// A pass that hangs (here: an injected alloc failure steering init into an
// infinite concrete loop) is cancelled by the watchdog, retried with doubled
// budgets, and finally quarantined — while the campaign itself succeeds.
TEST(FaultCampaignSupervisorTest, WatchdogCancelsAndQuarantinesHungPass) {
  std::string source = R"(
  .driver "toy_hang"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    movi r0, 64
    kcall MosAllocatePool
    bz r0, fail
    movi r0, 0
    ret
  fail:
    movi r1, 1
  spin:
    bnz r1, spin
    movi r0, 1
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
)";
  Result<AssembledDriver> assembled = Assemble(source);
  ASSERT_TRUE(assembled.ok()) << assembled.error();
  PciDescriptor pci;
  pci.vendor_id = 0x10EC;
  pci.device_id = 0x8029;
  pci.irq_line = 10;
  pci.bars.push_back(PciBar{0x100});

  FaultCampaignConfig config;
  // Generous backstop so a broken watchdog fails the test instead of hanging
  // it; the happy-path baseline never gets near either limit.
  config.base.engine.max_instructions = 50'000'000;
  config.base.engine.max_wall_ms = 3'600'000;
  // Error paths come from the campaign plan; the alloc annotation would fork
  // the baseline into the hang too.
  config.base.use_standard_annotations = false;
  config.base.use_default_checkers = false;
  config.max_passes = 4;
  config.max_occurrences_per_class = 4;
  config.escalation_rounds = 0;
  config.threads = 1;
  config.max_pass_wall_ms = 100;
  config.max_pass_retries = 2;
  config.retry_backoff_ms = 1;

  Result<FaultCampaignResult> campaign =
      RunFaultCampaign(config, assembled.value().image, pci);
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();
  const FaultCampaignResult& r = campaign.value();

  ASSERT_EQ(r.passes.size(), 2u);  // baseline + allocation#0
  EXPECT_FALSE(r.passes[0].quarantined);
  EXPECT_TRUE(r.passes[1].quarantined);
  EXPECT_EQ(r.passes[1].retries, 2u);  // both retries consumed before giving up
  EXPECT_NE(r.passes[1].failure.find("watchdog"), std::string::npos) << r.passes[1].failure;
  EXPECT_EQ(r.passes_quarantined, 1u);
  EXPECT_GE(r.passes_retried, 1u);

  std::string report = r.FormatReport("toy_hang");
  EXPECT_NE(report.find("QUARANTINED"), std::string::npos) << report;
}

// A checker whose every callback trips an engine invariant. With the
// supervisor's check trap, this quarantines the pass instead of aborting the
// whole process.
class ExplodingChecker : public Checker {
 public:
  std::string name() const override { return "exploding"; }
  void OnInstruction(ExecutionState& st, uint32_t pc, CheckerHost& host) override {
    DDT_CHECK_MSG(pc == 0xFFFFFFFF, "intentional test explosion");
  }
};

TEST(FaultCampaignSupervisorTest, InvariantFailureQuarantinesPassNotProcess) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string path = TempPath("campaign_trap.journal");

  FaultCampaignConfig config = QuickCampaign();
  config.max_passes = 3;
  config.threads = 2;
  config.journal_path = path;
  // Sabotage every fault pass (but not the baseline).
  config.configure_pass = [](Ddt& ddt, const FaultPlan& plan) {
    if (!plan.empty()) {
      ddt.AddChecker(std::make_unique<ExplodingChecker>());
    }
  };

  Result<FaultCampaignResult> campaign = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();
  const FaultCampaignResult& r = campaign.value();
  ASSERT_EQ(r.passes.size(), 3u);
  EXPECT_FALSE(r.passes[0].quarantined);
  for (size_t i = 1; i < r.passes.size(); ++i) {
    EXPECT_TRUE(r.passes[i].quarantined) << "pass " << i;
    EXPECT_EQ(r.passes[i].retries, 0u);  // deterministic failure: no retries
    EXPECT_NE(r.passes[i].failure.find("engine invariant failure"), std::string::npos)
        << r.passes[i].failure;
    EXPECT_NE(r.passes[i].failure.find("intentional test explosion"), std::string::npos);
  }
  EXPECT_EQ(r.passes_quarantined, 2u);
  // Quarantined passes contribute no bugs: everything left is baseline output.
  EXPECT_FALSE(r.bugs.empty());
  for (const Bug& bug : r.bugs) {
    EXPECT_TRUE(bug.fault_plan.empty()) << bug.Row();
  }

  // Quarantine decisions are durable: resuming the journal restores all three
  // passes (including the quarantined ones) without re-running anything.
  FaultCampaignConfig rc = config;
  rc.resume = true;
  Result<FaultCampaignResult> resumed = RunFaultCampaign(rc, driver.image, driver.pci);
  ASSERT_TRUE(resumed.ok()) << resumed.status().message();
  EXPECT_EQ(resumed.value().passes_loaded, 3u);
  EXPECT_EQ(resumed.value().passes_quarantined, 2u);
  EXPECT_EQ(resumed.value().FormatReport(driver.name, false),
            r.FormatReport(driver.name, false));
}

TEST(FaultCampaignSupervisorTest, RejectsInvalidSupervisorConfig) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  auto expect_error = [&](const FaultCampaignConfig& config, const std::string& needle) {
    Result<FaultCampaignResult> r = RunFaultCampaign(config, driver.image, driver.pci);
    ASSERT_FALSE(r.ok()) << "expected failure mentioning: " << needle;
    EXPECT_NE(r.status().message().find(needle), std::string::npos) << r.status().message();
  };

  FaultCampaignConfig c = QuickCampaign();
  c.max_passes = 0;
  expect_error(c, "max_passes");

  c = QuickCampaign();
  c.max_pass_retries = 17;
  expect_error(c, "max_pass_retries");

  c = QuickCampaign();
  c.retry_backoff_ms = 60'001;
  expect_error(c, "retry_backoff_ms");

  c = QuickCampaign();
  c.resume = true;
  expect_error(c, "journal_path");

  c = QuickCampaign();
  c.journal_path = "/nonexistent-dir/journal.journal";
  expect_error(c, "cannot open");

  c = QuickCampaign();
  c.resume = true;
  c.journal_path = TempPath("campaign_never_written.journal");
  expect_error(c, "does not exist");
}

TEST(FaultCampaignSupervisorTest, ResumeRejectsJournalFromDifferentCampaign) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string path = TempPath("campaign_mismatch.journal");
  {
    // A journal with the right driver name but a foreign config fingerprint.
    Result<std::unique_ptr<CampaignJournal>> journal =
        CampaignJournal::Create(path, driver.name, 0x1234);
    ASSERT_TRUE(journal.ok()) << journal.error();
  }
  FaultCampaignConfig config = QuickCampaign();
  config.resume = true;
  config.journal_path = path;
  Result<FaultCampaignResult> r = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("different configuration"), std::string::npos)
      << r.status().message();
}

// Engine-level cooperative cancellation: a pre-set abort token makes
// TestDriver wind down immediately (the watchdog's mechanism, in isolation).
TEST(FaultCampaignSupervisorTest, PresetAbortTokenStopsTheEngineImmediately) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  DdtConfig config = QuickConfig();
  config.engine.abort_token = std::make_shared<std::atomic<bool>>(true);
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();
  EXPECT_TRUE(result.value().aborted);
  // The run never got anywhere: the budget check trips before real work.
  EXPECT_LT(result.value().stats.instructions, 1000u);
  EXPECT_TRUE(result.value().bugs.empty());
}

}  // namespace
}  // namespace ddt
