// Hardware fault plane tests (hostile-hardware robustness):
//   - hw plan generation is deterministic, covers first and last observed
//     interaction, and respects the per-kind budget;
//   - surprise removal latches: reads float all-ones, writes drop, and the
//     PnP removal path is delivered exactly once;
//   - a campaign with the hw plane on stays byte-identical across thread
//     counts;
//   - a saved hardware-fault bug report replays end-to-end after a
//     serialize/deserialize round trip through the evidence-file format.
#include "src/hw/hw_fault.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/engine/fault_injection.h"

namespace ddt {
namespace {

DdtConfig QuickConfig() {
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  return config;
}

FaultCampaignConfig QuickHwCampaign() {
  FaultCampaignConfig config;
  config.base = QuickConfig();
  config.max_passes = 16;
  config.max_occurrences_per_class = 4;
  config.escalation_rounds = 0;
  config.hw_faults = true;
  config.hw_max_points_per_kind = 3;
  return config;
}

// ---------------------------------------------------------------------------
// HwFaultPoint / GenerateHwCampaignPlans units
// ---------------------------------------------------------------------------

TEST(HwFaultPlanTest, ShouldTriggerHwMatchesExactPoints) {
  FaultPlan plan;
  plan.hw_points.push_back({HwFaultKind::kSurpriseRemoval, 7});
  plan.hw_points.push_back({HwFaultKind::kIrqStorm, 0});
  EXPECT_TRUE(plan.ShouldTriggerHw(HwFaultKind::kSurpriseRemoval, 7));
  EXPECT_TRUE(plan.ShouldTriggerHw(HwFaultKind::kIrqStorm, 0));
  EXPECT_FALSE(plan.ShouldTriggerHw(HwFaultKind::kSurpriseRemoval, 6));
  EXPECT_FALSE(plan.ShouldTriggerHw(HwFaultKind::kStickyError, 7));
  EXPECT_FALSE(plan.empty());
  EXPECT_FALSE(FaultPlan{}.ShouldTriggerHw(HwFaultKind::kSurpriseRemoval, 0));
}

TEST(HwFaultPlanTest, EmptyProfileYieldsNoPlans) {
  EXPECT_TRUE(GenerateHwCampaignPlans(HwSiteProfile{}, 4, 64).empty());
}

TEST(HwFaultPlanTest, SamplingCoversFirstAndLastInteraction) {
  HwSiteProfile profile;
  profile.max_mmio_accesses = 100;
  std::vector<FaultPlan> plans = GenerateHwCampaignPlans(profile, 4, 64);
  // Only the MMIO-access-indexed kind has an extent, so only surprise-removal
  // plans are generated: 4 single-point plans sampled across [0, 99].
  ASSERT_EQ(plans.size(), 4u);
  for (const FaultPlan& plan : plans) {
    ASSERT_EQ(plan.hw_points.size(), 1u);
    EXPECT_EQ(plan.hw_points[0].kind, HwFaultKind::kSurpriseRemoval);
    EXPECT_TRUE(plan.points.empty());
    EXPECT_FALSE(plan.label.empty());
  }
  EXPECT_EQ(plans.front().hw_points[0].index, 0u);
  EXPECT_EQ(plans.back().hw_points[0].index, 99u);
}

TEST(HwFaultPlanTest, BudgetCapsPlansPerKindAndGenerationIsDeterministic) {
  HwSiteProfile profile;
  profile.max_mmio_accesses = 50;
  profile.max_mmio_reads = 40;
  profile.max_mmio_writes = 10;
  profile.max_crossings = 30;
  profile.max_interrupts = 5;
  std::vector<FaultPlan> a = GenerateHwCampaignPlans(profile, 2, 64);
  std::vector<FaultPlan> b = GenerateHwCampaignPlans(profile, 2, 64);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    ASSERT_EQ(a[i].hw_points.size(), 1u);
    EXPECT_TRUE(a[i].hw_points[0] == b[i].hw_points[0]);
  }
  // Every kind has a nonzero extent; at most 2 plans each.
  size_t per_kind[kNumHwFaultKinds] = {};
  for (const FaultPlan& plan : a) {
    ++per_kind[static_cast<size_t>(plan.hw_points[0].kind)];
  }
  for (size_t kind = 0; kind < kNumHwFaultKinds; ++kind) {
    EXPECT_GE(per_kind[kind], 1u) << HwFaultKindName(static_cast<HwFaultKind>(kind));
    EXPECT_LE(per_kind[kind], 2u) << HwFaultKindName(static_cast<HwFaultKind>(kind));
  }
  // The overall budget truncates deterministically.
  EXPECT_EQ(GenerateHwCampaignPlans(profile, 2, 3).size(), 3u);
}

// ---------------------------------------------------------------------------
// Surprise-removal semantics on the RTL8029 corpus driver
// ---------------------------------------------------------------------------

TEST(HwFaultEngineTest, SurpriseRemovalLatchesAndFloatsReads) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");

  // Baseline: no hw plan, no hw faults, but the hw-site profile is captured
  // for the campaign planner.
  DdtConfig config = QuickConfig();
  Ddt baseline(config);
  Result<DdtResult> base = baseline.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(base.ok()) << base.status().message();
  EXPECT_EQ(base.value().stats.hw_faults_injected, 0u);
  const HwSiteProfile& profile = baseline.engine().hw_site_profile();
  ASSERT_FALSE(profile.Empty());
  ASSERT_GT(profile.max_mmio_accesses, 1u);

  // Removal right after the first MMIO access: every later read floats
  // all-ones, every later write is dropped, and the PnP removal path runs
  // exactly once per affected execution path.
  config.engine.fault_plan.label = "hw surprise-removal#1";
  config.engine.fault_plan.hw_points.push_back({HwFaultKind::kSurpriseRemoval, 1});
  Ddt removed(config);
  Result<DdtResult> result = removed.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const EngineStats& stats = result.value().stats;
  EXPECT_GT(stats.hw_faults_injected, 0u);
  EXPECT_GT(stats.hw_removals, 0u);
  EXPECT_GT(stats.hw_reads_floated, 0u);
  EXPECT_GT(stats.hw_writes_dropped, 0u);
  EXPECT_GT(stats.hw_removal_events, 0u);

  // Determinism: the identical plan injects the identical fault schedule.
  Ddt again(config);
  Result<DdtResult> repeat = again.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value().stats.hw_faults_injected, stats.hw_faults_injected);
  EXPECT_EQ(repeat.value().stats.hw_reads_floated, stats.hw_reads_floated);
  EXPECT_EQ(repeat.value().stats.hw_writes_dropped, stats.hw_writes_dropped);
}

TEST(HwFaultEngineTest, RemovedReadBitsFloatAllOnesPerWidth) {
  EXPECT_EQ(HwRemovedReadBits(1), 0xFFu);
  EXPECT_EQ(HwRemovedReadBits(2), 0xFFFFu);
  EXPECT_EQ(HwRemovedReadBits(4), 0xFFFFFFFFu);
}

// ---------------------------------------------------------------------------
// Campaign determinism with the hw plane on
// ---------------------------------------------------------------------------

TEST(HwFaultCampaignTest, HwPlaneCampaignIsByteIdenticalAcrossSchedulers) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  auto report = [&](uint32_t threads) {
    FaultCampaignConfig config = QuickHwCampaign();
    config.base.dma_checker = true;
    config.threads = threads;
    Result<FaultCampaignResult> r = RunFaultCampaign(config, driver.image, driver.pci);
    EXPECT_TRUE(r.ok()) << r.status().message();
    EXPECT_GT(r.value().total_stats.hw_faults_injected, 0u);
    return r.value().FormatReport(driver.name, /*include_volatile=*/false);
  };
  std::string sequential = report(1);
  EXPECT_EQ(report(4), sequential);
  // Hw plans appear in the deterministic pass table under their own labels.
  EXPECT_NE(sequential.find("hw "), std::string::npos) << sequential;
}

TEST(HwFaultCampaignTest, HwPlaneOffLeavesScheduleAndReportUntouched) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = QuickHwCampaign();
  config.hw_faults = false;
  Result<FaultCampaignResult> r = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().total_stats.hw_faults_injected, 0u);
  std::string report = r.value().FormatReport(driver.name, /*include_volatile=*/false);
  EXPECT_EQ(report.find("hw "), std::string::npos) << report;
  EXPECT_EQ(report.find("hw faults"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Saved hardware-fault bug reports replay end-to-end
// ---------------------------------------------------------------------------

TEST(HwFaultReplayTest, SavedHwBugReportReplaysAfterRoundTrip) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = QuickHwCampaign();
  config.base.dma_checker = true;
  Result<FaultCampaignResult> campaign = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(campaign.ok()) << campaign.status().message();

  // Collect every bug a hardware fault plan exposed.
  std::vector<Bug> hw_bugs;
  for (const Bug& bug : campaign.value().bugs) {
    if (!bug.fault_plan.hw_points.empty()) {
      hw_bugs.push_back(bug);
    }
  }
  ASSERT_FALSE(hw_bugs.empty()) << campaign.value().FormatReport(driver.name);

  // Round-trip through the evidence-file format: the hw fault plan and the
  // concrete injection schedule must survive serialization, because replay on
  // another machine only has the file.
  std::string path = testing::TempDir() + "hw_bug_roundtrip.report";
  ASSERT_TRUE(SaveBugsFile(path, hw_bugs).ok());
  Result<std::vector<Bug>> loaded = LoadBugsFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ASSERT_EQ(loaded.value().size(), hw_bugs.size());
  for (size_t b = 0; b < hw_bugs.size(); ++b) {
    const Bug& bug = loaded.value()[b];
    EXPECT_EQ(bug.title, hw_bugs[b].title);
    ASSERT_EQ(bug.fault_plan.hw_points.size(), hw_bugs[b].fault_plan.hw_points.size());
    for (size_t i = 0; i < bug.fault_plan.hw_points.size(); ++i) {
      EXPECT_TRUE(bug.fault_plan.hw_points[i] == hw_bugs[b].fault_plan.hw_points[i]);
    }
    ASSERT_EQ(bug.hw_fault_schedule.size(), hw_bugs[b].hw_fault_schedule.size());
  }

  // A path that carries several bugs can replay into a sibling first, so the
  // contract is: at least one loaded hw bug reproduces from the file alone.
  int reproduced = 0;
  for (const Bug& bug : loaded.value()) {
    ReplayResult replay = ReplayBug(driver.image, driver.pci, bug, config.base);
    if (replay.reproduced) {
      ++reproduced;
    }
  }
  EXPECT_GT(reproduced, 0);
}

}  // namespace
}  // namespace ddt
