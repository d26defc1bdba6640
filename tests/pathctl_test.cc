// Path-explosion control (src/engine/pathctl.h): kill-rule parsing and the
// hot-fork-site ranking; the loop/edge killer terminating redundant loops a
// checker-less (or checker-blind) run would grind through; diamond state
// merging engaging on reconvergent branches without changing any verdict;
// and the campaign-level determinism contract — with the controls on, the
// rtl8029 campaign finds the identical bug set (including the map-io-space
// and pageable multicast-DMA latents) as the controls-off campaign, with
// byte-identical deterministic reports across thread counts, fleet workers,
// and journal resume.
#include "src/engine/pathctl.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/fleet/fleet.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"

namespace ddt {
namespace {

// --- units: rule parsing, fork-site codec ----------------------------------

TEST(PathCtlTest, ParseEdgeKillRuleAcceptsHexAndDecimal) {
  EdgeKillRule rule;
  ASSERT_TRUE(ParseEdgeKillRule("0x10020:0x10004", &rule));
  EXPECT_EQ(rule.from, 0x10020u);
  EXPECT_EQ(rule.to, 0x10004u);
  ASSERT_TRUE(ParseEdgeKillRule("256:512", &rule));
  EXPECT_EQ(rule.from, 256u);
  EXPECT_EQ(rule.to, 512u);

  EXPECT_FALSE(ParseEdgeKillRule("", &rule));
  EXPECT_FALSE(ParseEdgeKillRule("0x10", &rule));
  EXPECT_FALSE(ParseEdgeKillRule("0x10:", &rule));
  EXPECT_FALSE(ParseEdgeKillRule(":0x10", &rule));
  EXPECT_FALSE(ParseEdgeKillRule("a:b", &rule));
  EXPECT_FALSE(ParseEdgeKillRule("1:2:3", &rule));
}

TEST(PathCtlTest, FormatHotForkSitesRanksByStatesCreated) {
  ForkSiteTable table;
  table[{0x100, "-"}].states_created = 2;
  table[{0x200, "alloc#0"}].states_created = 9;
  std::string out = FormatHotForkSites(table, 8);
  EXPECT_NE(out.find("hot fork sites"), std::string::npos);
  size_t hot = out.find("pc=00000200");
  size_t cold = out.find("pc=00000100");
  ASSERT_NE(hot, std::string::npos);
  ASSERT_NE(cold, std::string::npos);
  EXPECT_LT(hot, cold);  // most states spawned first

  EXPECT_NE(FormatHotForkSites(ForkSiteTable(), 8).find("none observed"),
            std::string::npos);
}

// --- loop/edge killer -------------------------------------------------------

// A long counted spin with nothing else in it. With default checkers the
// loop heuristic would end it at 100k frame-steps; with checkers off, only
// the pathctl killer stands between the engine and the instruction budget.
struct SpinDriver {
  DriverImage image;
  uint32_t spin_pc = 0;  // leader of the spin block; the back edge is spin->spin
};

SpinDriver AssembleSpin() {
  static const char* kSource = R"(
  .driver "spin"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    movi r1, 1000000
  spin:
    subi r1, r1, 1
    bnz r1, spin
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
)";
  Result<AssembledDriver> assembled = Assemble(kSource);
  EXPECT_TRUE(assembled.ok()) << assembled.error();
  SpinDriver out;
  out.image = assembled.value().image;
  out.spin_pc = assembled.value().symbols.at("spin");
  return out;
}

PciDescriptor SpinPci() {
  PciDescriptor pci;
  pci.vendor_id = 1;
  pci.device_id = 1;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

DdtConfig SpinConfig() {
  DdtConfig config;
  config.engine.max_instructions = 300'000;
  config.engine.max_wall_ms = 120'000;
  config.use_default_checkers = false;
  config.use_standard_annotations = false;
  return config;
}

TEST(PathCtlTest, BackEdgeKillerTerminatesCoverageStarvedLoop) {
  SpinDriver spin = AssembleSpin();

  DdtConfig off = SpinConfig();
  Ddt baseline(off);
  Result<DdtResult> base = baseline.TestDriver(spin.image, SpinPci());
  ASSERT_TRUE(base.ok()) << base.status().message();
  EXPECT_EQ(base.value().stats.loop_kills, 0u);
  EXPECT_GE(base.value().stats.instructions, 290'000u);  // ate the whole budget

  DdtConfig on = SpinConfig();
  on.engine.pathctl.enabled = true;
  on.engine.pathctl.backedge_kill_threshold = 1000;
  Ddt killed(on);
  Result<DdtResult> kill = killed.TestDriver(spin.image, SpinPci());
  ASSERT_TRUE(kill.ok()) << kill.status().message();
  EXPECT_EQ(kill.value().stats.loop_kills, 1u);
  EXPECT_LT(kill.value().stats.instructions, 50'000u);

  // Deterministic: the kill lands on the same instruction every run.
  Ddt again(on);
  Result<DdtResult> repeat = again.TestDriver(spin.image, SpinPci());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value().stats.instructions, kill.value().stats.instructions);
  EXPECT_EQ(repeat.value().stats.loop_kills, 1u);
}

TEST(PathCtlTest, ExplicitEdgeRuleKillsAndCountsPerRule) {
  SpinDriver spin = AssembleSpin();

  DdtConfig config = SpinConfig();
  config.engine.pathctl.enabled = true;
  config.engine.pathctl.loop_kill = false;  // only the declarative rule may fire
  config.engine.pathctl.kill_edges.push_back(EdgeKillRule{spin.spin_pc, spin.spin_pc});
  Ddt ddt(config);
  Result<DdtResult> r = ddt.TestDriver(spin.image, SpinPci());
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().stats.loop_kills, 0u);
  EXPECT_EQ(r.value().stats.edge_kills, 1u);
  ASSERT_EQ(r.value().stats.edge_rule_kills.size(), 1u);
  EXPECT_EQ(r.value().stats.edge_rule_kills[0], 1u);
  EXPECT_LT(r.value().stats.instructions, 10'000u);  // first traversal dies

  // Rules are inert while pathctl is disabled: declarative kills must never
  // leak into a controls-off run.
  DdtConfig disabled = SpinConfig();
  disabled.engine.pathctl.kill_edges.push_back(EdgeKillRule{spin.spin_pc, spin.spin_pc});
  Ddt inert(disabled);
  Result<DdtResult> quiet = inert.TestDriver(spin.image, SpinPci());
  ASSERT_TRUE(quiet.ok());
  EXPECT_EQ(quiet.value().stats.edge_kills, 0u);
  EXPECT_GE(quiet.value().stats.instructions, 290'000u);
}

// --- diamond state merging --------------------------------------------------

// Four forward branch diamonds over independent symbolic device reads: an
// unmerged exploration fans out toward 2^4 leaves, a merging one folds each
// diamond back to one state at its join.
DriverImage DiamondImage() {
  std::string rounds;
  for (int i = 0; i < 4; ++i) {
    rounds += StrFormat(
        "    ld32 r1, [r5+%d]\n"
        "    andi r1, r1, 0xFF\n"
        "    subi r1, r1, %d\n"
        "    bz r1, hit%d\n"
        "    addi r6, r6, 1\n"
        "  hit%d:\n",
        i * 4, 10 + i, i, i);
  }
  std::string source = R"(
  .driver "diamond"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    movi r6, 0
    movi r0, 0
    kcall MosMapIoSpace
    bz r0, map_failed
    mov r5, r0
)" + rounds + R"(
    movi r0, 0
    ret
  map_failed:
    movi r0, 0xC000009A
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
  EXPECT_TRUE(assembled.ok()) << assembled.error();
  return assembled.value().image;
}

TEST(PathCtlTest, DiamondMergingFoldsReconvergentStatesWithoutChangingBugs) {
  DriverImage image = DiamondImage();
  DdtConfig off;
  off.engine.max_instructions = 2'000'000;
  off.engine.max_wall_ms = 120'000;
  off.use_standard_annotations = false;
  Ddt unmerged(off);
  Result<DdtResult> u = unmerged.TestDriver(image, SpinPci());
  ASSERT_TRUE(u.ok()) << u.status().message();
  EXPECT_EQ(u.value().stats.states_merged, 0u);

  DdtConfig on = off;
  on.engine.pathctl.enabled = true;
  Ddt merged(on);
  Result<DdtResult> m = merged.TestDriver(image, SpinPci());
  ASSERT_TRUE(m.ok()) << m.status().message();
  EXPECT_GT(m.value().stats.states_merged, 0u);
  EXPECT_LT(m.value().stats.states_created, u.value().stats.states_created);

  ASSERT_EQ(m.value().bugs.size(), u.value().bugs.size());
  for (size_t i = 0; i < u.value().bugs.size(); ++i) {
    EXPECT_EQ(m.value().bugs[i].Row(), u.value().bugs[i].Row());
  }

  // Merging is deterministic: same merge count and state totals every run.
  Ddt again(on);
  Result<DdtResult> repeat = again.TestDriver(image, SpinPci());
  ASSERT_TRUE(repeat.ok());
  EXPECT_EQ(repeat.value().stats.states_merged, m.value().stats.states_merged);
  EXPECT_EQ(repeat.value().stats.states_created, m.value().stats.states_created);
}

// --- campaign-level merge correctness and determinism -----------------------

FaultCampaignConfig CampaignConfig(bool pathctl) {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.base.engine.pathctl.enabled = pathctl;
  config.max_passes = 8;
  config.max_occurrences_per_class = 2;
  config.escalation_rounds = 1;
  config.threads = 1;
  return config;
}

// Sorted: merging reorders within-pass exploration, so the merged campaign
// may *discover* (and thus list) the same bugs in a different order. The
// contract is set identity; ordering determinism is covered by the on-vs-on
// report diffs below.
std::vector<std::string> BugRows(const FaultCampaignResult& result) {
  std::vector<std::string> rows;
  for (const Bug& bug : result.bugs) {
    rows.push_back(bug.Row());
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

bool HasTitle(const FaultCampaignResult& result, const std::string& needle) {
  for (const Bug& bug : result.bugs) {
    if (bug.title.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

TEST(PathCtlCampaignTest, MergedCampaignFindsIdenticalBugSetAtAnyThreadCount) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  Result<FaultCampaignResult> off =
      RunFaultCampaign(CampaignConfig(false), driver.image, driver.pci);
  ASSERT_TRUE(off.ok()) << off.status().message();

  FaultCampaignConfig on1 = CampaignConfig(true);
  Result<FaultCampaignResult> r1 = RunFaultCampaign(on1, driver.image, driver.pci);
  ASSERT_TRUE(r1.ok()) << r1.status().message();
  EXPECT_EQ(BugRows(r1.value()), BugRows(off.value()));
  EXPECT_TRUE(HasTitle(r1.value(), "MosMapIoSpace[map-io-space#0]"));

  FaultCampaignConfig on4 = CampaignConfig(true);
  on4.threads = 4;
  Result<FaultCampaignResult> r4 = RunFaultCampaign(on4, driver.image, driver.pci);
  ASSERT_TRUE(r4.ok()) << r4.status().message();
  EXPECT_EQ(r4.value().FormatReport(driver.name, /*include_volatile=*/false),
            r1.value().FormatReport(driver.name, /*include_volatile=*/false));

  // The fork profiler is always on: controls-off campaigns still attribute
  // their states to fork sites, and the volatile report surfaces the table.
  EXPECT_FALSE(off.value().total_stats.fork_sites.empty());
  std::string volatile_report = off.value().FormatReport(driver.name, true);
  EXPECT_NE(volatile_report.find("hot fork sites"), std::string::npos);
  EXPECT_NE(volatile_report.find("searcher coverage-greedy"), std::string::npos);
}

TEST(PathCtlCampaignTest, MergedCampaignPreservesHwAndDmaLatents) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig off = CampaignConfig(false);
  off.max_passes = 24;  // room for the hw fault plans after the kernel plans
  off.hw_faults = true;
  off.hw_max_points_per_kind = 2;
  off.base.dma_checker = true;
  FaultCampaignConfig on = off;
  on.base.engine.pathctl.enabled = true;

  Result<FaultCampaignResult> r_off = RunFaultCampaign(off, driver.image, driver.pci);
  ASSERT_TRUE(r_off.ok()) << r_off.status().message();
  Result<FaultCampaignResult> r_on = RunFaultCampaign(on, driver.image, driver.pci);
  ASSERT_TRUE(r_on.ok()) << r_on.status().message();

  EXPECT_EQ(BugRows(r_on.value()), BugRows(r_off.value()));
  EXPECT_TRUE(HasTitle(r_on.value(), "MosMapIoSpace[map-io-space#0]"));
  EXPECT_TRUE(HasTitle(r_on.value(), "DMA target in pageable memory"));
}

TEST(PathCtlCampaignTest, FleetWorkersMatchInProcessWithControlsOn) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  Result<FaultCampaignResult> in_process =
      RunFaultCampaign(CampaignConfig(true), driver.image, driver.pci);
  ASSERT_TRUE(in_process.ok()) << in_process.status().message();

  fleet::FleetCampaignConfig fleet;
  fleet.workers = 3;
  fleet.shard_dir = testing::TempDir() + "pathctl_fleet";
  ::mkdir(fleet.shard_dir.c_str(), 0755);
  fleet.heartbeat_interval_ms = 50;
  Result<FaultCampaignResult> r = fleet::RunFleetCampaign(
      CampaignConfig(true), driver.image, driver.pci, fleet);
  ASSERT_TRUE(r.ok()) << r.status().message();
  EXPECT_EQ(r.value().FormatReport(driver.name, false),
            in_process.value().FormatReport(driver.name, false));
  EXPECT_TRUE(HasTitle(r.value(), "MosMapIoSpace[map-io-space#0]"));
}

TEST(PathCtlCampaignTest, JournalResumeRoundTripsForkSiteAttribution) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  std::string journal = testing::TempDir() + "pathctl_resume.journal";
  std::remove(journal.c_str());

  FaultCampaignConfig config = CampaignConfig(true);
  config.journal_path = journal;
  Result<FaultCampaignResult> first = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(first.ok()) << first.status().message();

  config.resume = true;
  Result<FaultCampaignResult> second = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(second.ok()) << second.status().message();
  EXPECT_EQ(second.value().passes_loaded, second.value().passes.size());
  EXPECT_EQ(second.value().FormatReport(driver.name, false),
            first.value().FormatReport(driver.name, false));
  // Record-sourced passes must restore the per-fork-site attribution exactly
  // (the table rides through the journal codec, not the live engine).
  EXPECT_EQ(second.value().total_stats.fork_sites, first.value().total_stats.fork_sites);
  EXPECT_EQ(second.value().total_stats.states_merged,
            first.value().total_stats.states_merged);
  std::remove(journal.c_str());
}

}  // namespace
}  // namespace ddt
