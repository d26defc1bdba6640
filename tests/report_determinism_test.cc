// Regression guard for the observability kill switches: turning metrics,
// profiling, and tracing fully on must not perturb the deterministic campaign
// report by a single byte, and the deterministic report must never grow a
// timing- or host-dependent field.
#include <gtest/gtest.h>

#include <string>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/obs/trace_events.h"

namespace ddt {
namespace {

FaultCampaignConfig QuickCampaign() {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.base.engine.max_states = 512;
  config.max_passes = 12;
  config.max_occurrences_per_class = 4;
  config.escalation_rounds = 0;
  return config;
}

TEST(ReportDeterminismTest, DeterministicReportIsByteIdenticalWithObsOnAndOff) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");

  // Everything off: no tracer, no metrics, no profile.
  FaultCampaignConfig off = QuickCampaign();
  off.collect_metrics = false;
  off.collect_profile = false;
  obs::Tracer::Get().Disable();
  Result<FaultCampaignResult> off_result = RunFaultCampaign(off, driver.image, driver.pci);
  ASSERT_TRUE(off_result.ok()) << off_result.status().message();

  // Everything on: tracer recording, per-pass metrics, per-pass profiles.
  FaultCampaignConfig on = QuickCampaign();
  on.collect_metrics = true;
  on.collect_profile = true;
  obs::Tracer::Get().Enable();
  Result<FaultCampaignResult> on_result = RunFaultCampaign(on, driver.image, driver.pci);
  obs::Tracer::Get().Disable();
  ASSERT_TRUE(on_result.ok()) << on_result.status().message();

  // Observability actually ran: the on-run produced metrics, profile entries,
  // and trace events.
  EXPECT_FALSE(on_result.value().metrics.empty());
  EXPECT_FALSE(on_result.value().profile.empty());
  EXPECT_FALSE(obs::Tracer::Get().Collect().empty());
  EXPECT_TRUE(off_result.value().metrics.counters.empty());
  EXPECT_TRUE(off_result.value().profile.empty());

  // The exploration itself is untouched: same bug set, same pass structure.
  ASSERT_EQ(on_result.value().bugs.size(), off_result.value().bugs.size());
  ASSERT_EQ(on_result.value().passes.size(), off_result.value().passes.size());

  // And the deterministic report is byte-identical.
  std::string off_report = off_result.value().FormatReport(driver.name, /*include_volatile=*/false);
  std::string on_report = on_result.value().FormatReport(driver.name, /*include_volatile=*/false);
  EXPECT_EQ(off_report, on_report);
}

TEST(ReportDeterminismTest, DeterministicReportHasNoTimingOrHostDependentFields) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  FaultCampaignConfig config = QuickCampaign();
  config.collect_metrics = true;
  config.collect_profile = true;
  Result<FaultCampaignResult> result = RunFaultCampaign(config, driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();

  std::string report = result.value().FormatReport(driver.name, /*include_volatile=*/false);
  ASSERT_FALSE(report.empty());

  // The volatile report DOES carry these; the deterministic one must not.
  // " ms"/"wall" catch every timing line, "thread"/"inline" the scheduler
  // line, "resumed" the journal-restore counter, "slowest"/"profil" the
  // profiler sections, and "SAT calls"/"model-reuse"/"cache" every counter
  // that depends on cache temperature (per-solver, model-reuse, or the
  // shared cross-pass cache) rather than on exploration alone.
  // The last entry keeps execution-tier counters out: which tier retires an
  // instruction is an implementation detail, never a deterministic result.
  for (const char* forbidden :
       {" ms", "wall", "thread", "inline", "slowest", "resumed", "profil",
        "SAT calls", "model-reuse", "cache", "superblock"}) {
    EXPECT_EQ(report.find(forbidden), std::string::npos)
        << "deterministic report leaks host-dependent field '" << forbidden << "':\n"
        << report;
  }

  // Sanity check on the volatile form: it is a strict superset that does
  // include the profiler section (collect_profile was on).
  std::string volatile_report = result.value().FormatReport(driver.name);
  EXPECT_NE(volatile_report.find("slowest"), std::string::npos) << volatile_report;
  EXPECT_NE(volatile_report.find("hot fault sites"), std::string::npos) << volatile_report;
}

}  // namespace
}  // namespace ddt
