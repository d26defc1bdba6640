// Shared campaign execution substrate.
//
// RunFaultCampaign (the in-process thread-pool scheduler in ddt.cc) and the
// multi-process fleet (src/fleet: a coordinator leasing passes to crash-
// isolated worker processes) run the *same* campaign: the same supervised
// per-pass execution (watchdog cancellation, retry-with-escalation,
// quarantine-on-trap) and the same plan-order merge that makes the
// deterministic report byte-identical regardless of scheduling. This header
// is that common substrate, extracted from ddt.cc so a fleet worker executes
// a pass exactly — to the byte of the resulting journal record — as an
// in-process worker thread would, and the fleet coordinator merges records
// exactly as the in-process scheduler merges live outcomes.
//
// Layering: everything here is core-internal machinery. Library users call
// RunFaultCampaign / fleet::RunFleetCampaign; nothing in this header is
// needed to consume results.
#ifndef SRC_CORE_CAMPAIGN_EXEC_H_
#define SRC_CORE_CAMPAIGN_EXEC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/core/campaign_journal.h"
#include "src/core/ddt.h"
#include "src/solver/shared_cache.h"

namespace ddt {

// FNV-1a over every input that determines the campaign schedule, plus the
// driver image bytes. A journal carries this fingerprint so a resume cannot
// silently mix passes from a *different* campaign, and a fleet worker's HELLO
// carries it so a coordinator cannot lease passes to a worker configured for
// a different campaign. Thread count, the supervisor budgets (watchdog,
// retries, backoff), the shared-cache knobs, and the observability knobs are
// deliberately excluded: resuming an interrupted campaign with more workers,
// a longer watchdog, or a warm solver cache is legitimate and changes no
// pass's identity.
uint64_t CampaignFingerprint(const FaultCampaignConfig& config, const DriverImage& image);

// A bug's identity for deduplication: type and title. The campaign merger
// and the fuzz plane share it, so a fuzz bug is new iff no campaign pass and
// no earlier fuzz exec already reported it.
std::string BugKey(const Bug& bug);

// Mirrors the PR-1 EngineConfig validation: reject configurations that would
// otherwise fail late (or hang) with a clear message before any pass runs.
Status ValidateCampaignConfig(const FaultCampaignConfig& config);

// Supervisor watchdog: one lazily-started thread tracking the deadline of
// every in-flight pass. When a deadline passes while the pass is still armed,
// the watchdog fires the pass's abort token; the engine's run loop and any
// in-flight SAT query observe it cooperatively and wind down with partial
// (valid) results. This is the only mechanism that can stop a hung pass —
// there is no thread kill anywhere.
class PassWatchdog {
 public:
  PassWatchdog() = default;
  ~PassWatchdog();
  PassWatchdog(const PassWatchdog&) = delete;
  PassWatchdog& operator=(const PassWatchdog&) = delete;

  uint64_t Arm(std::chrono::steady_clock::time_point deadline,
               std::shared_ptr<std::atomic<bool>> token);
  void Disarm(uint64_t id);

 private:
  struct Entry {
    std::chrono::steady_clock::time_point deadline;
    std::shared_ptr<std::atomic<bool>> token;
  };

  void Loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<uint64_t, Entry> armed_;
  uint64_t next_id_ = 1;
  bool stop_ = false;
  std::thread thread_;  // started on first Arm
};

// The outcome of one campaign pass, from whichever source produced it: a
// live supervised execution (r/ddt set), a checkpoint-journal restore
// (record set, from_journal true), or a fleet worker's RESULT record (record
// set, from_journal false — it was executed this run, just in another
// process).
struct PassOutcome {
  std::shared_ptr<Ddt> ddt;    // owns the expression storage bugs reference
  std::optional<DdtResult> r;  // set iff the pass produced a live result
  uint32_t retries = 0;
  bool quarantined = false;
  std::string failure;  // set iff quarantined
  // Set when the pass data came from a serialized record rather than a live
  // run (journal restore or fleet RESULT). `from_journal` additionally marks
  // the record as *restored from a previous campaign* — it feeds the
  // passes_loaded tally; fleet records executed this run do not.
  std::optional<CampaignPassRecord> record;
  bool from_journal = false;
  // Observability sinks the pass's engine wrote into (fresh per attempt, so
  // a retried pass reports only its final attempt). Null when collection is
  // off or the pass came from a record.
  std::shared_ptr<obs::MetricsRegistry> metrics;
  std::shared_ptr<obs::PassProfile> profile;
};

// Executes passes under full supervision: watchdog cancellation, retry with
// doubled budgets and deterministic backoff for transient failures,
// quarantine for permanent ones. DDT_CHECK failures and exceptions inside
// the engine are trapped per-thread and quarantine the pass — one malformed
// guest (or checker bug) must not kill a 30-pass campaign. Thread-safe:
// in-process worker threads share one executor; a fleet worker process owns
// its own.
class CampaignPassExecutor {
 public:
  // All pointers are non-owning and optional (null = feature off). `config`,
  // `image`, and `descriptor` must outlive the executor.
  CampaignPassExecutor(const FaultCampaignConfig& config, const DriverImage& image,
                       const PciDescriptor& descriptor, SharedQueryCache* shared_cache,
                       obs::MetricsRegistry* campaign_metrics);

  PassOutcome Execute(const FaultPlan& plan);

 private:
  const FaultCampaignConfig& config_;
  const DriverImage& image_;
  const PciDescriptor& descriptor_;
  SharedQueryCache* shared_cache_;
  obs::MetricsRegistry* campaign_metrics_;
  PassWatchdog watchdog_;
};

// Builds the checkpoint-journal record for a completed (or quarantined)
// pass. `profile` and `hw_profile` are non-null only for the baseline
// (pass 0), whose fault-site and hardware-site profiles the whole schedule
// derives from.
CampaignPassRecord MakePassRecord(uint64_t index, const FaultPlan& plan, const PassOutcome& out,
                                  const FaultSiteProfile* profile,
                                  const HwSiteProfile* hw_profile = nullptr);

// Wraps a serialized record back into a mergeable outcome.
// `restored_from_journal` distinguishes a resume restore (counted in
// passes_loaded) from a fleet record executed this run (not counted).
PassOutcome OutcomeFromRecord(CampaignPassRecord&& rec, bool restored_from_journal);

// The §3.4 campaign schedule, shared by the in-process scheduler and the
// fleet coordinator: pass 0 is the plain baseline, and passes 1..n run the
// fault plans derived from the baseline's fault-site and hardware-site
// profiles. With a journal, Open either creates it or (resume) reopens it and
// keeps its records, so only the passes it lacks run again. Running passes
// is left to the caller: the thread pool and the fleet's leases share no
// more than this.
class CampaignSchedule {
 public:
  // `config` must outlive the schedule.
  explicit CampaignSchedule(const FaultCampaignConfig& config) : config_(config) {}

  // Creates config.journal_path fresh, or with config.resume reopens it and
  // loads its records; without a journal path there is nothing to open.
  // `metrics` (nullable) receives the journal's append latency.
  Status Open(const DriverImage& image, obs::MetricsRegistry* metrics);

  // Null when the campaign keeps no journal.
  CampaignJournal* journal() const { return journal_.get(); }
  // CampaignFingerprint of the campaign; valid after Open.
  uint64_t fingerprint() const { return fingerprint_; }

  // The journaled baseline, moved out, when it can be restored: it carries
  // the profiles every plan derives from and was not quarantined. nullopt
  // means pass 0 must run.
  std::optional<CampaignPassRecord> TakeBaseline();

  // Pass indices (1-based, ascending) split by whether the journal already
  // holds them.
  struct Passes {
    std::vector<CampaignPassRecord> restored;  // journaled passes, moved out
    std::vector<uint64_t> pending;             // passes still to run
  };
  // Derives plans() from the baseline's profiles: kernel-API plans, then
  // hardware plans when config.hw_faults, within max_passes - 1. Fails when a
  // journaled pass's label disagrees with its regenerated plan, which means
  // the journal belongs to another schedule.
  Result<Passes> Derive(const FaultSiteProfile& profile, const HwSiteProfile& hw_profile);

  // Pass i + 1 runs plans()[i]; empty until Derive.
  const std::vector<FaultPlan>& plans() const { return plans_; }

 private:
  const FaultCampaignConfig& config_;
  uint64_t fingerprint_ = 0;
  std::unique_ptr<CampaignJournal> journal_;
  std::map<uint64_t, CampaignPassRecord> journaled_;  // pass index -> record
  std::vector<FaultPlan> plans_;
};

// Merges pass outcomes into a FaultCampaignResult in plan order. Bug
// deduplication, aggregate accumulation, and the pass table are functions of
// merge *order* alone, so any scheduler — sequential, thread pool, or
// multi-process fleet — that merges in plan order produces a byte-identical
// deterministic report. Not thread-safe; merging always happens on one
// thread.
//
// With config.collect_metrics, a pass merged from a record publishes its
// stats counters into result->metrics exactly as a live engine would have
// (PublishStatsMetrics), so journal-restored and fleet passes count too.
class CampaignMerger {
 public:
  // `config` must outlive the merger.
  CampaignMerger(const FaultCampaignConfig& config, FaultCampaignResult* result)
      : config_(config), result_(result) {}

  void Merge(const FaultPlan& plan, PassOutcome& out);

 private:
  const FaultCampaignConfig& config_;
  FaultCampaignResult* result_;
  std::set<std::string> seen_;
};

}  // namespace ddt

#endif  // SRC_CORE_CAMPAIGN_EXEC_H_
