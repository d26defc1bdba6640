// DDT public API.
//
// This is the library's front door, matching the paper's §2 contract: "DDT
// takes as input a binary device driver and outputs a report of found bugs,
// along with execution traces for each bug."
//
//   DdtConfig config;
//   Ddt ddt(config);
//   Result<DdtResult> result = ddt.TestDriver(image, pci_descriptor);
//   for (const Bug& bug : result.value().bugs) { std::cout << bug.Format(); }
//
// Bug objects reference expression storage owned by the Ddt instance; keep
// the instance alive while using the result.
#ifndef SRC_CORE_DDT_H_
#define SRC_CORE_DDT_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/annotations/annotation.h"
#include "src/engine/engine.h"
#include "src/kernel/exerciser.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/support/status.h"

namespace ddt {

struct DdtConfig {
  EngineConfig engine;
  // Default dynamic checkers (§3.1.1). Custom checkers can be added through
  // Ddt::AddChecker before TestDriver.
  bool use_default_checkers = true;
  // Standard MiniOS annotation set (§3.4). The ablation benchmark turns this
  // off.
  bool use_standard_annotations = true;
  // Registry contents the guest kernel serves; merged over sane defaults.
  std::map<std::string, uint32_t> registry;
  // Workload override; by default chosen from the driver's class (network vs
  // audio) per §4.3.
  std::optional<std::vector<WorkloadStep>> workload;
  // Checkbochs-style DMA checker (src/checkers/dma_checker.h): validate every
  // buffer address the driver writes into the device's MMIO window against
  // live kernel allocation/mapping state. Opt-in because its reports
  // terminate paths (changing which bugs downstream checkers see), so plain
  // baselines keep historical behavior. Enters the campaign fingerprint.
  bool dma_checker = false;
};

struct DdtResult {
  std::vector<Bug> bugs;
  EngineStats stats;
  // Solver-derived concrete path models (empty unless
  // engine.max_path_seeds > 0) — the fuzz subsystem's seeds.
  std::vector<PathSeed> path_seeds;
  std::vector<CoverageSample> coverage_samples;
  size_t covered_blocks = 0;
  size_t total_blocks = 0;
  SolverStats solver_stats;
  MemStats mem_stats;
  // The run wound down via cooperative cancellation (Engine::RequestAbort —
  // typically the campaign watchdog) rather than finishing on its own
  // budgets. Partial results above are still valid.
  bool aborted = false;

  // Table-2 style report with one row per bug.
  std::string FormatReport(const std::string& driver_name) const;
};

class Ddt {
 public:
  explicit Ddt(const DdtConfig& config = DdtConfig());
  ~Ddt();

  // Additional checkers beyond the default set (§3.1's pluggable checkers).
  void AddChecker(std::unique_ptr<Checker> checker);
  // Extra annotations beyond (or instead of) the standard set.
  void AddAnnotations(const AnnotationSet& annotations);
  // Overrides the device model behind the PCI shell (default: SymbolicDevice;
  // the stress baseline installs a ScriptedDevice).
  void SetDevice(std::unique_ptr<DeviceModel> device);

  // Loads and exercises the driver; returns the bug report. One Ddt instance
  // tests one driver (make a new instance per driver). A driver prepared once
  // (PrepareDriver) can be tested by many instances, concurrently too.
  Result<DdtResult> TestDriver(std::shared_ptr<const PreparedDriver> driver,
                               const PciDescriptor& descriptor);
  // PrepareDriver + the overload above; a zero engine budget is reported
  // ahead of an image that does not load.
  Result<DdtResult> TestDriver(const DriverImage& image, const PciDescriptor& descriptor);

  // The underlying engine (valid after TestDriver; exposes coverage, cfg...).
  Engine& engine();

  // Registry defaults every MiniOS instance starts from.
  static std::map<std::string, uint32_t> DefaultRegistry();

 private:
  DdtConfig config_;
  std::vector<std::unique_ptr<Checker>> extra_checkers_;
  std::vector<AnnotationSet> extra_annotations_;
  std::unique_ptr<DeviceModel> device_override_;
  std::unique_ptr<Engine> engine_;
  bool ran_ = false;
};

// --- Fault-injection campaigns (§3.4 error-path testing) ------------------
//
// A campaign runs the engine multiple times over the same driver: first a
// plain baseline pass, then one pass per FaultPlan generated from the
// baseline's fault-site profile (every single failure point, then escalating
// multi-point combinations). Bugs are merged and deduplicated across passes;
// each Bug carries the plan that exposed it, so ReplayBug reproduces the
// exact failure schedule.

struct FaultCampaignConfig {
  // Base configuration for every pass (the campaign overwrites
  // engine.fault_plan per pass).
  DdtConfig base;
  // Seeds plan generation (escalation combos); independent of engine.seed.
  uint64_t seed = 0xFA117;
  // Cap on total engine passes, including the baseline.
  size_t max_passes = 32;
  // Per class, only the first N occurrences are considered as single-point
  // plans (most init-path cleanup bugs hide in the first few).
  uint32_t max_occurrences_per_class = 8;
  // Rounds of multi-point escalation after the singles (round r combines
  // r + 2 points).
  uint32_t escalation_rounds = 1;
  // --- Hardware fault plane (src/hw/hw_fault.h) ---
  // Append device-level fault plans (surprise removal, removal at an
  // interrupt, sticky error registers, interrupt storms/droughts, dropped
  // doorbell writes) after the kernel-API plans, within the same max_passes
  // budget. Indices are sampled from the baseline's hardware site profile
  // exactly as kernel plans derive from the fault-site profile, so the
  // schedule is deterministic in (config, driver) and enters the campaign
  // fingerprint.
  bool hw_faults = false;
  // Per hardware fault kind, how many trigger indices to sample (spread
  // evenly across the observed extent; the first and last index are always
  // included so late-lifecycle faults — removal during Halt — are covered).
  uint32_t hw_max_points_per_kind = 4;
  // Worker threads for the plan passes. 0 = one per hardware thread;
  // 1 = run passes sequentially on the calling thread (the exact historical
  // behavior). Passes are independent engine+solver instances, and results
  // are merged in plan order, so the merged report is byte-identical for any
  // thread count.
  uint32_t threads = 0;

  // --- Campaign supervisor ---
  // Checkpoint journal (src/core/campaign_journal.h): after each pass a
  // self-contained record is appended and flushed, so a killed campaign
  // loses at most the passes in flight. Empty = no journaling.
  std::string journal_path;
  // Resume a previous campaign from journal_path: completed passes (including
  // the baseline and its fault-site profile) load from the journal, only
  // missing passes execute, and the plan-order merge makes the deterministic
  // report (FormatReport with include_volatile=false) byte-identical to an
  // uninterrupted run. A torn or corrupt trailing record is discarded, not
  // fatal. Requires journal_path; the journal must match this config and
  // driver image (fingerprint check). Thread count and supervisor budgets may
  // differ between the original run and the resume.
  bool resume = false;
  // Watchdog wall budget per pass, in milliseconds; 0 = no watchdog. A pass
  // exceeding it is cooperatively cancelled (Engine::RequestAbort) and
  // treated as a transient failure: retried with doubled budgets, then
  // quarantined. The campaign itself keeps going either way.
  uint64_t max_pass_wall_ms = 0;
  // Transient-failure retries per pass. Attempt k runs with budgets scaled by
  // 2^k (watchdog wall budget always; solver/memory/fuel budgets too) after a
  // deterministic backoff of retry_backoff_ms * 2^(k-1).
  uint32_t max_pass_retries = 2;
  uint64_t retry_backoff_ms = 0;
  // Test/instrumentation hook: called on each pass's Ddt instance (after
  // construction, before TestDriver), e.g. to add a custom checker.
  std::function<void(Ddt&, const FaultPlan&)> configure_pass;

  // --- Shared cross-pass solver cache (src/solver/shared_cache.h) ---
  // One SharedQueryCache is created per campaign and handed to every pass's
  // solver: identical logical queries (canonical fingerprints, independent of
  // each pass's private ExprContext) hit across passes and worker threads.
  // Like the observability knobs, none of this enters the campaign
  // fingerprint or the deterministic report — the cache changes how fast
  // verdicts arrive, never which verdicts (cached models are re-verified by
  // the concrete evaluator, and model-requesting queries always solve
  // fresh), so the deterministic report is byte-identical cache on/off,
  // cold/warm, at any thread count.
  bool shared_cache = false;
  // When non-empty, implies shared_cache and adds on-disk persistence: the
  // cache warm-starts from this file (best-effort: missing/corrupt/
  // version-mismatched files are ignored, never fatal) and is saved back
  // after the campaign, so repeated or resumed campaigns skip the SAT work
  // of previous runs.
  std::string shared_cache_path;
  // Cache capacity (entries are LRU-ish evicted beyond it).
  uint64_t shared_cache_max_bytes = 64ull << 20;

  // --- Observability (src/obs) ---
  // Neither knob enters the campaign fingerprint (a journal resumes fine with
  // either flipped) and neither can change exploration, bug sets, or the
  // deterministic report — everything they produce lands in the *volatile*
  // section or in side outputs.
  //
  // Give each pass a fresh MetricsRegistry, plus one campaign-level registry
  // for the thread pool and journal, and merge every snapshot into
  // FaultCampaignResult::metrics. Off by default (registry lookups cost a
  // little per pass).
  bool collect_metrics = false;
  // Attribute each executed pass's wall time to phases (decode / interpret /
  // solver / checker / journal / merge) and build
  // FaultCampaignResult::profile. On by default: the probes sit at coarse
  // boundaries (a SAT query, a block decode, a journal flush) and stay off
  // the per-instruction path.
  bool collect_profile = true;
};

// One engine pass of a campaign.
struct FaultCampaignPass {
  FaultPlan plan;  // empty for the baseline
  EngineStats stats;
  SolverStats solver_stats;
  size_t bugs_found = 0;  // bugs this pass reported (pre-merge)
  size_t bugs_new = 0;    // of those, how many no earlier pass had found
  // Supervisor outcome.
  uint32_t retries = 0;        // transient-failure retry attempts consumed
  bool quarantined = false;    // permanently failed; excluded from aggregates
  std::string failure;         // why (quarantined passes only)
  bool from_journal = false;   // loaded from the checkpoint journal
};

struct FaultCampaignResult {
  // Merged, deduplicated bugs across all passes (baseline bugs first).
  std::vector<Bug> bugs;
  std::vector<FaultCampaignPass> passes;
  // Aggregate counters across passes.
  uint64_t total_faults_injected = 0;
  double total_wall_ms = 0;  // sum of per-pass engine wall times (CPU-ish)
  // Per-pass engine and solver stats folded together (counters summed,
  // high-water marks maxed) — the campaign-wide totals the report prints.
  EngineStats total_stats;
  SolverStats total_solver_stats;
  // Elapsed wall time for the whole campaign; with threads > 1 this is less
  // than total_wall_ms (the parallel speedup the benchmark measures).
  double campaign_wall_ms = 0;
  uint32_t threads_used = 1;
  // True when the passes ran inline on the calling thread (threads == 1 or a
  // single runnable plan) — no worker pool was spawned. Volatile-report only.
  bool inline_scheduler = true;
  // Search policy the campaign's engines ran with ("coverage-greedy", ...).
  // Recorded in the volatile scheduler line; never in the deterministic part
  // (the policy only reorders exploration, results are policy-independent
  // for the deterministic contract's purposes once a campaign completes).
  std::string searcher_name;
  // Shared-cache tallies for the volatile report and the bench (per-query
  // hit/miss/store counters live in total_solver_stats).
  bool shared_cache_used = false;
  uint64_t shared_cache_entries = 0;
  uint64_t shared_cache_bytes = 0;
  uint64_t shared_cache_evictions = 0;
  uint64_t shared_cache_load_errors = 0;
  uint64_t shared_cache_loaded_entries = 0;
  uint64_t shared_cache_saved_entries = 0;
  // Supervisor tallies.
  uint64_t passes_retried = 0;      // passes that needed >= 1 retry
  uint64_t passes_quarantined = 0;  // passes that failed permanently
  uint64_t passes_loaded = 0;       // passes restored from the journal
  // Fleet (multi-process broker/worker, src/fleet) tallies. All volatile:
  // how many worker processes ran, died, or were replaced never enters the
  // deterministic report — by design it is byte-identical to the in-process
  // scheduler's at any worker count and any crash/reassignment history.
  bool fleet_mode = false;          // result produced by fleet::RunFleetCampaign
  uint32_t fleet_workers = 0;       // configured worker process count
  uint64_t fleet_workers_spawned = 0;    // processes forked, incl. replacements
  uint64_t fleet_workers_lost = 0;       // crashed or heartbeat-timed-out
  uint64_t fleet_workers_rejected = 0;   // HELLO fingerprint/protocol mismatch
  uint64_t fleet_workers_recycled = 0;   // retired after max_leases_per_worker
  uint64_t fleet_leases_reassigned = 0;  // leases re-queued after a worker loss
  uint64_t fleet_results_salvaged = 0;   // passes recovered from a dead
                                         // worker's shard journal
  // Bug objects reference expression storage owned by the per-pass Ddt
  // instances; they are kept alive here so the result is self-contained.
  std::vector<std::shared_ptr<Ddt>> keepalive;
  // Observability outputs (volatile — never part of the deterministic
  // report). `metrics` is the merged snapshot across every per-pass registry
  // plus the campaign-level one (collect_metrics); `profile` has one phase
  // breakdown per executed pass and the fault-site hotness tallies
  // (collect_profile). Journal-restored passes carry no live timing and are
  // absent from `profile`.
  obs::MetricsSnapshot metrics;
  obs::CampaignProfile profile;
  // Per-pass registries/profiles the pass engines hold raw pointers into;
  // kept alive alongside the Ddt instances above.
  std::vector<std::shared_ptr<void>> obs_keepalive;

  // With include_volatile=false the report omits every timing- and
  // environment-dependent line (wall times, slowest-query ms, thread count,
  // journal-restore count) and is byte-identical between an uninterrupted
  // run and a kill-and-resume run at any thread count — the form the resume
  // tests and CI diff.
  std::string FormatReport(const std::string& driver_name, bool include_volatile = true) const;
};

// Runs a full campaign over one driver. Deterministic in (config, driver).
Result<FaultCampaignResult> RunFaultCampaign(const FaultCampaignConfig& config,
                                             const DriverImage& image,
                                             const PciDescriptor& descriptor);

}  // namespace ddt

#endif  // SRC_CORE_DDT_H_
