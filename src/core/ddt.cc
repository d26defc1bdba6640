#include "src/core/ddt.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "src/checkers/default_checkers.h"
#include "src/checkers/dma_checker.h"
#include "src/core/campaign_exec.h"
#include "src/core/campaign_journal.h"
#include "src/obs/trace_events.h"
#include "src/solver/shared_cache.h"
#include "src/support/check.h"
#include "src/support/log.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"

namespace ddt {

Ddt::Ddt(const DdtConfig& config) : config_(config) {}

Ddt::~Ddt() = default;

void Ddt::AddChecker(std::unique_ptr<Checker> checker) {
  extra_checkers_.push_back(std::move(checker));
}

void Ddt::AddAnnotations(const AnnotationSet& annotations) {
  extra_annotations_.push_back(annotations);
}

void Ddt::SetDevice(std::unique_ptr<DeviceModel> device) {
  device_override_ = std::move(device);
}

std::map<std::string, uint32_t> Ddt::DefaultRegistry() {
  return {
      {"MaximumMulticastList", 8},
      {"NetworkAddress", 0x00AABBCC},
      {"LinkSpeed", 100},
      {"TransmitBuffers", 16},
      {"ReceiveBuffers", 16},
      {"Volume", 50},
      {"SampleRate", 44100},
  };
}

Result<DdtResult> Ddt::TestDriver(const DriverImage& image, const PciDescriptor& descriptor) {
  Status budgets = config_.engine.ValidateBudgets();
  if (!budgets.ok()) {
    return budgets;
  }
  Result<std::shared_ptr<const PreparedDriver>> driver = PrepareDriver(image);
  if (!driver.ok()) {
    return driver.status();
  }
  return TestDriver(driver.take(), descriptor);
}

Result<DdtResult> Ddt::TestDriver(std::shared_ptr<const PreparedDriver> driver,
                                  const PciDescriptor& descriptor) {
  DDT_CHECK_MSG(!ran_, "one Ddt instance tests one driver");
  DDT_CHECK_MSG(driver != nullptr, "TestDriver needs a prepared driver");
  ran_ = true;

  engine_ = std::make_unique<Engine>(config_.engine);

  if (config_.use_default_checkers) {
    for (auto& checker : MakeDefaultCheckers()) {
      engine_->AddChecker(std::move(checker));
    }
  }
  if (config_.dma_checker) {
    engine_->AddChecker(std::make_unique<DmaChecker>());
  }
  for (auto& checker : extra_checkers_) {
    engine_->AddChecker(std::move(checker));
  }
  extra_checkers_.clear();

  // The standard set is shared as it is; only extra annotations make a copy.
  std::shared_ptr<const AnnotationSet> annotations =
      config_.use_standard_annotations ? AnnotationSet::Standard() : nullptr;
  if (!extra_annotations_.empty()) {
    auto merged = std::make_shared<AnnotationSet>();
    if (annotations != nullptr) {
      merged->Merge(*annotations);
    }
    for (const AnnotationSet& extra : extra_annotations_) {
      merged->Merge(extra);
    }
    annotations = std::move(merged);
  }
  if (annotations != nullptr) {
    engine_->SetAnnotations(std::move(annotations));
  }

  std::map<std::string, uint32_t> registry = DefaultRegistry();
  for (const auto& [key, value] : config_.registry) {
    registry[key] = value;
  }
  engine_->SetRegistry(std::move(registry));

  std::vector<WorkloadStep> workload =
      config_.workload.has_value() ? *config_.workload
                                   : BuildWorkload(DriverClassFor(driver->loaded.name));
  engine_->SetWorkload(std::move(workload));

  if (device_override_ != nullptr) {
    engine_->SetDevice(std::move(device_override_));
  }

  Status status = engine_->LoadDriver(std::move(driver), descriptor);
  if (!status.ok()) {
    return status;
  }
  engine_->Run();

  DdtResult result;
  result.bugs = engine_->TakeBugs();
  result.stats = engine_->stats();
  result.path_seeds = engine_->TakePathSeeds();
  result.coverage_samples = engine_->TakeCoverageSamples();
  result.covered_blocks = engine_->covered_blocks();
  result.total_blocks = engine_->total_blocks();
  result.solver_stats = engine_->solver().stats();
  result.mem_stats = engine_->mem_stats();
  result.aborted = engine_->AbortRequested();
  return result;
}

Engine& Ddt::engine() {
  DDT_CHECK_MSG(engine_ != nullptr, "TestDriver not called yet");
  return *engine_;
}

std::string DdtResult::FormatReport(const std::string& driver_name) const {
  std::string out;
  out += StrFormat("=== DDT report for driver '%s' ===\n", driver_name.c_str());
  out += StrFormat("bugs found: %zu\n", bugs.size());
  for (const Bug& bug : bugs) {
    out += "  " + bug.Row() + "\n";
  }
  out += StrFormat(
      "coverage: %zu / %zu basic blocks (%.1f%%)\n", covered_blocks, total_blocks,
      total_blocks == 0 ? 0.0 : 100.0 * static_cast<double>(covered_blocks) /
                                     static_cast<double>(total_blocks));
  out += StrFormat("instructions: %llu, forks: %llu, states: %llu created / %llu peak\n",
                   static_cast<unsigned long long>(stats.instructions),
                   static_cast<unsigned long long>(stats.forks),
                   static_cast<unsigned long long>(stats.states_created),
                   static_cast<unsigned long long>(stats.max_live_states));
  out += StrFormat(
      "solver: %llu queries (%llu quick, %llu cached, %llu model-reuse, %llu SAT calls)\n",
      static_cast<unsigned long long>(solver_stats.queries),
      static_cast<unsigned long long>(solver_stats.quick_decides),
      static_cast<unsigned long long>(solver_stats.cache_hits),
      static_cast<unsigned long long>(solver_stats.model_reuse_hits),
      static_cast<unsigned long long>(solver_stats.sat_calls));
  if (solver_stats.shared_cache_hits != 0 || solver_stats.shared_cache_fastpath_hits != 0 ||
      solver_stats.shared_cache_misses != 0) {
    out += StrFormat("shared cache: %llu hits (%llu fastpath), %llu misses, %llu stores\n",
                     static_cast<unsigned long long>(solver_stats.shared_cache_hits),
                     static_cast<unsigned long long>(solver_stats.shared_cache_fastpath_hits),
                     static_cast<unsigned long long>(solver_stats.shared_cache_misses),
                     static_cast<unsigned long long>(solver_stats.shared_cache_stores));
  }
  if (stats.blocks_decoded != 0) {
    out += StrFormat(
        "block cache: %llu blocks decoded, %llu instruction fetch hits, "
        "%llu fallback fetches\n",
        static_cast<unsigned long long>(stats.blocks_decoded),
        static_cast<unsigned long long>(stats.block_cache_hits),
        static_cast<unsigned long long>(stats.block_cache_fallback_fetches));
  }
  out += StrFormat("peak state working set: ~%llu KiB across live states\n",
                   static_cast<unsigned long long>(stats.peak_state_bytes / 1024));
  if (stats.faults_injected != 0) {
    out += StrFormat("faults injected: %llu\n",
                     static_cast<unsigned long long>(stats.faults_injected));
  }
  if (stats.hw_faults_injected != 0) {
    out += StrFormat("hw faults injected: %llu (%llu removals, %llu reads floated, "
                     "%llu writes dropped)\n",
                     static_cast<unsigned long long>(stats.hw_faults_injected),
                     static_cast<unsigned long long>(stats.hw_removals),
                     static_cast<unsigned long long>(stats.hw_reads_floated),
                     static_cast<unsigned long long>(stats.hw_writes_dropped));
  }
  if (solver_stats.query_timeouts != 0 || stats.states_evicted != 0) {
    out += StrFormat("governor: %llu query timeouts, %llu states evicted\n",
                     static_cast<unsigned long long>(solver_stats.query_timeouts),
                     static_cast<unsigned long long>(stats.states_evicted));
  }
  out += StrFormat("wall time: %.1f ms\n", stats.wall_ms);
  return out;
}

// ---------------------------------------------------------------------------
// Fault-injection campaigns (§3.4)
// ---------------------------------------------------------------------------

Result<FaultCampaignResult> RunFaultCampaign(const FaultCampaignConfig& config,
                                             const DriverImage& image,
                                             const PciDescriptor& descriptor) {
  auto campaign_start = std::chrono::steady_clock::now();
  Status valid = ValidateCampaignConfig(config);
  if (!valid.ok()) {
    return valid;
  }

  FaultCampaignResult result;

  // Execution and merging are split so plan passes can run on a worker pool:
  // CampaignPassExecutor::Execute touches only its own engine+solver instance
  // (safe concurrently), CampaignMerger::Merge mutates the shared result and
  // always runs on the calling thread in plan order — so the merged bug list,
  // dedup decisions, and pass table are byte-identical to a sequential run no
  // matter in which order workers finish. The journal is the one shared
  // resource workers touch (appends in completion order, under its mutex);
  // records carry the pass index, so load order never matters. The same
  // executor/merger pair drives the multi-process fleet (src/fleet), which is
  // why they live in campaign_exec.h rather than here.
  CampaignMerger merger(config, &result);

  // Campaign-level registry for the instruments that outlive any single pass
  // (thread-pool queue depth and busy time, journal flush latency, supervisor
  // event counts). Merged into result.metrics at the end.
  std::shared_ptr<obs::MetricsRegistry> campaign_metrics;
  if (config.collect_metrics) {
    campaign_metrics = std::make_shared<obs::MetricsRegistry>();
  }

  // Cross-pass shared solver cache: one store for every pass (and every
  // worker thread) of this campaign. With a path configured it warm-starts
  // from disk — best-effort, a bad file only bumps a counter — and is saved
  // back after the merge.
  std::shared_ptr<SharedQueryCache> shared_cache;
  if (config.shared_cache || !config.shared_cache_path.empty()) {
    SharedCacheConfig cache_config;
    cache_config.max_bytes = config.shared_cache_max_bytes;
    shared_cache = std::make_shared<SharedQueryCache>(cache_config);
    if (!config.shared_cache_path.empty()) {
      shared_cache->LoadFromFile(config.shared_cache_path);
    }
  }

  // One pass under full supervision (watchdog, retry-with-escalation,
  // quarantine): see CampaignPassExecutor in campaign_exec.h.
  CampaignPassExecutor executor(config, image, descriptor, shared_cache.get(),
                                campaign_metrics.get());

  // Journal and schedule (campaign_exec.h): a resume keeps the journaled
  // passes, a fresh journal starts with just the header.
  CampaignSchedule schedule(config);
  Status opened = schedule.Open(image, campaign_metrics.get());
  if (!opened.ok()) {
    return opened;
  }
  CampaignJournal* journal = schedule.journal();

  // Pass 0: plain baseline. Besides its own bugs, it measures the fault-site
  // profile every later plan is generated from — which is why the journal
  // stores the profile: a resume must reproduce the exact schedule without
  // re-running the baseline. A failed baseline fails the whole campaign (and
  // is deliberately not journaled, so a plain rerun retries it).
  FaultSiteProfile profile;
  HwSiteProfile hw_profile;
  if (std::optional<CampaignPassRecord> base = schedule.TakeBaseline()) {
    profile = base->profile;
    hw_profile = base->hw_profile;
    PassOutcome restored = OutcomeFromRecord(std::move(*base), /*restored_from_journal=*/true);
    merger.Merge(FaultPlan{}, restored);
  } else {
    PassOutcome baseline = executor.Execute(FaultPlan{});
    if (baseline.quarantined) {
      return Status::Error("campaign baseline pass failed: " + baseline.failure);
    }
    profile = baseline.ddt->engine().fault_site_profile();
    hw_profile = baseline.ddt->engine().hw_site_profile();
    if (journal != nullptr) {
      obs::ScopedPhase journal_phase(baseline.profile.get(), obs::Phase::kJournal);
      Status appended =
          journal->Append(MakePassRecord(0, FaultPlan{}, baseline, &profile, &hw_profile));
      if (!appended.ok()) {
        return appended;
      }
    }
    merger.Merge(FaultPlan{}, baseline);
  }

  // Journaled passes restore instantly, the rest run. outcomes[i] is pass
  // i + 1.
  Result<CampaignSchedule::Passes> passes = schedule.Derive(profile, hw_profile);
  if (!passes.ok()) {
    return passes.status();
  }
  const std::vector<FaultPlan>& plans = schedule.plans();
  std::vector<PassOutcome> outcomes(plans.size());
  for (CampaignPassRecord& rec : passes.value().restored) {
    size_t slot = rec.index - 1;
    outcomes[slot] = OutcomeFromRecord(std::move(rec), /*restored_from_journal=*/true);
  }
  const std::vector<uint64_t>& to_run = passes.value().pending;

  size_t threads = config.threads == 0 ? ThreadPool::HardwareThreads()
                                       : static_cast<size_t>(config.threads);
  threads = std::max<size_t>(1, std::min(threads, std::max<size_t>(1, to_run.size())));
  result.threads_used = static_cast<uint32_t>(threads);
  // threads == 1 covers both the explicit sequential request and the
  // degenerate schedules (zero or one runnable plan): passes run inline on
  // the calling thread and no worker pool is ever spawned — on a single-CPU
  // host pool handoff costs more than it buys (see bench_exec part 2).
  result.inline_scheduler = threads == 1;
  result.searcher_name = SearchStrategyName(config.base.engine.strategy);

  // Checkpointing happens here — from whichever thread finished the pass, in
  // completion order — so a kill loses at most the passes still in flight.
  std::mutex journal_error_mu;
  Status journal_error;
  auto run_one = [&executor, &plans, &outcomes, journal, &journal_error_mu,
                  &journal_error](uint64_t index) {
    const FaultPlan& plan = plans[index - 1];
    PassOutcome out = executor.Execute(plan);
    if (journal != nullptr) {
      obs::ScopedPhase journal_phase(out.profile.get(), obs::Phase::kJournal);
      Status appended = journal->Append(MakePassRecord(index, plan, out, nullptr));
      if (!appended.ok()) {
        std::unique_lock<std::mutex> lock(journal_error_mu);
        if (journal_error.ok()) {
          journal_error = appended;
        }
      }
    }
    outcomes[index - 1] = std::move(out);
  };

  if (threads == 1) {
    for (uint64_t index : to_run) {
      run_one(index);
    }
  } else {
    ThreadPool pool(threads);
    if (campaign_metrics != nullptr) {
      pool.SetMetrics(campaign_metrics.get());
    }
    for (uint64_t index : to_run) {
      pool.Submit([&run_one, index] { run_one(index); });
    }
    pool.Wait();
    // execute_supervised traps everything thrown under it; an exception the
    // pool still captured escaped the supervisor itself (e.g. OOM building a
    // journal record) — surface it instead of merging a silently-lost pass.
    std::vector<std::exception_ptr> errors = pool.TakeExceptions();
    if (!errors.empty()) {
      std::string message = "campaign worker task failed";
      try {
        std::rethrow_exception(errors.front());
      } catch (const std::exception& e) {
        message = StrFormat("campaign worker task failed: %s", e.what());
      } catch (...) {
      }
      return Status::Error(message);
    }
  }
  if (!journal_error.ok()) {
    return journal_error;
  }

  // Merge in plan order: byte-identical no matter which passes were
  // restored, which were executed, or how workers interleaved.
  for (size_t i = 0; i < plans.size(); ++i) {
    merger.Merge(plans[i], outcomes[i]);
  }

  if (shared_cache != nullptr) {
    result.shared_cache_used = true;
    if (!config.shared_cache_path.empty()) {
      Status saved = shared_cache->SaveToFile(config.shared_cache_path);
      if (!saved.ok()) {
        // Persistence is an accelerator, not a result: failing to write the
        // warm-start file must never fail the campaign.
        DDT_LOG_WARN("%s", saved.message().c_str());
      }
    }
    SharedQueryCache::Stats cache_stats = shared_cache->stats();
    result.shared_cache_entries = cache_stats.entries;
    result.shared_cache_bytes = cache_stats.bytes;
    result.shared_cache_evictions = cache_stats.evictions;
    result.shared_cache_load_errors = cache_stats.load_errors;
    result.shared_cache_loaded_entries = cache_stats.loaded_entries;
    result.shared_cache_saved_entries = cache_stats.saved_entries;
    if (campaign_metrics != nullptr) {
      // Store-level instruments; the per-query hit/miss/store/verify
      // counters are published per pass by the engine from SolverStats.
      campaign_metrics->counter("solver.shared_cache.evictions")->Add(cache_stats.evictions);
      campaign_metrics->counter("solver.shared_cache.load_errors")->Add(cache_stats.load_errors);
      campaign_metrics->counter("solver.shared_cache.loaded_entries")
          ->Add(cache_stats.loaded_entries);
      campaign_metrics->counter("solver.shared_cache.saved_entries")
          ->Add(cache_stats.saved_entries);
      campaign_metrics->gauge("solver.shared_cache.entries")
          ->Set(static_cast<int64_t>(cache_stats.entries));
      campaign_metrics->gauge("solver.shared_cache.bytes")
          ->Set(static_cast<int64_t>(cache_stats.bytes));
    }
    // The kept-alive Ddt instances hold solvers whose configs point at the
    // cache; keep it alive as long as they are.
    result.obs_keepalive.push_back(shared_cache);
  }
  if (campaign_metrics != nullptr) {
    result.metrics.Merge(campaign_metrics->Snapshot());
  }
  result.campaign_wall_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - campaign_start)
                                .count();
  return result;
}

std::string FaultCampaignResult::FormatReport(const std::string& driver_name,
                                              bool include_volatile) const {
  // Everything timing- or environment-dependent (wall times, slowest-query
  // ms, thread count, journal-restore count) is gated on include_volatile;
  // the deterministic remainder is byte-identical between an uninterrupted
  // run and a kill-and-resume run at any thread count.
  std::string out;
  out += StrFormat("=== DDT fault campaign for driver '%s' ===\n", driver_name.c_str());
  out += StrFormat("passes: %zu (1 baseline + %zu fault plans)\n", passes.size(),
                   passes.empty() ? 0 : passes.size() - 1);
  out += StrFormat("total faults injected: %llu\n",
                   static_cast<unsigned long long>(total_faults_injected));
  if (total_stats.hw_faults_injected != 0) {
    out += StrFormat("total hw faults injected: %llu (%llu removals)\n",
                     static_cast<unsigned long long>(total_stats.hw_faults_injected),
                     static_cast<unsigned long long>(total_stats.hw_removals));
  }
  out += StrFormat("merged bugs: %zu\n", bugs.size());
  for (const Bug& bug : bugs) {
    out += "  " + bug.Row();
    if (!bug.fault_plan.empty()) {
      out += StrFormat("  [plan: %s]", bug.fault_plan.ToString().c_str());
    }
    out += "\n";
  }
  for (size_t i = 0; i < passes.size(); ++i) {
    const FaultCampaignPass& pass = passes[i];
    std::string label = pass.plan.empty() ? "baseline" : pass.plan.ToString();
    if (pass.quarantined) {
      out += StrFormat("  pass %zu: %s -> QUARANTINED after %u retr%s: %s\n", i, label.c_str(),
                       pass.retries, pass.retries == 1 ? "y" : "ies", pass.failure.c_str());
      continue;
    }
    out += StrFormat("  pass %zu: %s -> %zu bugs (%zu new), %llu faults", i, label.c_str(),
                     pass.bugs_found, pass.bugs_new,
                     static_cast<unsigned long long>(pass.stats.faults_injected));
    if (pass.retries > 0) {
      out += StrFormat(", %u retr%s", pass.retries, pass.retries == 1 ? "y" : "ies");
    }
    if (include_volatile) {
      out += StrFormat(", %.1f ms (slowest query %.1f ms)", pass.stats.wall_ms,
                       pass.solver_stats.max_query_wall_ms);
    }
    out += "\n";
  }
  out += StrFormat("aggregate: %llu instructions, %llu forks, %llu states created\n",
                   static_cast<unsigned long long>(total_stats.instructions),
                   static_cast<unsigned long long>(total_stats.forks),
                   static_cast<unsigned long long>(total_stats.states_created));
  // Only the query count is deterministic: how many of those queries reached
  // SAT (vs being served by the model-reuse fast path or the shared
  // cross-pass cache) depends on cache temperature and thread interleaving,
  // so those counters live in the volatile section.
  out += StrFormat("aggregate solver: %llu queries",
                   static_cast<unsigned long long>(total_solver_stats.queries));
  if (include_volatile) {
    out += StrFormat(", %llu SAT calls, %llu model-reuse hits, slowest query %.1f ms",
                     static_cast<unsigned long long>(total_solver_stats.sat_calls),
                     static_cast<unsigned long long>(total_solver_stats.model_reuse_hits),
                     total_solver_stats.max_query_wall_ms);
  }
  out += "\n";
  if (include_volatile && shared_cache_used) {
    out += StrFormat(
        "shared cache: %llu hits (%llu fastpath), %llu misses, %llu stores, "
        "%llu evictions, %llu entries (~%llu KiB)\n",
        static_cast<unsigned long long>(total_solver_stats.shared_cache_hits),
        static_cast<unsigned long long>(total_solver_stats.shared_cache_fastpath_hits),
        static_cast<unsigned long long>(total_solver_stats.shared_cache_misses),
        static_cast<unsigned long long>(total_solver_stats.shared_cache_stores),
        static_cast<unsigned long long>(shared_cache_evictions),
        static_cast<unsigned long long>(shared_cache_entries),
        static_cast<unsigned long long>(shared_cache_bytes / 1024));
    if (shared_cache_loaded_entries != 0 || shared_cache_saved_entries != 0 ||
        shared_cache_load_errors != 0) {
      out += StrFormat("shared cache disk: %llu loaded, %llu saved, %llu load errors\n",
                       static_cast<unsigned long long>(shared_cache_loaded_entries),
                       static_cast<unsigned long long>(shared_cache_saved_entries),
                       static_cast<unsigned long long>(shared_cache_load_errors));
    }
  }
  // Translation-cache counters describe how instructions were fetched, not
  // what they did, so they stay out of the deterministic report.
  if (include_volatile && total_stats.blocks_decoded != 0) {
    out += StrFormat(
        "block cache: %llu blocks decoded, %llu instruction fetch hits, "
        "%llu fallback fetches\n",
        static_cast<unsigned long long>(total_stats.blocks_decoded),
        static_cast<unsigned long long>(total_stats.block_cache_hits),
        static_cast<unsigned long long>(total_stats.block_cache_fallback_fetches));
  }
  out += StrFormat("supervisor: %llu pass%s retried, %llu quarantined\n",
                   static_cast<unsigned long long>(passes_retried),
                   passes_retried == 1 ? "" : "es",
                   static_cast<unsigned long long>(passes_quarantined));
  if (include_volatile) {
    if (passes_loaded != 0) {
      out += StrFormat("resumed: %llu pass%s restored from journal\n",
                       static_cast<unsigned long long>(passes_loaded),
                       passes_loaded == 1 ? "" : "es");
    }
    const char* searcher = searcher_name.empty() ? "?" : searcher_name.c_str();
    if (fleet_mode) {
      out += StrFormat(
          "scheduler: fleet of %u worker process%s, searcher %s, campaign wall %.1f ms "
          "(passes sum %.1f ms)\n",
          fleet_workers, fleet_workers == 1 ? "" : "es", searcher, campaign_wall_ms,
          total_wall_ms);
      out += StrFormat(
          "fleet: %llu spawned, %llu lost, %llu rejected, %llu recycled, "
          "%llu lease%s reassigned, %llu result%s salvaged\n",
          static_cast<unsigned long long>(fleet_workers_spawned),
          static_cast<unsigned long long>(fleet_workers_lost),
          static_cast<unsigned long long>(fleet_workers_rejected),
          static_cast<unsigned long long>(fleet_workers_recycled),
          static_cast<unsigned long long>(fleet_leases_reassigned),
          fleet_leases_reassigned == 1 ? "" : "s",
          static_cast<unsigned long long>(fleet_results_salvaged),
          fleet_results_salvaged == 1 ? "" : "s");
    } else if (inline_scheduler) {
      out += StrFormat("scheduler: inline on calling thread, searcher %s, campaign wall "
                       "%.1f ms (passes sum %.1f ms)\n",
                       searcher, campaign_wall_ms, total_wall_ms);
    } else {
      out += StrFormat(
          "scheduler: %u worker thread%s, searcher %s, campaign wall %.1f ms "
          "(passes sum %.1f ms)\n",
          threads_used, threads_used == 1 ? "" : "s", searcher, campaign_wall_ms,
          total_wall_ms);
    }
    // Path-explosion control tallies. The fork-site table is printed even
    // when every control is off (the fork profiler is always-on), so a user
    // can see *where* states and dropped forks come from before deciding
    // which control to enable. SAT-call attribution depends on cache
    // temperature across threads, which is why this whole block is volatile.
    if (total_stats.states_merged != 0 || total_stats.loop_kills != 0 ||
        total_stats.edge_kills != 0) {
      out += StrFormat("pathctl: %llu states merged, %llu loop kills, %llu edge kills\n",
                       static_cast<unsigned long long>(total_stats.states_merged),
                       static_cast<unsigned long long>(total_stats.loop_kills),
                       static_cast<unsigned long long>(total_stats.edge_kills));
      for (size_t i = 0; i < total_stats.edge_rule_kills.size(); ++i) {
        out += StrFormat("  edge-kill rule %zu: %llu kill%s\n", i,
                         static_cast<unsigned long long>(total_stats.edge_rule_kills[i]),
                         total_stats.edge_rule_kills[i] == 1 ? "" : "s");
      }
    }
    out += FormatHotForkSites(total_stats.fork_sites, 8);
    if (!profile.empty()) {
      out += profile.FormatTopPasses(5);
      out += profile.FormatHotFaultSites(8);
    }
  }
  return out;
}

}  // namespace ddt
