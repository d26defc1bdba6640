#include "src/core/campaign_exec.h"

#include <algorithm>
#include <utility>

#include "src/obs/trace_events.h"
#include "src/support/check.h"
#include "src/support/strings.h"

namespace ddt {

uint64_t CampaignFingerprint(const FaultCampaignConfig& config, const DriverImage& image) {
  uint64_t h = 0xCBF29CE484222325ull;
  auto mix_bytes = [&h](const void* data, size_t size) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001B3ull;
    }
  };
  auto mix_u64 = [&mix_bytes](uint64_t v) { mix_bytes(&v, sizeof(v)); };
  mix_u64(config.seed);
  mix_u64(config.max_passes);
  mix_u64(config.max_occurrences_per_class);
  mix_u64(config.escalation_rounds);
  // The hardware fault plane and the DMA checker both change the pass
  // schedule or the bug sets passes produce, so they are part of a
  // campaign's identity.
  mix_u64(config.hw_faults ? 1 : 0);
  mix_u64(config.hw_max_points_per_kind);
  mix_u64(config.base.dma_checker ? 1 : 0);
  mix_u64(config.base.engine.seed);
  mix_u64(config.base.engine.max_instructions);
  mix_u64(config.base.engine.max_states);
  // Path-explosion controls change which states exist and when they die, so
  // every knob (and the search policy) is part of a campaign's identity —
  // a journal written under different controls must not resume here.
  const PathCtlConfig& pctl = config.base.engine.pathctl;
  mix_u64(pctl.enabled ? 1 : 0);
  mix_u64(pctl.merge ? 1 : 0);
  mix_u64(pctl.loop_kill ? 1 : 0);
  mix_u64(pctl.backedge_kill_threshold);
  mix_u64(pctl.kill_edges.size());
  for (const EdgeKillRule& rule : pctl.kill_edges) {
    mix_u64(rule.from);
    mix_u64(rule.to);
  }
  mix_u64(static_cast<uint64_t>(config.base.engine.strategy));
  mix_u64(config.base.use_default_checkers ? 1 : 0);
  mix_u64(config.base.use_standard_annotations ? 1 : 0);
  mix_bytes(image.name.data(), image.name.size());
  mix_bytes(image.code.data(), image.code.size());
  return h;
}

std::string BugKey(const Bug& bug) {
  return StrFormat("%d|%s", static_cast<int>(bug.type), bug.title.c_str());
}

Status ValidateCampaignConfig(const FaultCampaignConfig& config) {
  if (config.max_passes == 0) {
    return Status::Error("FaultCampaignConfig.max_passes must be nonzero");
  }
  if (config.max_pass_retries > 16) {
    return Status::Error(
        "FaultCampaignConfig.max_pass_retries is implausibly large (budgets double per attempt; "
        "16 retries already scales them 65536x)");
  }
  if (config.retry_backoff_ms > 60'000) {
    return Status::Error("FaultCampaignConfig.retry_backoff_ms must be at most 60000 (1 minute)");
  }
  if (config.resume && config.journal_path.empty()) {
    return Status::Error("FaultCampaignConfig.resume requires journal_path");
  }
  if (config.hw_faults && config.hw_max_points_per_kind == 0) {
    return Status::Error(
        "FaultCampaignConfig.hw_faults requires hw_max_points_per_kind >= 1 (no hardware fault "
        "plan could ever be generated)");
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// PassWatchdog
// ---------------------------------------------------------------------------

PassWatchdog::~PassWatchdog() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
}

uint64_t PassWatchdog::Arm(std::chrono::steady_clock::time_point deadline,
                           std::shared_ptr<std::atomic<bool>> token) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { Loop(); });
  }
  uint64_t id = next_id_++;
  armed_.emplace(id, Entry{deadline, std::move(token)});
  cv_.notify_all();
  return id;
}

void PassWatchdog::Disarm(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  armed_.erase(id);
}

void PassWatchdog::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (armed_.empty()) {
      cv_.wait(lock);
      continue;
    }
    auto now = std::chrono::steady_clock::now();
    auto next = std::chrono::steady_clock::time_point::max();
    for (auto it = armed_.begin(); it != armed_.end();) {
      if (it->second.deadline <= now) {
        it->second.token->store(true, std::memory_order_relaxed);
        it = armed_.erase(it);
      } else {
        next = std::min(next, it->second.deadline);
        ++it;
      }
    }
    if (!armed_.empty()) {
      cv_.wait_until(lock, next);
    }
  }
}

// ---------------------------------------------------------------------------
// CampaignPassExecutor
// ---------------------------------------------------------------------------

CampaignPassExecutor::CampaignPassExecutor(const FaultCampaignConfig& config,
                                           const DriverImage& image,
                                           const PciDescriptor& descriptor,
                                           SharedQueryCache* shared_cache,
                                           obs::MetricsRegistry* campaign_metrics)
    : config_(config),
      image_(image),
      descriptor_(descriptor),
      shared_cache_(shared_cache),
      campaign_metrics_(campaign_metrics) {}

PassOutcome CampaignPassExecutor::Execute(const FaultPlan& plan) {
  PassOutcome out;
  obs::ScopedSpan pass_span("campaign.pass");
  if (obs::Tracer::Enabled()) {
    pass_span.Arg(plan.empty() ? "baseline" : plan.label);
  }
  for (uint32_t attempt = 0;; ++attempt) {
    DdtConfig pass_config = config_.base;
    pass_config.engine.fault_plan = plan;
    pass_config.engine.solver.shared_cache = shared_cache_;
    auto token = std::make_shared<std::atomic<bool>>(false);
    pass_config.engine.abort_token = token;
    if (config_.collect_metrics) {
      out.metrics = std::make_shared<obs::MetricsRegistry>();
      pass_config.engine.metrics = out.metrics.get();
    }
    if (config_.collect_profile) {
      out.profile = std::make_shared<obs::PassProfile>();
      pass_config.engine.profile = out.profile.get();
    }
    if (attempt > 0) {
      // Escalate the budgets that plausibly caused a transient failure.
      uint64_t scale = 1ull << attempt;
      if (pass_config.engine.solver.max_query_ms != 0) {
        pass_config.engine.solver.max_query_ms *= scale;
      }
      if (pass_config.engine.max_state_bytes != 0) {
        pass_config.engine.max_state_bytes *= scale;
      }
      if (pass_config.engine.max_instructions_per_state != 0) {
        pass_config.engine.max_instructions_per_state *= scale;
      }
    }
    out.ddt = std::make_shared<Ddt>(pass_config);
    if (config_.configure_pass != nullptr) {
      config_.configure_pass(*out.ddt, plan);
    }
    uint64_t watch_id = 0;
    if (config_.max_pass_wall_ms != 0) {
      watch_id = watchdog_.Arm(std::chrono::steady_clock::now() +
                                   std::chrono::milliseconds(config_.max_pass_wall_ms << attempt),
                               token);
    }
    out.retries = attempt;
    std::string hard_failure;
    std::optional<DdtResult> r;
    try {
      ScopedCheckTrap trap;
      Result<DdtResult> res = out.ddt->TestDriver(image_, descriptor_);
      if (res.ok()) {
        r = res.take();
      } else {
        hard_failure = res.status().message();
      }
    } catch (const CheckFailureError& e) {
      hard_failure = std::string("engine invariant failure: ") + e.what();
    } catch (const std::exception& e) {
      hard_failure = std::string("engine exception: ") + e.what();
    }
    if (watch_id != 0) {
      watchdog_.Disarm(watch_id);
    }
    if (!hard_failure.empty()) {
      // Deterministic failures don't get better with retries: quarantine
      // immediately and drop the partial state.
      out.quarantined = true;
      out.failure = hard_failure;
      out.r.reset();
      out.ddt.reset();
      obs::TraceInstant("campaign.quarantine", "cause", "hard_failure");
      if (campaign_metrics_ != nullptr) {
        campaign_metrics_->counter("campaign.quarantines")->Add(1);
      }
      return out;
    }
    bool timed_out = r->aborted;  // the watchdog fired mid-run
    if (timed_out) {
      obs::TraceInstant("campaign.watchdog_fire");
      if (campaign_metrics_ != nullptr) {
        campaign_metrics_->counter("campaign.watchdog_fires")->Add(1);
      }
    }
    bool pressured = r->solver_stats.query_timeouts > 0 || r->stats.states_evicted > 0;
    if (timed_out || (config_.retry_on_resource_pressure && pressured)) {
      if (attempt < config_.max_pass_retries) {
        obs::TraceInstant("campaign.retry", "cause", timed_out ? "watchdog" : "pressure");
        if (campaign_metrics_ != nullptr) {
          campaign_metrics_->counter("campaign.retries")->Add(1);
        }
        if (config_.retry_backoff_ms != 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(config_.retry_backoff_ms << attempt));
        }
        out.ddt.reset();
        continue;
      }
      if (timed_out) {
        out.quarantined = true;
        out.failure = StrFormat(
            "watchdog: pass exceeded its wall budget (%u attempt%s, base %llu ms)", attempt + 1,
            attempt == 0 ? "" : "s", static_cast<unsigned long long>(config_.max_pass_wall_ms));
        out.r.reset();
        out.ddt.reset();
        obs::TraceInstant("campaign.quarantine", "cause", "watchdog");
        if (campaign_metrics_ != nullptr) {
          campaign_metrics_->counter("campaign.quarantines")->Add(1);
        }
        return out;
      }
      // Still pressured after the final escalation: the result is degraded
      // (over-approximate exploration, evicted states) but valid — keep it.
    }
    out.r = std::move(r);
    return out;
  }
}

// ---------------------------------------------------------------------------
// Record conversion
// ---------------------------------------------------------------------------

CampaignPassRecord MakePassRecord(uint64_t index, const FaultPlan& plan, const PassOutcome& out,
                                  const FaultSiteProfile* profile,
                                  const HwSiteProfile* hw_profile) {
  CampaignPassRecord rec;
  rec.index = index;
  rec.label = plan.label;
  rec.points = plan.points;
  rec.hw_points = plan.hw_points;
  rec.retries = out.retries;
  rec.quarantined = out.quarantined;
  rec.failure = out.failure;
  if (out.r.has_value()) {
    rec.stats = out.r->stats;
    rec.solver_stats = out.r->solver_stats;
    rec.bugs = out.r->bugs;
  }
  if (profile != nullptr) {
    rec.has_profile = true;
    rec.profile = *profile;
  }
  if (hw_profile != nullptr) {
    rec.hw_profile = *hw_profile;
  }
  return rec;
}

PassOutcome OutcomeFromRecord(CampaignPassRecord&& rec, bool restored_from_journal) {
  PassOutcome out;
  out.from_journal = restored_from_journal;
  out.retries = rec.retries;
  out.quarantined = rec.quarantined;
  out.failure = rec.failure;
  out.record = std::move(rec);
  return out;
}

// ---------------------------------------------------------------------------
// CampaignSchedule
// ---------------------------------------------------------------------------

Status CampaignSchedule::Open(const DriverImage& image, obs::MetricsRegistry* metrics) {
  fingerprint_ = CampaignFingerprint(config_, image);
  if (config_.resume) {
    std::vector<CampaignPassRecord> records;
    Result<std::unique_ptr<CampaignJournal>> opened =
        CampaignJournal::OpenForResume(config_.journal_path, image.name, fingerprint_, &records);
    if (!opened.ok()) {
      return opened.status();
    }
    journal_ = opened.take();
    for (CampaignPassRecord& rec : records) {
      journaled_.insert_or_assign(rec.index, std::move(rec));
    }
  } else if (!config_.journal_path.empty()) {
    Result<std::unique_ptr<CampaignJournal>> created =
        CampaignJournal::Create(config_.journal_path, image.name, fingerprint_);
    if (!created.ok()) {
      return created.status();
    }
    journal_ = created.take();
  }
  if (journal_ != nullptr && metrics != nullptr) {
    journal_->SetMetrics(metrics);
  }
  return Status::Ok();
}

std::optional<CampaignPassRecord> CampaignSchedule::TakeBaseline() {
  auto it = journaled_.find(0);
  if (it == journaled_.end() || !it->second.has_profile || it->second.quarantined) {
    return std::nullopt;
  }
  CampaignPassRecord baseline = std::move(it->second);
  journaled_.erase(it);
  return baseline;
}

Result<CampaignSchedule::Passes> CampaignSchedule::Derive(const FaultSiteProfile& profile,
                                                          const HwSiteProfile& hw_profile) {
  size_t plan_budget = config_.max_passes > 0 ? config_.max_passes - 1 : 0;
  plans_ = GenerateCampaignPlans(profile, config_.seed, config_.max_occurrences_per_class,
                                 config_.escalation_rounds, plan_budget);
  // Hardware fault plans ride the same budget, after the kernel-API plans:
  // the error paths §3.4 targets first are the common case, device-level
  // hostility extends the campaign rather than displacing it.
  if (config_.hw_faults && plans_.size() < plan_budget) {
    for (FaultPlan& plan : GenerateHwCampaignPlans(hw_profile, config_.hw_max_points_per_kind,
                                                   plan_budget - plans_.size())) {
      plans_.push_back(std::move(plan));
    }
  }
  Passes passes;
  for (size_t i = 0; i < plans_.size(); ++i) {
    uint64_t index = i + 1;
    auto it = journaled_.find(index);
    if (it == journaled_.end()) {
      passes.pending.push_back(index);
      continue;
    }
    if (it->second.label != plans_[i].label) {
      return Status::Error(StrFormat(
          "journal '%s' does not match the campaign schedule: pass %zu is '%s' in the "
          "journal but '%s' in the regenerated plan",
          config_.journal_path.c_str(), static_cast<size_t>(index), it->second.label.c_str(),
          plans_[i].label.c_str()));
    }
    passes.restored.push_back(std::move(it->second));
  }
  journaled_.clear();
  return passes;
}

// ---------------------------------------------------------------------------
// CampaignMerger
// ---------------------------------------------------------------------------

void CampaignMerger::Merge(const FaultPlan& plan, PassOutcome& out) {
  FaultCampaignResult& result = *result_;
  {
    // Merge time is attributed to the pass being merged; the profile is
    // snapshotted for the report only after this scope closes.
    obs::ScopedPhase merge_phase(out.profile.get(), obs::Phase::kMerge);
    FaultCampaignPass pass;
    pass.plan = plan;
    pass.retries = out.retries;
    pass.quarantined = out.quarantined;
    pass.failure = out.failure;
    pass.from_journal = out.from_journal;
    if (out.retries > 0) {
      ++result.passes_retried;
    }
    if (out.from_journal) {
      ++result.passes_loaded;
    }
    if (out.quarantined) {
      // A quarantined pass contributes nothing to the aggregates: whatever
      // stats a cancelled run accumulated depend on where the watchdog
      // struck, and folding them in would make the merged report
      // timing-dependent.
      ++result.passes_quarantined;
      result.passes.push_back(std::move(pass));
    } else {
      bool from_record = out.record.has_value();
      const EngineStats& stats = from_record ? out.record->stats : out.r->stats;
      const SolverStats& solver_stats =
          from_record ? out.record->solver_stats : out.r->solver_stats;
      const std::vector<Bug>& bugs = from_record ? out.record->bugs : out.r->bugs;
      pass.stats = stats;
      pass.solver_stats = solver_stats;
      pass.bugs_found = bugs.size();
      for (const Bug& bug : bugs) {
        if (seen_.insert(BugKey(bug)).second) {
          ++pass.bugs_new;
          result.bugs.push_back(bug);
        }
      }
      result.total_faults_injected += stats.faults_injected;
      result.total_wall_ms += stats.wall_ms;
      result.total_stats.Accumulate(stats);
      result.total_solver_stats.Accumulate(solver_stats);
#ifndef DDT_OBS_DISABLED
      if (from_record && config_.collect_metrics) {
        // A live pass's engine published these itself at the end of its run.
        obs::MetricsRegistry record_metrics;
        PublishStatsMetrics(stats, solver_stats, !plan.hw_points.empty(),
                            config_.shared_cache || !config_.shared_cache_path.empty(),
                            &record_metrics);
        result.metrics.Merge(record_metrics.Snapshot());
      }
#endif
      // Fork-site hotness for the obs profile. Keys are pre-formatted here
      // because obs must not depend on engine types; record-sourced passes
      // contribute too (the table rides in EngineStats through the journal).
      for (const auto& [key, site] : stats.fork_sites) {
        if (site.states_created != 0) {
          result.profile.fork_site_states[StrFormat(
              "pc=%08x fault=%s", key.first, key.second.c_str())] += site.states_created;
        }
      }
      result.passes.push_back(std::move(pass));
    }
  }
  // Observability bookkeeping (volatile outputs only). Record-sourced passes
  // have null sinks: no live timing was recorded for them in this process.
  size_t pass_index = result.passes.size() - 1;
  if (out.metrics != nullptr) {
    result.metrics.Merge(out.metrics->Snapshot());
    result.obs_keepalive.push_back(out.metrics);
  }
  if (out.profile != nullptr) {
    obs::CampaignProfile::PassEntry entry;
    entry.index = pass_index;
    entry.label = plan.empty() ? "baseline" : plan.label;
    entry.quarantined = out.quarantined;
    entry.phases = out.profile->Snapshot();
    entry.wall_ms = static_cast<double>(entry.phases.total_ns) / 1e6;
    result.profile.passes.push_back(std::move(entry));
    result.obs_keepalive.push_back(out.profile);
  }
  if (out.ddt != nullptr) {
    if (out.profile != nullptr || out.metrics != nullptr) {
      // Fault-site hotness: per-class occurrence counts this pass observed.
      const FaultSiteProfile& sites = out.ddt->engine().fault_site_profile();
      for (size_t c = 0; c < kNumFaultClasses; ++c) {
        if (sites.max_occurrences[c] != 0) {
          result.profile.fault_site_occurrences[FaultClassName(static_cast<FaultClass>(c))] +=
              sites.max_occurrences[c];
        }
      }
    }
    // Bugs hold ExprRefs owned by this instance's ExprContext. (Record-
    // sourced passes carry deserialized bugs, which own their storage.)
    result.keepalive.push_back(std::move(out.ddt));
  }
}

}  // namespace ddt
