// Fault-injection campaign (§3.4): systematically fail kernel-API calls to
// reach the error-handling paths a plain run never executes.
//
// This example runs a campaign over the RTL8029 corpus driver. The baseline
// pass finds the Table-2 bugs; the campaign then generates one FaultPlan per
// observed fault-eligible call site (allocation, MosMapIoSpace, registry
// read, device-not-present) and re-runs the engine under each. The RTL8029
// analogue hides a *latent* cleanup bug on its MosMapIoSpace failure path —
// unreachable in plain runs because BAR0 always maps — which only the
// campaign's map-io-space#0 plan exposes. The merged report shows which plan
// found each bug, and every fault-found bug replays with its exact failure
// schedule.
//
// Supervisor flags (CI uses these to prove kill-and-resume determinism):
//   --journal=PATH     checkpoint each completed pass to PATH (CRC-framed
//                      records; a torn tail from a kill is discarded)
//   --resume           resume from a (possibly interrupted) journal at PATH;
//                      with --fuzz-corpus, also resume the fuzz loop
//   --report-out=PATH  write the deterministic report (no wall times, thread
//                      counts, or resume counters) to PATH for diffing
//   --threads=N        scheduler threads (default: one per hardware thread)
//   --shared-cache=PATH  share solver verdicts across passes through a
//                      process-wide canonical query cache persisted at PATH:
//                      the first run is cold, reruns warm-start from disk and
//                      skip already-solved SAT work (the deterministic report
//                      is byte-identical either way — CI diffs it); a damaged
//                      or stale file is ignored and counted, never fatal
//
// Path-explosion control flags (src/engine/pathctl.h; see DESIGN.md §7i):
//   --pathctl=0|1      enable the path-explosion controls: diamond state
//                      merging at reconvergence points plus coverage-starved
//                      back-edge kills. Off by default; with it off the
//                      deterministic report is byte-identical to before —
//                      CI diffs it. The fork profiler itself is always on
//   --kill-edge=FROM:TO  declarative EdgeKiller rule (PCs, hex ok): any state
//                      traversing the FROM->TO edge terminates, with a
//                      per-rule kill counter in the volatile report.
//                      Repeatable; effective only with --pathctl=1
//   --searcher=NAME    state-selection policy: coverage-greedy (default),
//                      dfs, bfs, random, or coverage-starved (states whose
//                      next block is already covered are deprioritized;
//                      RNG-free, so selection is a pure function of state
//                      and coverage)
//
// Hardware fault plane flags (src/hw; see DESIGN.md §7g):
//   --hw-faults=0|1    append device-level fault plans to the schedule —
//                      surprise removal (reads float all-ones, writes drop,
//                      one PnP halt delivery), sticky MMIO error state,
//                      interrupt storms/droughts, dropped doorbell writes —
//                      one deterministic single-point plan per sampled site
//   --dma-checker=0|1  Checkbochs-style DMA checker: every address the driver
//                      programs into a device DMA register is validated
//                      against live kernel allocation/mapping state, and a
//                      free of device-owned memory is flagged
//
// Observability flags (src/obs; see docs/OBSERVABILITY.md):
//   --trace-out=PATH   record structured trace events during the campaign and
//                      export them as Chrome trace-event JSON — open PATH in
//                      chrome://tracing or https://ui.perfetto.dev
//   --metrics-out=PATH write the merged campaign metrics snapshot as JSON
//
// Fleet flags (src/fleet; crash-isolated multi-process campaign):
//   --workers=N        run the campaign across N worker *processes* (this
//                      binary re-executed in --fleet-worker mode). A worker
//                      killed mid-pass costs only its in-flight lease; the
//                      deterministic report stays byte-identical to --workers=0
//   --fleet-kill-lease=K  crash harness: SIGKILL the worker holding the Kth
//                      lease, forcing salvage + reassignment (CI uses this to
//                      prove the report survives worker death unchanged)
//   --fleet-worker     internal: run as a fleet worker (spawned by the
//                      coordinator, speaks the wire protocol on fds 3/4)
//
// Concolic fuzz loop flags (src/fuzz; see DESIGN.md §7h):
//   --fuzz=0|1         after the campaign, run the hybrid concolic fuzz loop:
//                      derive solver-backed seeds from a symbolic pass,
//                      mutate them deterministically, replay mutants down the
//                      concrete fast path with every checker live, keep
//                      coverage-novel inputs, and promote the best back to
//                      symbolic exploration as concretization hints. The
//                      report grows a "--- fuzz ---" section; with --fuzz=0
//                      the report is byte-identical to before
//   --fuzz-seed=N      mutation-universe seed (default 0xF0221); corpus files
//                      are bound to it
//   --fuzz-batches=N   mutation batches after the seed batch (default 4)
//   --fuzz-execs=N     concrete executions per batch (default 32)
//   --fuzz-corpus=PATH persist the corpus and the loop's resume state
//                      (CRC-framed records, torn-tail tolerant); with
//                      --resume, completed batches load from it with their
//                      tallies and bugs, only missing batches execute, and
//                      the report matches an uninterrupted run's
//                      (--workers also shards fuzz execs across forked
//                      processes; the report is identical at any count)
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/fuzz.h"
#include "src/obs/trace_events.h"
#include "src/support/strings.h"

namespace {

// One config for the coordinator, the in-process path, and every exec-mode
// worker: the schedule-determining knobs are compiled in, so the worker's
// HELLO fingerprint matches the coordinator's by construction.
ddt::FaultCampaignConfig MakeCampaignConfig() {
  ddt::FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 120'000;
  config.max_passes = 16;
  config.max_occurrences_per_class = 4;
  config.escalation_rounds = 1;
  return config;
}

bool ParseUintFlag(const std::string& arg, const char* name, uint64_t* out) {
  size_t len = std::strlen(name);
  if (arg.rfind(name, 0) != 0) {
    return false;
  }
  int64_t parsed = 0;
  if (!ddt::ParseInt(arg.substr(len), &parsed) || parsed < 0) {
    std::fprintf(stderr, "bad value: %s\n", arg.c_str());
    std::exit(2);
  }
  *out = static_cast<uint64_t>(parsed);
  return true;
}

// Applies one campaign-shaping flag to `config`. Each of these enters the
// campaign fingerprint (or, for --shared-cache, the worker's solver setup),
// so main() forwards every accepted one verbatim to exec-mode fleet workers,
// which rebuild their config from MakeCampaignConfig() and parse it here
// too. Returns false when `arg` is not such a flag; a bad value exits 2.
bool ApplyCampaignFlag(const std::string& arg, ddt::FaultCampaignConfig* config) {
  uint64_t v = 0;
  if (arg.rfind("--shared-cache=", 0) == 0) {
    config->shared_cache_path = arg.substr(std::strlen("--shared-cache="));
  } else if (ParseUintFlag(arg, "--hw-faults=", &v)) {
    config->hw_faults = v != 0;
  } else if (ParseUintFlag(arg, "--dma-checker=", &v)) {
    config->base.dma_checker = v != 0;
  } else if (ParseUintFlag(arg, "--pathctl=", &v)) {
    config->base.engine.pathctl.enabled = v != 0;
  } else if (arg.rfind("--kill-edge=", 0) == 0) {
    ddt::EdgeKillRule rule;
    if (!ddt::ParseEdgeKillRule(arg.substr(std::strlen("--kill-edge=")), &rule)) {
      std::fprintf(stderr, "bad --kill-edge value (want FROM:TO): %s\n", arg.c_str());
      std::exit(2);
    }
    config->base.engine.pathctl.kill_edges.push_back(rule);
  } else if (arg.rfind("--searcher=", 0) == 0) {
    if (!ddt::ParseSearchStrategy(arg.substr(std::strlen("--searcher=")),
                                  &config->base.engine.strategy)) {
      std::fprintf(stderr,
                   "unknown --searcher value: %s (want coverage-greedy, dfs, bfs, "
                   "random, or coverage-starved)\n",
                   arg.c_str());
      std::exit(2);
    }
  } else {
    return false;
  }
  return true;
}

int RunAsFleetWorker(int argc, char** argv) {
  const ddt::CorpusDriver& driver = ddt::CorpusDriverByName("rtl8029");
  ddt::FaultCampaignConfig config = MakeCampaignConfig();
  ddt::fleet::FleetWorkerOptions options;
  uint64_t v = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--fleet-worker" || ApplyCampaignFlag(arg, &config)) {
      continue;
    } else if (ParseUintFlag(arg, "--fleet-slot=", &v)) {
      options.slot = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "--fleet-gen=", &v)) {
      options.generation = v;
    } else if (ParseUintFlag(arg, "--fleet-heartbeat-ms=", &v)) {
      options.heartbeat_interval_ms = static_cast<uint32_t>(v);
    } else if (arg.rfind("--fleet-shard-dir=", 0) == 0) {
      options.shard_dir = arg.substr(std::strlen("--fleet-shard-dir="));
    } else {
      std::fprintf(stderr, "fleet worker: unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }
  return ddt::fleet::RunFleetWorker(config, driver.image, driver.pci, options);
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--fleet-worker") {
      return RunAsFleetWorker(argc, argv);
    }
  }

  ddt::FaultCampaignConfig config = MakeCampaignConfig();
  std::vector<std::string> campaign_flags;  // forwarded verbatim to workers
  std::string report_out;
  std::string trace_out;
  std::string metrics_out;
  uint32_t workers = 0;
  int64_t kill_lease = -1;
  bool fuzz = false;
  ddt::fuzz::FuzzConfig fuzz_knobs;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    uint64_t v = 0;
    if (ApplyCampaignFlag(arg, &config)) {
      campaign_flags.push_back(arg);
    } else if (arg.rfind("--journal=", 0) == 0) {
      config.journal_path = arg.substr(std::strlen("--journal="));
    } else if (arg == "--resume") {
      config.resume = true;
    } else if (arg.rfind("--report-out=", 0) == 0) {
      report_out = arg.substr(std::strlen("--report-out="));
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(std::strlen("--trace-out="));
    } else if (arg.rfind("--metrics-out=", 0) == 0) {
      metrics_out = arg.substr(std::strlen("--metrics-out="));
    } else if (ParseUintFlag(arg, "--threads=", &v)) {
      config.threads = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "--workers=", &v)) {
      workers = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "--fleet-kill-lease=", &v)) {
      kill_lease = static_cast<int64_t>(v);
    } else if (ParseUintFlag(arg, "--fuzz=", &v)) {
      fuzz = v != 0;
    } else if (ParseUintFlag(arg, "--fuzz-seed=", &v)) {
      fuzz_knobs.seed = v;
    } else if (ParseUintFlag(arg, "--fuzz-batches=", &v)) {
      fuzz_knobs.batches = static_cast<uint32_t>(v);
    } else if (ParseUintFlag(arg, "--fuzz-execs=", &v)) {
      fuzz_knobs.execs_per_batch = static_cast<uint32_t>(v);
    } else if (arg.rfind("--fuzz-corpus=", 0) == 0) {
      fuzz_knobs.corpus_path = arg.substr(std::strlen("--fuzz-corpus="));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const ddt::CorpusDriver& driver = ddt::CorpusDriverByName("rtl8029");
  config.collect_metrics = !metrics_out.empty();

  if (!trace_out.empty()) {
    ddt::obs::Tracer::Get().Enable();
  }

  auto run_campaign_fn = [&]() {
    if (workers == 0) {
      return ddt::RunFaultCampaign(config, driver.image, driver.pci);
    }
    ddt::fleet::FleetCampaignConfig fleet;
    fleet.workers = workers;
    fleet.kill_lease_number = kill_lease;
    char shard_template[] = "/tmp/ddt_fleet.XXXXXX";
    char* shard_dir = ::mkdtemp(shard_template);
    if (shard_dir == nullptr) {
      return ddt::Result<ddt::FaultCampaignResult>(
          ddt::Status::Error("cannot create fleet shard directory"));
    }
    fleet.shard_dir = shard_dir;
    // Re-execute this binary as the worker. /proc/self/exe survives PATH
    // lookups and cwd changes; argv[0] is the portable fallback.
    fleet.worker_exec = ::access("/proc/self/exe", X_OK) == 0 ? "/proc/self/exe" : argv[0];
    // A worker missing a fingerprinted knob would be rejected at HELLO.
    fleet.worker_args = campaign_flags;
    return ddt::fleet::RunFleetCampaign(config, driver.image, driver.pci, fleet);
  };

  // With --fuzz the campaign runs as phase 1 of the concolic loop (through the
  // same in-process/fleet path) and the reports grow a fuzz section; without
  // it this is the pre-fuzz binary, byte for byte.
  ddt::FaultCampaignResult campaign_result;
  ddt::fuzz::FuzzCampaignResult fuzz_result;
  bool fuzz_ran = false;
  if (fuzz) {
    ddt::fuzz::FuzzCampaignConfig fuzz_config;
    fuzz_config.campaign = config;
    fuzz_config.fuzz = fuzz_knobs;
    fuzz_config.fuzz.resume = config.resume;
    fuzz_config.fuzz.workers = workers;
    fuzz_config.run_campaign = run_campaign_fn;
    ddt::Result<ddt::fuzz::FuzzCampaignResult> fuzzed =
        ddt::fuzz::RunFuzzCampaign(fuzz_config, driver.image, driver.pci);
    if (!fuzzed.ok()) {
      std::fprintf(stderr, "fuzz campaign failed: %s\n", fuzzed.status().message().c_str());
      return 1;
    }
    fuzz_result = fuzzed.take();
    fuzz_ran = true;
  } else {
    ddt::Result<ddt::FaultCampaignResult> campaign = run_campaign_fn();
    if (!campaign.ok()) {
      std::fprintf(stderr, "campaign failed: %s\n", campaign.status().message().c_str());
      return 1;
    }
    campaign_result = campaign.take();
  }
  const ddt::FaultCampaignResult& result = fuzz_ran ? fuzz_result.campaign : campaign_result;
  std::string report_full = fuzz_ran ? fuzz_result.FormatReport(driver.name)
                                     : result.FormatReport(driver.name);
  std::printf("%s\n", report_full.c_str());

  if (!result.profile.empty()) {
    std::printf("%s", result.profile.FormatTopPasses(5).c_str());
  }

  if (!trace_out.empty()) {
    ddt::obs::Tracer::Get().Disable();
    std::string error;
    if (!ddt::obs::Tracer::Get().ExportChromeJson(trace_out, &error)) {
      std::fprintf(stderr, "trace export failed: %s\n", error.c_str());
      return 1;
    }
    std::printf("trace: %zu events written to %s (dropped %llu)\n",
                ddt::obs::Tracer::Get().Collect().size(), trace_out.c_str(),
                static_cast<unsigned long long>(ddt::obs::Tracer::Get().DroppedEvents()));
  }
  if (!metrics_out.empty()) {
    std::FILE* out = std::fopen(metrics_out.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_out.c_str());
      return 1;
    }
    std::string json = result.metrics.ToJson();
    std::fwrite(json.data(), 1, json.size(), out);
    std::fputc('\n', out);
    std::fclose(out);
  }

  if (!report_out.empty()) {
    std::FILE* out = std::fopen(report_out.c_str(), "wb");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", report_out.c_str());
      return 1;
    }
    std::string deterministic =
        fuzz_ran ? fuzz_result.FormatReport(driver.name, /*include_volatile=*/false)
                 : result.FormatReport(driver.name, /*include_volatile=*/false);
    std::fwrite(deterministic.data(), 1, deterministic.size(), out);
    std::fclose(out);
  }

  // Replay every bug a fault plan exposed: the recorded plan re-applies and
  // the deterministic occurrence counters reproduce the failure schedule.
  // Round-trip through the evidence-file format first, so the replayed bugs
  // carry only what survives serialization (find on one machine, replay on
  // another — the recorded fault plan must cross the process boundary too).
  const char* evidence_path = "/tmp/ddt_fault_campaign.report";
  std::vector<ddt::Bug> evidence_bugs = result.bugs;
  size_t campaign_bug_count = evidence_bugs.size();
  if (fuzz_ran) {
    evidence_bugs.insert(evidence_bugs.end(), fuzz_result.fuzz_bugs.begin(),
                         fuzz_result.fuzz_bugs.end());
  }
  ddt::Status saved = ddt::SaveBugsFile(evidence_path, evidence_bugs);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.message().c_str());
    return 1;
  }
  ddt::Result<std::vector<ddt::Bug>> loaded = ddt::LoadBugsFile(evidence_path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.status().message().c_str());
    return 1;
  }

  int replayed = 0;
  for (size_t i = 0; i < loaded.value().size(); ++i) {
    const ddt::Bug& bug = loaded.value()[i];
    bool is_fuzz_bug = i >= campaign_bug_count;
    // Campaign bugs replay only when a fault plan exposed them; fuzz bugs
    // always replay (the guided inputs patched into the evidence file are the
    // reproducer), under the checker set the fuzz executor ran with.
    if (!is_fuzz_bug && bug.fault_plan.empty()) {
      continue;
    }
    ddt::DdtConfig replay_config = config.base;
    if (is_fuzz_bug) {
      replay_config.dma_checker = true;
    }
    ddt::ReplayResult replay = ddt::ReplayBug(driver.image, driver.pci, bug, replay_config);
    std::printf("replay%s [%s] under plan %s: %s\n", is_fuzz_bug ? " (fuzz)" : "",
                bug.title.c_str(), bug.fault_plan.ToString().c_str(),
                replay.reproduced ? "reproduced" : replay.detail.c_str());
    if (replay.reproduced) {
      ++replayed;
    }
  }
  return replayed > 0 ? 0 : 1;  // we expect at least the latent map-failure bug
}
