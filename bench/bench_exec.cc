// Execution-performance benchmark for the translation cache and the parallel
// fault-campaign scheduler.
//
//   part 1: interpreter throughput (instructions/sec), block cache off vs on,
//           on a synthetic concrete tight loop (fetch-dominated) and on the
//           RTL8029 corpus driver (realistic mix), with bug-set parity checked;
//   part 2: fault-campaign wall time at 1/2/4 worker threads over the same
//           plan set, with merged-bug parity checked across thread counts;
//   part 3: campaign-supervisor overhead — the same campaign with the
//           checkpoint journal on, which must stay near the unjournaled wall
//           time (crash-safe resume is supposed to be free until it's needed);
//   part 4: observability overhead — the interpreter run and the campaign with
//           every obs sink wired (tracer recording, metrics, per-pass profile)
//           vs the runtime kill switch, gated at <= 5% because the probes stay
//           off the per-instruction path;
//   part 5: shared solver cache — cold persist vs warm start from disk, gated
//           on a real wall-time win with verdicts and report unchanged;
//   part 6: fleet overhead — the same campaign through the multi-process
//           coordinator with a single worker vs in-process threads=1. Process
//           isolation costs a fork, a warm-up, heartbeats, and pipe framing
//           per pass; that tax must stay <= 10% and the deterministic report
//           byte-identical.
//   part 8: fuzz concrete-executor throughput — solver-derived seeds replayed
//           down the pure concrete fast path (src/fuzz/executor.h: guided
//           mode, no solver) with the default block-cached executor vs the
//           uncached interpreter, against the per-pass rate of the symbolic
//           exploration that derived them. The concolic loop only pays off
//           if a concrete exec is far cheaper than a symbolic pass; gated at
//           >= 10x execs/sec over symbolic passes/sec.
//   part 9: path-explosion control — the fault_farm and solver_farm campaigns
//           with every pathctl control off vs on (diamond state merging +
//           coverage-starved back-edge kills, src/engine/pathctl.h). The
//           controls must find the identical bug set per bench while creating
//           >= 30% fewer states in aggregate and making strictly fewer SAT
//           calls: merging collapses solver_farm's 2^6 branch-diamond leaves.
//           fault_farm is the no-harm leg: its error-path spins are ended by
//           the loop checker's 100k-step heuristic before the back-edge kill
//           threshold is reachable, so controls-on must leave its states,
//           instructions, and bugs untouched.
//
// Every timed gate is judged on the median of kPairs paired runs whose two
// sides alternate (A B A B ...), so a slow stretch of a shared host lands on
// both sides rather than on one; each gate prints min / median / max of its
// per-pair ratio. Part 9's gates are counts, so it runs once.
//
// Emits a machine-readable JSON summary of the medians (default:
// BENCH_exec.json in the current directory; override with argv[1]).
#include <cstdlib>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/input.h"
#include "src/obs/metrics.h"
#include "src/obs/profiler.h"
#include "src/obs/trace_events.h"
#include "src/support/strings.h"
#include "src/support/thread_pool.h"
#include "src/vm/assembler.h"

namespace {

using namespace ddt;

PciDescriptor LoopPci() {
  PciDescriptor pci;
  pci.vendor_id = 1;
  pci.device_id = 1;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

// Concrete counted loop, 5 instructions per iteration, no kernel calls or
// symbolic data inside: per-step fetch cost dominates, which is exactly what
// the cache removes.
DriverImage TightLoopImage() {
  static const char* kSource = R"(
  .driver "tight_loop"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    movi r1, 0
    movi r2, 120000
  loop:
    addi r1, r1, 1
    xor r3, r1, r2
    add r4, r1, r3
    subi r2, r2, 1
    bnz r2, loop
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
  if (!assembled.ok()) {
    std::fprintf(stderr, "tight_loop assembly failed: %s\n", assembled.error().c_str());
    std::exit(1);
  }
  return assembled.value().image;
}

struct InterpRun {
  double ips = 0;
  uint64_t instructions = 0;
  std::vector<std::string> bug_rows;
};

InterpRun RunInterp(const DriverImage& image, const PciDescriptor& pci, bool cache,
                    bool checkers, uint64_t max_instructions, bool with_obs = false) {
  obs::MetricsRegistry metrics;
  obs::PassProfile profile;
  DdtConfig config;
  config.engine.max_instructions = max_instructions;
  config.engine.max_wall_ms = 3'600'000;  // never hit: cutoffs are instruction-determined
  config.engine.enable_block_cache = cache;
  config.use_default_checkers = checkers;
  if (with_obs) {
    config.engine.metrics = &metrics;
    config.engine.profile = &profile;
  }
  Ddt ddt(config);
  Result<DdtResult> r = ddt.TestDriver(image, pci);
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.status().message().c_str());
    std::exit(1);
  }
  const DdtResult& result = r.value();
  InterpRun run;
  run.instructions = result.stats.instructions;
  run.ips = result.stats.wall_ms > 0 ? static_cast<double>(result.stats.instructions) /
                                           (result.stats.wall_ms / 1000.0)
                                     : 0;
  for (const Bug& bug : result.bugs) {
    run.bug_rows.push_back(bug.Row());
  }
  return run;
}

// Campaign workload: a driver with 12 independent allocation fault sites in
// init, each of whose failure paths runs a long concrete retry/backoff loop
// before reporting failure. Every generated fault plan therefore costs real
// engine time (unlike corpus drivers, where an injected init failure usually
// kills the pass within microseconds) — exactly the shape where the parallel
// scheduler pays off. The happy path allocates and returns quickly, keeping
// the (inherently sequential) baseline pass cheap.
DriverImage FaultFarmImage() {
  std::string allocs;
  for (int i = 0; i < 12; ++i) {
    allocs +=
        "    movi r0, 64\n"
        "    kcall MosAllocatePool\n"
        "    bz r0, fail\n";
  }
  std::string source = R"(
  .driver "fault_farm"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
)" + allocs + R"(
    movi r0, 0
    ret
  fail:
    movi r1, 300000
  spin:
    subi r1, r1, 1
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
  if (!assembled.ok()) {
    std::fprintf(stderr, "fault_farm assembly failed: %s\n", assembled.error().c_str());
    std::exit(1);
  }
  return assembled.value().image;
}

// Shared-cache workload: the interesting work happens *before* the fault
// sites. Init reads four device registers (symbolic), masks each to 14 bits,
// and branches on a squared-and-masked product — bit-blasting 32-bit
// multiplies is exactly the query shape where SAT time dominates. Only then
// come six allocation fault sites, so every generated fault plan re-executes
// the identical symbolic prefix and re-asks the identical queries: a cold
// campaign solves each canonical query once (later passes hit the in-memory
// shared cache), and a warm-started campaign solves none of them.
DriverImage SolverFarmImage() {
  // Each round branches on (C_i * x_i^2) & 0xFFFFF == D_i for a fresh device
  // read x_i: a quadratic-preimage query the SAT core has to genuinely search
  // (32-bit multiplies under a 20-bit mask). The rounds use distinct
  // constants, so they are distinct canonical queries; but each round's
  // condition touches only its own variable, so constraint slicing gives
  // every pass, every path, the *same* canonical query per round — the exact
  // shape the shared cache converts from solved-per-pass to solved-once.
  static const unsigned kMults[6] = {77, 131, 197, 241, 311, 389};
  static const unsigned kTargets[6] = {0x1234, 0x35A7, 0x77E1, 0x2B6D, 0x5C3F, 0x6E15};
  std::string rounds;
  for (int i = 0; i < 6; ++i) {
    rounds += StrFormat(
        "    ld32 r1, [r5+%d]\n"
        "    andi r1, r1, 0xFFFFF\n"
        "    muli r2, r1, %u\n"
        "    mul r2, r2, r1\n"
        "    andi r3, r2, 0xFFFFF\n"
        "    subi r3, r3, %u\n"
        "    bz r3, round%d_hit\n"
        "    addi r6, r6, 1\n"
        "  round%d_hit:\n",
        i * 4, kMults[i], kTargets[i], i, i);
  }
  std::string allocs;
  for (int i = 0; i < 6; ++i) {
    allocs +=
        "    movi r0, 64\n"
        "    kcall MosAllocatePool\n"
        "    bz r0, alloc_failed\n";
  }
  std::string source = R"(
  .driver "solver_farm"
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
    addi r5, r0, 0
)" + rounds + allocs + R"(
    movi r0, 0
    ret
  map_failed:
    movi r0, 0xC000009A
    ret
  alloc_failed:
    movi r0, 0xC0000017
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
  if (!assembled.ok()) {
    std::fprintf(stderr, "solver_farm assembly failed: %s\n", assembled.error().c_str());
    std::exit(1);
  }
  return assembled.value().image;
}

struct CampaignRun {
  double wall_ms = 0;
  double passes_sum_ms = 0;
  size_t plans = 0;
  std::vector<std::string> bug_rows;
};

CampaignRun RunCampaign(const DriverImage& image, const PciDescriptor& pci, uint32_t threads,
                        const std::string& journal_path = std::string(),
                        bool with_obs = false) {
  FaultCampaignConfig config;
  config.journal_path = journal_path;
  config.collect_metrics = with_obs;
  config.collect_profile = with_obs;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 3'600'000;
  // Error-path exploration comes from the campaign's deterministic plans;
  // the alloc-failure annotation would redundantly fork the same paths in
  // every pass including the baseline.
  config.base.use_standard_annotations = false;
  config.max_passes = 16;
  config.max_occurrences_per_class = 8;
  config.escalation_rounds = 1;
  config.threads = threads;
  Result<FaultCampaignResult> r = RunFaultCampaign(config, image, pci);
  if (!r.ok()) {
    std::fprintf(stderr, "campaign (threads=%u) failed: %s\n", threads,
                 r.status().message().c_str());
    std::exit(1);
  }
  CampaignRun out;
  out.wall_ms = r.value().campaign_wall_ms;
  out.passes_sum_ms = r.value().total_wall_ms;
  out.plans = r.value().passes.size() - 1;  // minus baseline
  for (const Bug& bug : r.value().bugs) {
    out.bug_rows.push_back(bug.Row());
  }
  return out;
}

// The fault_farm campaign once more, in-process (threads=1) or through the
// fleet coordinator with `workers` worker processes — identical schedule, so
// the wall-time ratio is pure process-isolation tax and the deterministic
// reports must match byte for byte.
struct FleetRun {
  double wall_ms = 0;
  std::string deterministic_report;
};

FleetRun RunFleetBench(const DriverImage& image, const PciDescriptor& pci, uint32_t workers) {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 3'600'000;
  config.base.use_standard_annotations = false;
  config.max_passes = 16;
  config.max_occurrences_per_class = 8;
  config.escalation_rounds = 1;
  config.threads = 1;
  Result<FaultCampaignResult> r = [&]() {
    if (workers == 0) {
      return RunFaultCampaign(config, image, pci);
    }
    char shard_template[] = "/tmp/ddt_bench_fleet.XXXXXX";
    char* shard_dir = ::mkdtemp(shard_template);
    if (shard_dir == nullptr) {
      return Result<FaultCampaignResult>(Status::Error("mkdtemp failed"));
    }
    fleet::FleetCampaignConfig fc;
    fc.workers = workers;
    fc.shard_dir = shard_dir;
    return fleet::RunFleetCampaign(config, image, pci, fc);
  }();
  if (!r.ok()) {
    std::fprintf(stderr, "fleet bench campaign (workers=%u) failed: %s\n", workers,
                 r.status().message().c_str());
    std::exit(1);
  }
  FleetRun out;
  out.wall_ms = r.value().campaign_wall_ms;
  out.deterministic_report = r.value().FormatReport("fault_farm", /*include_volatile=*/false);
  return out;
}

// One shared-cache campaign over the solver_farm driver. `path` empty = cache
// off; non-empty = cache on with on-disk persistence at that path (a fresh
// path is a cold run, an existing file a warm start).
struct CacheCampaignRun {
  double wall_ms = 0;
  std::string deterministic_report;
  std::vector<std::string> bug_rows;
  SolverStats solver;
  uint64_t loaded_entries = 0;
  uint64_t saved_entries = 0;
};

CacheCampaignRun RunCacheCampaign(const DriverImage& image, const PciDescriptor& pci,
                                  const std::string& path) {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 3'600'000;
  config.base.use_standard_annotations = false;
  config.max_passes = 8;
  config.escalation_rounds = 0;
  config.threads = 1;  // isolate cache effect from scheduler effects
  config.shared_cache = !path.empty();
  config.shared_cache_path = path;
  Result<FaultCampaignResult> r = RunFaultCampaign(config, image, pci);
  if (!r.ok()) {
    std::fprintf(stderr, "shared-cache campaign failed: %s\n", r.status().message().c_str());
    std::exit(1);
  }
  CacheCampaignRun out;
  out.wall_ms = r.value().campaign_wall_ms;
  out.deterministic_report = r.value().FormatReport("solver_farm", /*include_volatile=*/false);
  for (const Bug& bug : r.value().bugs) {
    out.bug_rows.push_back(bug.Row());
  }
  out.solver = r.value().total_solver_stats;
  out.loaded_entries = r.value().shared_cache_loaded_entries;
  out.saved_entries = r.value().shared_cache_saved_entries;
  return out;
}

// One campaign with the path-explosion controls off or on, everything else
// identical (threads=1 isolates the control effect from scheduler effects).
struct PathCtlRun {
  double wall_ms = 0;
  uint64_t states_created = 0;
  uint64_t states_merged = 0;
  uint64_t loop_kills = 0;
  uint64_t edge_kills = 0;
  uint64_t sat_calls = 0;
  uint64_t instructions = 0;
  std::vector<std::string> bug_rows;
};

PathCtlRun RunPathCtlCampaign(const DriverImage& image, const PciDescriptor& pci,
                              bool controls_on) {
  FaultCampaignConfig config;
  config.base.engine.max_instructions = 2'000'000;
  config.base.engine.max_wall_ms = 3'600'000;
  config.base.use_standard_annotations = false;
  config.max_passes = 16;
  config.max_occurrences_per_class = 8;
  config.escalation_rounds = 1;
  config.threads = 1;
  config.base.engine.pathctl.enabled = controls_on;
  Result<FaultCampaignResult> r = RunFaultCampaign(config, image, pci);
  if (!r.ok()) {
    std::fprintf(stderr, "pathctl campaign (controls %s) failed: %s\n",
                 controls_on ? "on" : "off", r.status().message().c_str());
    std::exit(1);
  }
  PathCtlRun out;
  out.wall_ms = r.value().campaign_wall_ms;
  out.states_created = r.value().total_stats.states_created;
  out.states_merged = r.value().total_stats.states_merged;
  out.loop_kills = r.value().total_stats.loop_kills;
  out.edge_kills = r.value().total_stats.edge_kills;
  out.instructions = r.value().total_stats.instructions;
  out.sat_calls = r.value().total_solver_stats.sat_calls;
  for (const Bug& bug : r.value().bugs) {
    out.bug_rows.push_back(bug.Row());
  }
  // Merging reorders within-pass discovery; the gate is set identity.
  std::sort(out.bug_rows.begin(), out.bug_rows.end());
  return out;
}

constexpr int kPairs = 5;

// min / median / max of one measurement over the kPairs rounds.
struct Spread {
  double min = 0;
  double median = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  Spread s;
  s.min = v.front();
  s.max = v.back();
  size_t n = v.size();
  s.median = n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// "1.83x (min 1.03, max 3.41)".
std::string Show(const Spread& s) {
  return StrFormat("%.3fx (min %.3f, max %.3f)", s.median, s.min, s.max);
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_exec.json";

  // --- part 1: interpreter throughput --------------------------------------
  std::printf("=== interpreter throughput (block cache off vs on, %d pairs) ===\n", kPairs);
  DriverImage loop_image = TightLoopImage();
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");
  std::vector<double> loop_off_ips, loop_on_ips, loop_ratios;
  std::vector<double> rtl_off_ips, rtl_on_ips, rtl_ratios;
  bool interp_bugs_identical = true;
  uint64_t loop_instructions = 0;
  for (int i = 0; i < kPairs; ++i) {
    InterpRun loop_off = RunInterp(loop_image, LoopPci(), /*cache=*/false,
                                   /*checkers=*/false, 2'000'000);
    InterpRun loop_on = RunInterp(loop_image, LoopPci(), /*cache=*/true,
                                  /*checkers=*/false, 2'000'000);
    InterpRun rtl_off = RunInterp(rtl.image, rtl.pci, /*cache=*/false, /*checkers=*/true, 60000);
    InterpRun rtl_on = RunInterp(rtl.image, rtl.pci, /*cache=*/true, /*checkers=*/true, 60000);
    loop_off_ips.push_back(loop_off.ips);
    loop_on_ips.push_back(loop_on.ips);
    loop_ratios.push_back(Ratio(loop_on.ips, loop_off.ips));
    rtl_off_ips.push_back(rtl_off.ips);
    rtl_on_ips.push_back(rtl_on.ips);
    rtl_ratios.push_back(Ratio(rtl_on.ips, rtl_off.ips));
    interp_bugs_identical &=
        loop_off.bug_rows == loop_on.bug_rows && rtl_off.bug_rows == rtl_on.bug_rows;
    loop_instructions = loop_on.instructions;
  }
  Spread loop_speedup = SpreadOf(loop_ratios);
  Spread rtl_speedup = SpreadOf(rtl_ratios);
  std::printf("tight_loop: %.0f -> %.0f insns/sec median, speedup %s, %llu insns\n",
              SpreadOf(loop_off_ips).median, SpreadOf(loop_on_ips).median,
              Show(loop_speedup).c_str(), static_cast<unsigned long long>(loop_instructions));
  std::printf("rtl8029:    %.0f -> %.0f insns/sec median, speedup %s, bugs identical: %s\n",
              SpreadOf(rtl_off_ips).median, SpreadOf(rtl_on_ips).median,
              Show(rtl_speedup).c_str(), interp_bugs_identical ? "yes" : "NO");

  // --- part 2: campaign scaling --------------------------------------------
  std::printf("\n=== fault-campaign wall time vs worker threads ===\n");
  DriverImage farm_image = FaultFarmImage();
  PciDescriptor farm_pci = LoopPci();
  std::vector<uint32_t> thread_counts = {1, 2, 4};
  // walls[t][i] / pass_sums[t][i]: thread count t, round i (1, 2, 4 alternate).
  std::vector<std::vector<double>> walls(thread_counts.size());
  std::vector<std::vector<double>> pass_sums(thread_counts.size());
  std::vector<double> speedups, overlaps, slowdowns;
  std::vector<std::string> campaign_bug_rows;
  size_t campaign_plans = 0;
  bool campaign_bugs_identical = true;
  for (int i = 0; i < kPairs; ++i) {
    for (size_t t = 0; t < thread_counts.size(); ++t) {
      CampaignRun run = RunCampaign(farm_image, farm_pci, thread_counts[t]);
      if (campaign_bug_rows.empty()) {
        campaign_bug_rows = run.bug_rows;
        campaign_plans = run.plans;
      }
      campaign_bugs_identical &= run.bug_rows == campaign_bug_rows;
      walls[t].push_back(run.wall_ms);
      pass_sums[t].push_back(run.passes_sum_ms);
    }
    speedups.push_back(Ratio(walls.front().back(), walls.back().back()));
    slowdowns.push_back(Ratio(walls.back().back(), walls.front().back()));
    // Scheduler concurrency: how much pass work the 4-worker run overlapped
    // (sum of per-pass wall over elapsed wall). Equals the wall-time speedup
    // on a machine with enough cores; on fewer cores it still shows the
    // scheduler kept workers busy while time-slicing.
    overlaps.push_back(Ratio(pass_sums.back().back(), walls.back().back()));
  }
  std::vector<double> wall_medians;
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    Spread wall = SpreadOf(walls[t]);
    Spread sum = SpreadOf(pass_sums[t]);
    wall_medians.push_back(wall.median);
    std::printf("threads=%u: %.1f ms wall (min %.1f, max %.1f), passes sum %.1f ms "
                "(min %.1f, max %.1f) over %zu plans\n",
                thread_counts[t], wall.median, wall.min, wall.max, sum.median, sum.min, sum.max,
                campaign_plans);
  }
  Spread campaign_speedup = SpreadOf(speedups);
  Spread concurrency = SpreadOf(overlaps);
  Spread campaign_slowdown = SpreadOf(slowdowns);
  size_t hardware_threads = ThreadPool::HardwareThreads();
  std::printf("speedup 4 workers over 1: %s (host has %zu hardware thread%s), "
              "overlap at 4 workers: %s, bugs identical: %s\n",
              Show(campaign_speedup).c_str(), hardware_threads, hardware_threads == 1 ? "" : "s",
              Show(concurrency).c_str(), campaign_bugs_identical ? "yes" : "NO");

  // --- part 3: supervisor overhead ------------------------------------------
  // The checkpoint journal costs one serialize+fwrite+fflush per completed
  // pass; crash-safe resume must be near-free when nothing crashes. Each
  // round runs the campaign at threads=4 unjournaled, then journaled.
  std::printf("\n=== campaign supervisor overhead (checkpoint journal) ===\n");
  const char* journal_path = "/tmp/ddt_bench_campaign.journal";
  std::vector<double> plain_walls, journaled_walls, journal_ratios;
  bool journal_bugs_identical = true;
  for (int i = 0; i < kPairs; ++i) {
    CampaignRun plain = RunCampaign(farm_image, farm_pci, 4);
    CampaignRun journaled = RunCampaign(farm_image, farm_pci, 4, journal_path);
    std::remove(journal_path);
    plain_walls.push_back(plain.wall_ms);
    journaled_walls.push_back(journaled.wall_ms);
    journal_ratios.push_back(Ratio(journaled.wall_ms, plain.wall_ms));
    journal_bugs_identical &= journaled.bug_rows == campaign_bug_rows;
  }
  Spread journal_overhead = SpreadOf(journal_ratios);
  std::printf("unjournaled: %.1f ms, journaled: %.1f ms (medians), overhead %s, "
              "bugs identical: %s\n",
              SpreadOf(plain_walls).median, SpreadOf(journaled_walls).median,
              Show(journal_overhead).c_str(), journal_bugs_identical ? "yes" : "NO");

  // --- part 4: observability overhead ---------------------------------------
  // Everything on (tracer recording, metrics registry wired, per-pass phase
  // profile) against the runtime kill switch (null sinks, tracer disabled).
  // The probes sit at coarse boundaries only — a SAT query, a block decode, a
  // pass, a journal flush — so both the interpreter and the campaign must stay
  // within 5%.
  std::printf("\n=== observability overhead (tracing + metrics vs kill-switched) ===\n");
  std::vector<double> interp_plain_ips, interp_obs_ips, interp_obs_ratios;
  std::vector<double> camp_plain_walls, camp_obs_walls, camp_obs_ratios;
  bool obs_bugs_identical = true;
  for (int i = 0; i < kPairs; ++i) {
    InterpRun plain = RunInterp(rtl.image, rtl.pci, /*cache=*/true, /*checkers=*/true, 60000);
    obs::Tracer::Get().Enable();
    InterpRun traced = RunInterp(rtl.image, rtl.pci, /*cache=*/true, /*checkers=*/true, 60000,
                                 /*with_obs=*/true);
    obs::Tracer::Get().Disable();
    interp_plain_ips.push_back(plain.ips);
    interp_obs_ips.push_back(traced.ips);
    interp_obs_ratios.push_back(Ratio(plain.ips, traced.ips));
    obs_bugs_identical &= plain.bug_rows == traced.bug_rows;
  }
  for (int i = 0; i < kPairs; ++i) {
    CampaignRun plain = RunCampaign(farm_image, farm_pci, 4);
    obs::Tracer::Get().Enable();
    CampaignRun traced = RunCampaign(farm_image, farm_pci, 4, std::string(), /*with_obs=*/true);
    obs::Tracer::Get().Disable();
    camp_plain_walls.push_back(plain.wall_ms);
    camp_obs_walls.push_back(traced.wall_ms);
    camp_obs_ratios.push_back(Ratio(traced.wall_ms, plain.wall_ms));
    obs_bugs_identical &= plain.bug_rows == traced.bug_rows;
  }
  Spread interp_obs_overhead = SpreadOf(interp_obs_ratios);
  Spread campaign_obs_overhead = SpreadOf(camp_obs_ratios);
  std::printf("rtl8029 interp: %.0f insns/sec kill-switched, %.0f traced (medians), "
              "overhead %s\n",
              SpreadOf(interp_plain_ips).median, SpreadOf(interp_obs_ips).median,
              Show(interp_obs_overhead).c_str());
  std::printf("fault_farm campaign: %.1f ms kill-switched, %.1f ms traced (medians), "
              "overhead %s, bugs identical: %s\n",
              SpreadOf(camp_plain_walls).median, SpreadOf(camp_obs_walls).median,
              Show(campaign_obs_overhead).c_str(), obs_bugs_identical ? "yes" : "NO");

  // --- part 5: shared solver cache warm start -------------------------------
  // Cold: cache enabled against a fresh file — every canonical query is
  // solved exactly once (later passes already hit the in-memory store), then
  // persisted. Warm: the same campaign again — it loads the file and answers
  // the SAT work from disk. The deterministic report must be byte-identical
  // off/cold/warm (the cache changes speed, never verdicts), and the warm
  // start must be >= 1.2x. Each round is one cold run and the warm run after
  // it.
  std::printf("\n=== shared solver cache (cold vs warm start) ===\n");
  DriverImage solver_farm = SolverFarmImage();
  PciDescriptor solver_pci = LoopPci();
  const char* cache_path = "/tmp/ddt_bench_shared_cache.bin";
  CacheCampaignRun cache_off = RunCacheCampaign(solver_farm, solver_pci, std::string());
  std::vector<double> cold_walls, warm_walls, warm_ratios;
  bool cache_bugs_identical = true;
  bool cache_reports_identical = true;
  bool warm_loads_and_skips_sat = true;
  CacheCampaignRun cold;
  CacheCampaignRun warm;
  for (int i = 0; i < kPairs; ++i) {
    std::remove(cache_path);
    cold = RunCacheCampaign(solver_farm, solver_pci, cache_path);
    warm = RunCacheCampaign(solver_farm, solver_pci, cache_path);
    cold_walls.push_back(cold.wall_ms);
    warm_walls.push_back(warm.wall_ms);
    warm_ratios.push_back(Ratio(cold.wall_ms, warm.wall_ms));
    cache_bugs_identical &=
        cold.bug_rows == cache_off.bug_rows && warm.bug_rows == cache_off.bug_rows;
    cache_reports_identical &= cold.deterministic_report == cache_off.deterministic_report &&
                               warm.deterministic_report == cache_off.deterministic_report;
    warm_loads_and_skips_sat &=
        warm.loaded_entries > 0 && warm.solver.sat_calls < cold.solver.sat_calls;
  }
  std::remove(cache_path);
  Spread warm_speedup = SpreadOf(warm_ratios);
  std::printf("cold: %.1f ms median (%llu SAT calls, %llu stores, %llu saved to disk)\n",
              SpreadOf(cold_walls).median,
              static_cast<unsigned long long>(cold.solver.sat_calls),
              static_cast<unsigned long long>(cold.solver.shared_cache_stores),
              static_cast<unsigned long long>(cold.saved_entries));
  std::printf("warm: %.1f ms median (%llu SAT calls, %llu hits + %llu fastpath, %llu loaded "
              "from disk)\n",
              SpreadOf(warm_walls).median, static_cast<unsigned long long>(warm.solver.sat_calls),
              static_cast<unsigned long long>(warm.solver.shared_cache_hits),
              static_cast<unsigned long long>(warm.solver.shared_cache_fastpath_hits),
              static_cast<unsigned long long>(warm.loaded_entries));
  std::printf("warm-start speedup: %s, bugs identical: %s, deterministic report identical: %s\n",
              Show(warm_speedup).c_str(), cache_bugs_identical ? "yes" : "NO",
              cache_reports_identical ? "yes" : "NO");

  // --- part 6: fleet overhead ------------------------------------------------
  // One worker process against in-process threads=1 over the identical
  // schedule: the difference is the whole cost of crash isolation — fork,
  // worker warm-up, heartbeat thread, pipe framing, shard journaling, and the
  // plan-order merge on the coordinator.
  std::printf("\n=== fleet overhead (1 worker process vs in-process) ===\n");
  std::vector<double> inproc_walls, fleet_walls, fleet_ratios;
  bool fleet_report_identical = true;
  for (int i = 0; i < kPairs; ++i) {
    FleetRun inproc = RunFleetBench(farm_image, farm_pci, 0);
    FleetRun one = RunFleetBench(farm_image, farm_pci, 1);
    inproc_walls.push_back(inproc.wall_ms);
    fleet_walls.push_back(one.wall_ms);
    fleet_ratios.push_back(Ratio(one.wall_ms, inproc.wall_ms));
    fleet_report_identical &= one.deterministic_report == inproc.deterministic_report;
  }
  Spread fleet_overhead = SpreadOf(fleet_ratios);
  std::printf("in-process: %.1f ms, fleet workers=1: %.1f ms (medians), overhead %s, "
              "deterministic report identical: %s\n",
              SpreadOf(inproc_walls).median, SpreadOf(fleet_walls).median,
              Show(fleet_overhead).c_str(), fleet_report_identical ? "yes" : "NO");

  // --- part 8: fuzz concrete-executor throughput -----------------------------
  // One symbolic pass over rtl8029 derives solver-backed path seeds; those
  // seeds then replay through the fuzz concrete executor (guided mode, solver
  // never invoked, all checkers live). The concolic loop's economics rest on
  // the concrete exec rate dwarfing the symbolic pass rate — that ratio is
  // the gate. Each round times one symbolic pass, then one uncached and one
  // block-cached replay of its seeds.
  std::printf("\n=== fuzz concrete executor (symbolic pass vs concrete replay) ===\n");
  FaultCampaignConfig fuzz_campaign;
  fuzz_campaign.base.engine.max_instructions = 2'000'000;
  fuzz_campaign.base.engine.max_wall_ms = 3'600'000;
  FaultCampaignConfig fuzz_interp_cfg = fuzz_campaign;
  fuzz_interp_cfg.base.engine.enable_block_cache = false;

  DdtConfig fuzz_seed_config = fuzz_campaign.base;
  fuzz_seed_config.engine.max_path_seeds = 8;
  // Returns the symbolic pass's wall time and fills `seeds` with its
  // derived seeds (the same every round: the pass is deterministic).
  auto symbolic_pass = [&](std::vector<fuzz::FuzzInput>* seeds) {
    Ddt seed_ddt(fuzz_seed_config);
    Result<DdtResult> run = seed_ddt.TestDriver(rtl.image, rtl.pci);
    if (!run.ok()) {
      std::fprintf(stderr, "fuzz seed pass failed: %s\n", run.status().message().c_str());
      std::exit(1);
    }
    seeds->clear();
    const std::vector<PathSeed>& path_seeds = run.value().path_seeds;
    for (size_t i = 0; i < path_seeds.size(); ++i) {
      seeds->push_back(fuzz::FromPathSeed(path_seeds[i], fuzz_seed_config.engine.fault_plan,
                                          StrFormat("seed#%zu", i)));
    }
    return run.value().stats.wall_ms;
  };
  auto time_fuzz_execs = [&](const FaultCampaignConfig& cfg,
                             const std::vector<fuzz::FuzzInput>& seeds) {
    fuzz::FuzzExecutor executor(cfg, rtl.image, rtl.pci);
    auto start = std::chrono::steady_clock::now();
    for (const fuzz::FuzzInput& seed : seeds) {
      fuzz::FuzzExecResult r = executor.Execute(seed);
      if (!r.ok) {
        std::fprintf(stderr, "fuzz exec of %s failed: %s\n", seed.label.c_str(),
                     r.failure.c_str());
        std::exit(1);
      }
    }
    double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    return ms > 0 ? static_cast<double>(seeds.size()) / (ms / 1000.0) : 0;
  };
  std::vector<fuzz::FuzzInput> fuzz_seeds;
  std::vector<double> sym_pass_ms, interp_eps, cached_eps, fuzz_ratios;
  for (int i = 0; i < kPairs; ++i) {
    double pass_ms = symbolic_pass(&fuzz_seeds);
    if (fuzz_seeds.empty()) {
      std::fprintf(stderr, "fuzz seed pass derived no seeds\n");
      return 1;
    }
    interp_eps.push_back(time_fuzz_execs(fuzz_interp_cfg, fuzz_seeds));
    cached_eps.push_back(time_fuzz_execs(fuzz_campaign, fuzz_seeds));
    sym_pass_ms.push_back(pass_ms);
    fuzz_ratios.push_back(Ratio(cached_eps.back(), Ratio(1000.0, pass_ms)));
  }
  double fuzz_sym_pass_ms = SpreadOf(sym_pass_ms).median;
  double fuzz_sym_rate = Ratio(1000.0, fuzz_sym_pass_ms);
  double fuzz_interp_eps = SpreadOf(interp_eps).median;
  double fuzz_cached_eps = SpreadOf(cached_eps).median;
  Spread fuzz_speedup = SpreadOf(fuzz_ratios);
  std::printf("symbolic seed pass: %.1f ms median (%.2f passes/sec, %zu seeds derived)\n",
              fuzz_sym_pass_ms, fuzz_sym_rate, fuzz_seeds.size());
  std::printf("concrete replay: %.0f execs/sec uncached, %.0f execs/sec block-cached "
              "(medians), %s over the per-pass symbolic rate\n",
              fuzz_interp_eps, fuzz_cached_eps, Show(fuzz_speedup).c_str());

  // --- part 9: path-explosion control ----------------------------------------
  // Controls off vs on over both campaign shapes. solver_farm's six branch
  // diamonds make merging the dominant effect (64 leaves collapse to a
  // handful of states, and every state that never exists never queries the
  // solver). fault_farm is the no-harm control: its error-path spins die to
  // the loop checker's 100k-step heuristic at ~50k iterations, below the
  // 131072 back-edge kill threshold — so pathctl must pass through without
  // perturbing a campaign it cannot help. (The killer's own win shows up on
  // loops the frame-step heuristic is blind to; pathctl_test covers that.)
  std::printf("\n=== path-explosion control (pathctl off vs on) ===\n");
  PathCtlRun pc_farm_off = RunPathCtlCampaign(farm_image, farm_pci, false);
  PathCtlRun pc_farm_on = RunPathCtlCampaign(farm_image, farm_pci, true);
  PathCtlRun pc_solver_off = RunPathCtlCampaign(solver_farm, solver_pci, false);
  PathCtlRun pc_solver_on = RunPathCtlCampaign(solver_farm, solver_pci, true);
  bool pathctl_bugs_identical = pc_farm_on.bug_rows == pc_farm_off.bug_rows &&
                                pc_solver_on.bug_rows == pc_solver_off.bug_rows;
  uint64_t pc_states_off = pc_farm_off.states_created + pc_solver_off.states_created;
  uint64_t pc_states_on = pc_farm_on.states_created + pc_solver_on.states_created;
  uint64_t pc_sat_off = pc_farm_off.sat_calls + pc_solver_off.sat_calls;
  uint64_t pc_sat_on = pc_farm_on.sat_calls + pc_solver_on.sat_calls;
  double pc_states_reduction =
      pc_states_off > 0
          ? 1.0 - static_cast<double>(pc_states_on) / static_cast<double>(pc_states_off)
          : 0;
  std::printf("fault_farm:  %llu -> %llu states, %llu -> %llu insns, %llu loop kills\n",
              static_cast<unsigned long long>(pc_farm_off.states_created),
              static_cast<unsigned long long>(pc_farm_on.states_created),
              static_cast<unsigned long long>(pc_farm_off.instructions),
              static_cast<unsigned long long>(pc_farm_on.instructions),
              static_cast<unsigned long long>(pc_farm_on.loop_kills));
  std::printf("solver_farm: %llu -> %llu states, %llu -> %llu SAT calls, %llu merges\n",
              static_cast<unsigned long long>(pc_solver_off.states_created),
              static_cast<unsigned long long>(pc_solver_on.states_created),
              static_cast<unsigned long long>(pc_solver_off.sat_calls),
              static_cast<unsigned long long>(pc_solver_on.sat_calls),
              static_cast<unsigned long long>(pc_solver_on.states_merged));
  std::printf("aggregate: %.1f%% fewer states, %llu -> %llu SAT calls, bugs identical: %s\n",
              100.0 * pc_states_reduction, static_cast<unsigned long long>(pc_sat_off),
              static_cast<unsigned long long>(pc_sat_on),
              pathctl_bugs_identical ? "yes" : "NO");

  // --- JSON summary ---------------------------------------------------------
  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"pairs\": %d,\n", kPairs);
  std::fprintf(f, "  \"interp\": {\n");
  std::fprintf(f,
               "    \"tight_loop\": {\"uncached_ips\": %.0f, \"cached_ips\": %.0f, "
               "\"speedup\": %.3f},\n",
               SpreadOf(loop_off_ips).median, SpreadOf(loop_on_ips).median,
               loop_speedup.median);
  std::fprintf(f,
               "    \"rtl8029\": {\"uncached_ips\": %.0f, \"cached_ips\": %.0f, "
               "\"speedup\": %.3f},\n",
               SpreadOf(rtl_off_ips).median, SpreadOf(rtl_on_ips).median, rtl_speedup.median);
  std::fprintf(f, "    \"bugs_identical\": %s\n", interp_bugs_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"campaign\": {\n");
  std::fprintf(f, "    \"driver\": \"fault_farm\",\n");
  std::fprintf(f, "    \"plans\": %zu,\n", campaign_plans);
  std::fprintf(f, "    \"runs\": [");
  for (size_t i = 0; i < thread_counts.size(); ++i) {
    std::fprintf(f, "%s{\"threads\": %u, \"wall_ms\": %.1f}", i == 0 ? "" : ", ",
                 thread_counts[i], wall_medians[i]);
  }
  std::fprintf(f, "],\n");
  std::fprintf(f, "    \"hardware_threads\": %zu,\n", hardware_threads);
  std::fprintf(f, "    \"speedup_4_over_1\": %.3f,\n", campaign_speedup.median);
  std::fprintf(f, "    \"overlap_at_4_workers\": %.3f,\n", concurrency.median);
  std::fprintf(f, "    \"bugs_identical\": %s\n", campaign_bugs_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"supervisor\": {\n");
  std::fprintf(f, "    \"unjournaled_wall_ms\": %.1f,\n", SpreadOf(plain_walls).median);
  std::fprintf(f, "    \"journaled_wall_ms\": %.1f,\n", SpreadOf(journaled_walls).median);
  std::fprintf(f, "    \"journal_overhead\": %.3f,\n", journal_overhead.median);
  std::fprintf(f, "    \"bugs_identical\": %s\n", journal_bugs_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"observability\": {\n");
  std::fprintf(f,
               "    \"interp\": {\"killswitched_ips\": %.0f, \"traced_ips\": %.0f, "
               "\"overhead\": %.3f},\n",
               SpreadOf(interp_plain_ips).median, SpreadOf(interp_obs_ips).median,
               interp_obs_overhead.median);
  std::fprintf(f,
               "    \"campaign\": {\"killswitched_wall_ms\": %.1f, \"traced_wall_ms\": %.1f, "
               "\"overhead\": %.3f},\n",
               SpreadOf(camp_plain_walls).median, SpreadOf(camp_obs_walls).median,
               campaign_obs_overhead.median);
  std::fprintf(f, "    \"bugs_identical\": %s\n", obs_bugs_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"shared_cache\": {\n");
  std::fprintf(f, "    \"driver\": \"solver_farm\",\n");
  std::fprintf(f, "    \"cold_wall_ms\": %.1f,\n", SpreadOf(cold_walls).median);
  std::fprintf(f, "    \"warm_wall_ms\": %.1f,\n", SpreadOf(warm_walls).median);
  std::fprintf(f, "    \"warm_speedup\": %.3f,\n", warm_speedup.median);
  std::fprintf(f,
               "    \"cold\": {\"sat_calls\": %llu, \"hits\": %llu, \"fastpath_hits\": %llu, "
               "\"misses\": %llu, \"stores\": %llu, \"saved_entries\": %llu},\n",
               static_cast<unsigned long long>(cold.solver.sat_calls),
               static_cast<unsigned long long>(cold.solver.shared_cache_hits),
               static_cast<unsigned long long>(cold.solver.shared_cache_fastpath_hits),
               static_cast<unsigned long long>(cold.solver.shared_cache_misses),
               static_cast<unsigned long long>(cold.solver.shared_cache_stores),
               static_cast<unsigned long long>(cold.saved_entries));
  std::fprintf(f,
               "    \"warm\": {\"sat_calls\": %llu, \"hits\": %llu, \"fastpath_hits\": %llu, "
               "\"misses\": %llu, \"loaded_entries\": %llu},\n",
               static_cast<unsigned long long>(warm.solver.sat_calls),
               static_cast<unsigned long long>(warm.solver.shared_cache_hits),
               static_cast<unsigned long long>(warm.solver.shared_cache_fastpath_hits),
               static_cast<unsigned long long>(warm.solver.shared_cache_misses),
               static_cast<unsigned long long>(warm.loaded_entries));
  std::fprintf(f, "    \"bugs_identical\": %s,\n", cache_bugs_identical ? "true" : "false");
  std::fprintf(f, "    \"deterministic_report_identical\": %s\n",
               cache_reports_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fleet\": {\n");
  std::fprintf(f, "    \"driver\": \"fault_farm\",\n");
  std::fprintf(f, "    \"inprocess_wall_ms\": %.1f,\n", SpreadOf(inproc_walls).median);
  std::fprintf(f, "    \"one_worker_wall_ms\": %.1f,\n", SpreadOf(fleet_walls).median);
  std::fprintf(f, "    \"overhead\": %.3f,\n", fleet_overhead.median);
  std::fprintf(f, "    \"deterministic_report_identical\": %s\n",
               fleet_report_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"fuzz\": {\n");
  std::fprintf(f, "    \"driver\": \"rtl8029\",\n");
  std::fprintf(f, "    \"seeds\": %zu,\n", fuzz_seeds.size());
  std::fprintf(f, "    \"symbolic_pass_ms\": %.1f,\n", fuzz_sym_pass_ms);
  std::fprintf(f, "    \"symbolic_passes_per_sec\": %.3f,\n", fuzz_sym_rate);
  std::fprintf(f, "    \"interp_execs_per_sec\": %.1f,\n", fuzz_interp_eps);
  std::fprintf(f, "    \"cached_execs_per_sec\": %.1f,\n", fuzz_cached_eps);
  std::fprintf(f, "    \"speedup_vs_symbolic\": %.3f\n", fuzz_speedup.median);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"pathctl\": {\n");
  std::fprintf(f,
               "    \"fault_farm\": {\"off\": {\"states_created\": %llu, \"sat_calls\": %llu, "
               "\"instructions\": %llu}, \"on\": {\"states_created\": %llu, \"sat_calls\": "
               "%llu, \"instructions\": %llu, \"states_merged\": %llu, \"loop_kills\": %llu, "
               "\"edge_kills\": %llu}},\n",
               static_cast<unsigned long long>(pc_farm_off.states_created),
               static_cast<unsigned long long>(pc_farm_off.sat_calls),
               static_cast<unsigned long long>(pc_farm_off.instructions),
               static_cast<unsigned long long>(pc_farm_on.states_created),
               static_cast<unsigned long long>(pc_farm_on.sat_calls),
               static_cast<unsigned long long>(pc_farm_on.instructions),
               static_cast<unsigned long long>(pc_farm_on.states_merged),
               static_cast<unsigned long long>(pc_farm_on.loop_kills),
               static_cast<unsigned long long>(pc_farm_on.edge_kills));
  std::fprintf(f,
               "    \"solver_farm\": {\"off\": {\"states_created\": %llu, \"sat_calls\": %llu, "
               "\"instructions\": %llu}, \"on\": {\"states_created\": %llu, \"sat_calls\": "
               "%llu, \"instructions\": %llu, \"states_merged\": %llu, \"loop_kills\": %llu, "
               "\"edge_kills\": %llu}},\n",
               static_cast<unsigned long long>(pc_solver_off.states_created),
               static_cast<unsigned long long>(pc_solver_off.sat_calls),
               static_cast<unsigned long long>(pc_solver_off.instructions),
               static_cast<unsigned long long>(pc_solver_on.states_created),
               static_cast<unsigned long long>(pc_solver_on.sat_calls),
               static_cast<unsigned long long>(pc_solver_on.instructions),
               static_cast<unsigned long long>(pc_solver_on.states_merged),
               static_cast<unsigned long long>(pc_solver_on.loop_kills),
               static_cast<unsigned long long>(pc_solver_on.edge_kills));
  std::fprintf(f, "    \"states_reduction\": %.3f,\n", pc_states_reduction);
  std::fprintf(f, "    \"bugs_identical\": %s\n", pathctl_bugs_identical ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path);

  // Every timing gate below reads the median of its kPairs per-pair ratios.
  // On a multi-core host the parallel campaign must beat sequential outright.
  // On a single hardware thread no scheduler can produce wall-time speedup,
  // so the bar becomes: workers genuinely overlapped the pass work and the
  // scheduling overhead stayed bounded.
  bool campaign_ok = hardware_threads >= 2
                         ? campaign_speedup.median >= 1.5
                         : concurrency.median >= 1.5 && campaign_slowdown.median <= 1.6;
  // Checkpointing every pass must stay near-free (one flushed write per
  // pass); 1.3x leaves room for timer noise on loaded CI hosts.
  bool supervisor_ok = journal_bugs_identical && journal_overhead.median <= 1.3;
  // The observability acceptance bar: full tracing within 5% of the kill
  // switch on both shapes, and no effect on the bug sets.
  bool obs_ok = obs_bugs_identical && interp_obs_overhead.median <= 1.05 &&
                campaign_obs_overhead.median <= 1.05;
  // Warm start must genuinely load the disk cache, answer queries from it
  // (fewer SAT calls than cold), cut wall time by >= 1.2x, and change neither
  // the bug set nor a byte of the deterministic report.
  bool shared_cache_ok = warm_speedup.median >= 1.2 && cache_bugs_identical &&
                         cache_reports_identical && warm_loads_and_skips_sat;
  // Crash isolation may cost a fork and a pipe per pass, never real compute:
  // one worker process must stay within 10% of in-process and change nothing
  // in the deterministic report.
  bool fleet_ok = fleet_report_identical && fleet_overhead.median <= 1.10;
  // A concrete replay skips forking, constraint collection, and every solver
  // query; it must run at >= 10x the rate of the symbolic passes that seed it,
  // or the mutation loop would be better spent on more symbolic passes.
  bool fuzz_ok = fuzz_speedup.median >= 10.0 && fuzz_cached_eps > 0;
  // Suppressing redundant paths only counts if it changes no verdicts: the
  // controls must preserve each bench's exact bug set while cutting aggregate
  // state creation by >= 30% and SAT calls strictly, with merging demonstrably
  // engaged on solver_farm and fault_farm not made any worse.
  bool pathctl_ok = pathctl_bugs_identical && pc_states_on * 10 <= pc_states_off * 7 &&
                    pc_sat_on < pc_sat_off && pc_solver_on.states_merged > 0 &&
                    pc_farm_on.instructions <= pc_farm_off.instructions;
  bool pass = loop_speedup.median >= 2.0 && interp_bugs_identical && campaign_bugs_identical &&
              campaign_plans >= 8 && campaign_ok && supervisor_ok && obs_ok && shared_cache_ok &&
              fleet_ok && fuzz_ok && pathctl_ok;
  std::printf("BENCH_exec: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}
