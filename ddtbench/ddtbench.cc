// DDT end-to-end benchmark: runs one workload through the library's public
// API, checks its outputs, and prints one JSON result line (see NOTES.md).
//
//   ddtbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--out-dir DIR] [--ledger-dir DIR]
//
// The timed part repeats one unit of work (a corpus sweep, a campaign, a
// fixed fuzz loop) until --seconds have passed; timings are medians over the
// repetitions. With --trace 1 the repetitions alternate between untraced and
// traced; the traced ones run with the tracer, a MetricsRegistry and a
// PassProfile attached and yield the per-layer metrics, and the result line
// carries those instead of the end-to-end ones.
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ddtbench/harness.h"
#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/fleet/fleet.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/executor.h"
#include "src/fuzz/fuzz.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/obs/trace_events.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"
#include "src/vm/disasm.h"
#include "src/vm/layout.h"

namespace {

namespace fs = std::filesystem;
namespace obs = ddt::obs;
using Clock = std::chrono::steady_clock;
using ddtbench::Metrics;

// Per-thread tracer ring for traced repetitions. Rings grow on demand, so
// the size only caps memory; a repetition that still overflows it fails.
constexpr size_t kTraceEventsPerThread = size_t{1} << 22;
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// Fuzz repetition: batch 0 replays the solver-derived seeds, then this many
// mutation batches; batch width, seed and corpus caps are FuzzConfig's.
constexpr uint32_t kFuzzMutationBatches = 63;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "ddtbench: %s\n", message.c_str());
  std::exit(1);
}

// The configuration bench_table2 tests the corpus with.
ddt::DdtConfig DriverConfig() {
  ddt::DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  return config;
}

// Reference outputs shared by every run of one build: the first run to reach
// a key records it, later runs (other repetitions, traced or untraced, the
// other campaign scheduler) must reproduce it byte for byte.
class Ledger {
 public:
  explicit Ledger(std::string dir) : dir_(std::move(dir)) {}

  bool Matches(const std::string& key, const std::string& content) const {
    fs::path path = fs::path(dir_) / key;
    std::ifstream in(path, std::ios::binary);
    if (in) {
      std::stringstream recorded;
      recorded << in.rdbuf();
      return recorded.str() == content;
    }
    fs::path tmp = path;
    tmp += "." + std::to_string(::getpid()) + ".tmp";
    {
      std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
      out << content;
      if (!out) {
        Fatal("cannot write ledger entry " + tmp.string());
      }
    }
    fs::rename(tmp, path);
    return true;
  }

 private:
  std::string dir_;
};

// One timed repetition of a workload.
struct Rep {
  bool traced = false;
  double wall_s = 0;
  uint64_t ops = 0;
  uint64_t failed = 0;
  // Per-layer totals and pooled latency samples (read for traced
  // repetitions only).
  std::map<std::string, double> layer;
  std::map<std::string, std::vector<double>> samples;
};

// Work-count totals every workload can report from EngineStats/SolverStats.
void AddStats(const ddt::EngineStats& e, const ddt::SolverStats& s, Rep* rep) {
  std::map<std::string, double>& l = rep->layer;
  l["vm.blocks_decoded"] += static_cast<double>(e.blocks_decoded);
  l["vm.block_cache_hits"] += static_cast<double>(e.block_cache_hits);
  l["engine.instructions"] += static_cast<double>(e.instructions);
  l["engine.forks"] += static_cast<double>(e.forks);
  l["engine.states_created"] += static_cast<double>(e.states_created);
  l["engine.dropped_forks"] += static_cast<double>(e.dropped_forks);
  l["engine.max_live_states"] =
      std::max(l["engine.max_live_states"], static_cast<double>(e.max_live_states));
  l["engine.concretizations"] += static_cast<double>(e.concretizations);
  l["engine.peak_state_bytes"] =
      std::max(l["engine.peak_state_bytes"], static_cast<double>(e.peak_state_bytes));
  l["kernel.calls"] += static_cast<double>(e.kernel_calls);
  l["kernel.faults_injected"] += static_cast<double>(e.faults_injected);
  l["hw.faults_injected"] += static_cast<double>(e.hw_faults_injected);
  l["solver.queries"] += static_cast<double>(s.queries);
  l["solver.sat_calls"] += static_cast<double>(s.sat_calls);
  l["solver.quick_decides"] += static_cast<double>(s.quick_decides);
  l["solver.cache_hits"] += static_cast<double>(s.cache_hits);
  l["solver.model_reuse_hits"] += static_cast<double>(s.model_reuse_hits);
  l["solver.shared_cache_hits"] += static_cast<double>(s.shared_cache_hits);
  l["solver.shared_cache_misses"] += static_cast<double>(s.shared_cache_misses);
  l["solver.sat_clauses"] += static_cast<double>(s.total_sat_clauses);
  l["solver.conflicts"] += static_cast<double>(s.total_conflicts);
}

void AddMemStats(const ddt::MemStats& m, Rep* rep) {
  rep->layer["vm.mem_reads"] += static_cast<double>(m.reads);
  rep->layer["vm.mem_chain_walks"] += static_cast<double>(m.chain_walks);
}

void AddPhases(const obs::PhaseBreakdown& phases, Rep* rep) {
  rep->layer["vm.decode_ms"] += static_cast<double>(phases.phase_ns(obs::Phase::kDecode)) / 1e6;
  rep->layer["checkers.ms"] += static_cast<double>(phases.phase_ns(obs::Phase::kChecker)) / 1e6;
  rep->layer["core.merge_ms"] += static_cast<double>(phases.phase_ns(obs::Phase::kMerge)) / 1e6;
}

uint64_t Counter(const obs::MetricsSnapshot& snapshot, const std::string& name) {
  auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

// Percentile of a fixed-bucket histogram, interpolated inside the bucket
// that holds the rank.
double HistogramPercentile(const obs::MetricsSnapshot::HistogramValue& h, double pct) {
  if (h.count == 0) {
    return 0;
  }
  double rank = pct / 100.0 * static_cast<double>(h.count);
  double seen = 0;
  for (size_t i = 0; i < h.buckets.size(); ++i) {
    double in_bucket = static_cast<double>(h.buckets[i]);
    if (in_bucket > 0 && seen + in_bucket >= rank) {
      double lo = i == 0 ? 0 : h.bounds[i - 1];
      double hi = i < h.bounds.size() ? h.bounds[i] : lo;
      return lo + (hi - lo) * (rank - seen) / in_bucket;
    }
    seen += in_bucket;
  }
  return h.bounds.empty() ? 0 : h.bounds.back();
}

// Per-layer totals of one traced repetition that come from spans: the
// program's own (engine.run, solver.query, campaign.pass, journal.append)
// and the benchmark's bench.<layer>.<call> spans around public calls.
void AddSpanLayers(const std::vector<ddtbench::SpanNode>& forest, Rep* rep) {
  std::map<std::string, double>& l = rep->layer;
  for (const ddtbench::SpanNode& node : forest) {
    std::string_view name = node.event->name;
    double dur = node.event->dur_us;
    if (name == "solver.query") {
      l["solver.sat_ms"] += dur / 1000;
      l["solver.sat_spans"] += 1;
      rep->samples["solver.sat_us"].push_back(dur);
    } else if (name == "engine.run") {
      l["engine.run_ms"] += dur / 1000;
      l["engine.run_self_ms"] += node.self_us / 1000;
    } else if (name == "journal.append") {
      l["core.journal_ms"] += dur / 1000;
    } else if (name == "campaign.pass" || name == "bench.core.test_driver") {
      l["core.load_ms"] += (dur - ddtbench::ChildTimeUs(forest, node, "engine.run")) / 1000;
      l["core.pass_sum_ms"] += dur / 1000;
      rep->samples["core.pass_ms"].push_back(dur / 1000);
      if (node.event->arg == "baseline") {
        l["core.baseline_pass_ms"] = dur / 1000;
      }
    } else if (name == "bench.fuzz.execute") {
      double run = ddtbench::ChildTimeUs(forest, node, "engine.run");
      l["core.load_ms"] += (dur - run) / 1000;
      rep->samples["fuzz.exec_us"].push_back(dur);
      rep->samples["fuzz.exec_overhead_us"].push_back(dur - run);
      rep->samples["fuzz.exec_run_us"].push_back(run);
    } else if (name == "bench.fuzz.mutate") {
      rep->samples["fuzz.mutate_us"].push_back(dur);
    } else if (name == "bench.fuzz.offer") {
      rep->samples["fuzz.offer_us"].push_back(dur);
    } else if (name == "bench.fuzz.decode_bugs") {
      rep->samples["fuzz.bug_decode_us"].push_back(dur);
    }
  }
}

// Reassembles the six corpus drivers from source — the work the first
// Corpus() call does — and checks the images match the cached corpus.
void AssembleCorpus() {
  obs::ScopedSpan span("bench.drivers.assemble");
  static const std::map<std::string, std::string (*)()> kSources = {
      {"pro1000", ddt::Pro1000Source}, {"pro100", ddt::Pro100Source},
      {"ac97", ddt::Ac97Source},       {"audiopci", ddt::AudiopciSource},
      {"pcnet", ddt::PcnetSource},     {"rtl8029", ddt::Rtl8029Source},
  };
  for (const ddt::CorpusDriver& driver : ddt::Corpus()) {
    auto source = kSources.find(driver.name);
    if (source == kSources.end()) {
      Fatal("no source for corpus driver " + driver.name);
    }
    ddt::Result<ddt::AssembledDriver> assembled = ddt::Assemble(source->second());
    if (!assembled.ok() ||
        assembled.value().image.Serialize() != driver.image.Serialize()) {
      Fatal("reassembled " + driver.name + " differs from the corpus image");
    }
  }
}

// The CFG recovery every driver load performs, timed on its own.
void ProbeCfg(const ddt::DriverImage& image) {
  obs::ScopedSpan span("bench.vm.build_cfg");
  ddt::Cfg cfg = ddt::BuildCfg(image.code.data(), image.code.size(), ddt::kDriverImageBase);
  if (cfg.NumBlocks() == 0) {
    Fatal("empty CFG for " + image.name);
  }
}

// Pairs found bugs with the seeded ground truth the way bench_table2 does;
// returns how many expected bugs were found.
size_t MatchExpected(const ddt::CorpusDriver& driver, const std::vector<ddt::Bug>& bugs) {
  std::set<size_t> used;
  for (const ddt::ExpectedBug& want : driver.expected) {
    for (size_t i = 0; i < bugs.size(); ++i) {
      if (used.count(i) == 0 && bugs[i].type == want.type &&
          bugs[i].title.find(want.keyword) != std::string::npos) {
        used.insert(i);
        break;
      }
    }
  }
  return used.size();
}

std::string SeedKey(const char* family, uint64_t seed) {
  return ddt::StrFormat("%s-%016" PRIx64, family, seed);
}

// The seed repetition `index` runs with. One seed's plans or mutation
// streams move a campaign's or fuzz loop's cost by 10-15%, so a run samples
// several: repetitions 2k and 2k+1 share seed k (twice, so each output is
// checked), and seed 0 is the workload seed itself.
uint64_t RepetitionSeed(uint64_t seed, uint64_t index) {
  uint64_t k = index / 2;
  return k == 0 ? seed : ddt::SplitMix64(seed).Fork(k).Next();
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the timed part; runs kSetups times and the timed part
  // uses what the last one produced.
  virtual void Setup() = 0;
  // Repetition `index` of the timed part. Traced repetitions attach metrics
  // and profile sinks and fill rep.layer from what the results return.
  virtual Rep Run(uint64_t index, bool traced) = 0;
};

// --- table2_corpus ----------------------------------------------------------

// The engine runs at its product seed: across engine seeds 1-10 a sweep's
// wall time spreads by 25% (IQR over median) and its coverage by 14%,
// because pro1000 and pro100 explore very different state-capped regions.
// The workload seed therefore only orders the sweep (see NOTES.md).
class Table2Corpus : public Workload {
 public:
  Table2Corpus(uint64_t seed, const Ledger& ledger) : ledger_(ledger) {
    for (const ddt::CorpusDriver& driver : ddt::Corpus()) {
      order_.push_back(&driver);
    }
    ddt::SplitMix64 rng(seed);
    for (size_t i = order_.size() - 1; i > 0; --i) {
      std::swap(order_[i], order_[rng.NextBelow(i + 1)]);
    }
  }

  void Setup() override {
    AssembleCorpus();
    for (const ddt::CorpusDriver* driver : order_) {
      ProbeCfg(driver->image);
    }
  }

  Rep Run(uint64_t index, bool traced) override {
    Rep rep;
    rep.traced = traced;
    std::map<std::string, std::string> outputs;  // by driver, whatever the order
    Clock::time_point start = Clock::now();
    for (const ddt::CorpusDriver* driver : order_) {
      ddt::DdtConfig config = DriverConfig();
      obs::MetricsRegistry metrics;
      obs::PassProfile profile;
      if (traced) {
        config.engine.metrics = &metrics;
        config.engine.profile = &profile;
      }
      ddt::Ddt ddt_run(config);
      ddt::Result<ddt::DdtResult> result = [&] {
        obs::ScopedSpan span("bench.core.test_driver");
        return ddt_run.TestDriver(driver->image, driver->pci);
      }();
      ++rep.ops;
      std::string& out = outputs[driver->name];
      if (!result.ok()) {
        ++rep.failed;
        out = "load error " + result.error() + "\n";
        continue;
      }
      const ddt::DdtResult& r = result.value();
      size_t found = MatchExpected(*driver, r.bugs);
      if (found != driver->expected.size() || r.bugs.size() != found) {
        ++rep.failed;
      }
      rep.layer["checkers.bugs_found"] += static_cast<double>(found);
      rep.layer["engine.blocks_covered"] += static_cast<double>(r.covered_blocks);
      out = ddt::StrFormat("%zu blocks\n", r.covered_blocks);
      for (const ddt::Bug& bug : r.bugs) {
        out += "  " + bug.Row() + "\n";
      }
      if (traced) {
        AddStats(r.stats, r.solver_stats, &rep);
        AddMemStats(r.mem_stats, &rep);
        AddPhases(profile.Snapshot(), &rep);
      }
    }
    rep.wall_s = SecondsSince(start);
    std::string all;
    for (const auto& [name, out] : outputs) {
      all += name + ": " + out;
    }
    if (!ledger_.Matches("table2", all)) {
      std::fprintf(stderr, "ddtbench: table2 bug rows differ from the reference run\n");
      rep.failed = rep.ops;
    }
    return rep;
  }

 private:
  const Ledger& ledger_;
  std::vector<const ddt::CorpusDriver*> order_;
};

// --- campaign_threads / campaign_fleet ---------------------------------------

class Campaign : public Workload {
 public:
  Campaign(bool fleet, uint64_t seed, std::string tmp_root, const Ledger& ledger)
      : fleet_(fleet),
        seed_(seed),
        tmp_root_(std::move(tmp_root)),
        ledger_(ledger),
        driver_(ddt::CorpusDriverByName("rtl8029")) {}

  ~Campaign() override {
    std::error_code ignored;
    fs::remove_all(tmp_dir_, ignored);
  }

  void Setup() override {
    AssembleCorpus();
    ProbeCfg(driver_.image);
    std::error_code ignored;
    fs::remove_all(tmp_dir_, ignored);
    tmp_dir_ = ddt::StrFormat("%s/campaign-%d-%d", tmp_root_.c_str(), static_cast<int>(::getpid()),
                              setups_++);
    fs::create_directories(tmp_dir_);
  }

  Rep Run(uint64_t index, bool traced) override {
    Rep rep;
    rep.traced = traced;
    ddt::FaultCampaignConfig config;
    config.base = DriverConfig();
    config.seed = RepetitionSeed(seed_, index);
    config.max_passes = 1024;  // every generated plan runs
    config.hw_faults = true;
    config.shared_cache = true;
    config.threads = 2;
    std::string rep_dir = ddt::StrFormat("%s/rep-%" PRIu64, tmp_dir_.c_str(), index);
    fs::create_directories(rep_dir);
    config.journal_path = rep_dir + "/campaign.journal";
    if (traced) {
      config.collect_metrics = true;
      config.collect_profile = true;
    }

    Clock::time_point start = Clock::now();
    ddt::Result<ddt::FaultCampaignResult> result = [&] {
      if (!fleet_) {
        obs::ScopedSpan span("bench.core.run_campaign");
        return ddt::RunFaultCampaign(config, driver_.image, driver_.pci);
      }
      ddt::fleet::FleetCampaignConfig fleet;
      fleet.workers = 2;
      fleet.shard_dir = rep_dir;
      std::fflush(stdout);  // workers are forked from this process
      obs::ScopedSpan span("bench.fleet.run_campaign");
      return ddt::fleet::RunFleetCampaign(config, driver_.image, driver_.pci, fleet);
    }();
    rep.wall_s = SecondsSince(start);
    std::error_code ignored;
    fs::remove_all(rep_dir, ignored);

    if (!result.ok()) {
      std::fprintf(stderr, "ddtbench: campaign failed: %s\n", result.error().c_str());
      rep.ops = rep.failed = 1;
      return rep;
    }
    const ddt::FaultCampaignResult& r = result.value();
    rep.ops = r.passes.size();
    rep.failed = r.passes_quarantined;
    rep.layer["checkers.bugs_found"] = static_cast<double>(r.bugs.size());
    if (MatchExpected(driver_, r.bugs) != driver_.expected.size()) {
      std::fprintf(stderr, "ddtbench: campaign missed an expected rtl8029 bug\n");
      ++rep.failed;
    }
    // Both schedulers, traced or not, must produce the same deterministic
    // report for a seed.
    if (!ledger_.Matches(SeedKey("campaign", config.seed), r.FormatReport(driver_.name, false))) {
      std::fprintf(stderr, "ddtbench: campaign report differs from the reference run\n");
      rep.failed = rep.ops;
    }
    if (traced) {
      AddLayers(r, &rep);
    }
    return rep;
  }

 private:
  void AddLayers(const ddt::FaultCampaignResult& r, Rep* rep) const {
    AddStats(r.total_stats, r.total_solver_stats, rep);
    for (const obs::CampaignProfile::PassEntry& pass : r.profile.passes) {
      AddPhases(pass.phases, rep);
    }
    // Passes run in this process leave their engines behind: memory stats
    // and the campaign's coverage union come from them.
    std::set<uint32_t> covered;
    for (const std::shared_ptr<ddt::Ddt>& pass : r.keepalive) {
      AddMemStats(pass->engine().mem_stats(), rep);
      covered.insert(pass->engine().covered_block_leaders().begin(),
                     pass->engine().covered_block_leaders().end());
    }
    std::map<std::string, double>& l = rep->layer;
    l["engine.blocks_covered"] = static_cast<double>(covered.size());
    l["core.passes_quarantined"] = static_cast<double>(r.passes_quarantined);
    l["support.pool_busy_ms"] = static_cast<double>(Counter(r.metrics, "pool.busy_ms"));
    l["support.pool_tasks"] = static_cast<double>(Counter(r.metrics, "pool.tasks_completed"));
    if (fleet_) {
      // Worker processes record into tracers that die with them; the pass
      // timings come back only as EngineStats::wall_ms.
      double pass_ms = 0;
      for (size_t i = 0; i < r.passes.size(); ++i) {
        pass_ms += r.passes[i].stats.wall_ms;
        rep->samples["core.pass_ms"].push_back(r.passes[i].stats.wall_ms);
      }
      l["engine.run_ms"] = pass_ms;
      l["core.baseline_pass_ms"] = r.passes.empty() ? 0 : r.passes[0].stats.wall_ms;
      l["fleet.pass_sum_ms"] = pass_ms;
      l["fleet.workers_spawned"] = static_cast<double>(r.fleet_workers_spawned);
      l["fleet.heartbeats"] = static_cast<double>(Counter(r.metrics, "fleet.heartbeats"));
      auto gaps = r.metrics.histograms.find("fleet.frame_gap_ms");
      if (gaps != r.metrics.histograms.end()) {
        l["fleet.frame_gap_ms_p50"] = HistogramPercentile(gaps->second, 50);
      }
    }
  }

  bool fleet_;
  uint64_t seed_;
  std::string tmp_root_;
  const Ledger& ledger_;
  const ddt::CorpusDriver& driver_;
  std::string tmp_dir_;
  int setups_ = 0;
};

// --- fuzz_rtl8029 ------------------------------------------------------------

std::string BugKey(const ddt::Bug& bug) {
  return ddt::StrFormat("%d|%s", static_cast<int>(bug.type), bug.title.c_str());
}

class FuzzRtl8029 : public Workload {
 public:
  FuzzRtl8029(uint64_t seed, const Ledger& ledger)
      : seed_(seed), ledger_(ledger), driver_(ddt::CorpusDriverByName("rtl8029")) {
    campaign_.base = DriverConfig();
  }

  // Solver-derived seeds from one symbolic pass, as RunFuzzCampaign's phase 2.
  void Setup() override {
    AssembleCorpus();
    ProbeCfg(driver_.image);
    ddt::DdtConfig seed_config = campaign_.base;
    seed_config.engine.max_path_seeds = fuzz_.max_seeds;
    ddt::Ddt ddt_run(seed_config);
    ddt::Result<ddt::DdtResult> result = [&] {
      obs::ScopedSpan span("bench.fuzz.seed_pass");
      return ddt_run.TestDriver(driver_.image, driver_.pci);
    }();
    if (!result.ok()) {
      Fatal("fuzz seed pass: " + result.error());
    }
    seeds_.clear();
    const std::vector<ddt::PathSeed>& path_seeds = result.value().path_seeds;
    for (size_t i = 0; i < path_seeds.size(); ++i) {
      seeds_.push_back(ddt::fuzz::FromPathSeed(path_seeds[i], seed_config.engine.fault_plan,
                                               ddt::StrFormat("seed#%zu", i)));
    }
    if (seeds_.empty()) {
      Fatal("fuzz seed pass derived no seeds");
    }
  }

  // RunFuzzCampaign's batch loop, single-threaded: mutants of batch b come
  // from the corpus as it stood when b began, execute in order, and merge
  // in exec-index order.
  Rep Run(uint64_t index, bool traced) override {
    Rep rep;
    rep.traced = traced;
    uint64_t root_seed = RepetitionSeed(seed_, index);
    ddt::SplitMix64 root(root_seed);
    // Execute() clears the engine's metrics and profile sinks, so this loop
    // sees the layers below only through spans and FuzzExecResult.
    ddt::fuzz::FuzzExecutor executor(campaign_, driver_.image, driver_.pci);
    ddt::fuzz::FuzzCorpus corpus;
    std::set<std::string> bug_keys;
    uint64_t instructions = 0;
    uint64_t buggy = 0;
    uint64_t admitted = 0;

    Clock::time_point start = Clock::now();
    for (uint32_t b = 0; b <= kFuzzMutationBatches; ++b) {
      std::vector<ddt::fuzz::FuzzInput> inputs;
      if (b == 0) {
        inputs = seeds_;
      } else {
        std::vector<const ddt::fuzz::FuzzInput*> bases;
        for (const ddt::fuzz::CorpusEntry& entry : corpus.entries()) {
          bases.push_back(&entry.input);
        }
        if (bases.empty()) {
          for (const ddt::fuzz::FuzzInput& seed : seeds_) {
            bases.push_back(&seed);
          }
        }
        for (uint32_t e = 0; e < fuzz_.execs_per_batch; ++e) {
          obs::ScopedSpan span("bench.fuzz.mutate");
          ddt::SplitMix64 stream = root.Fork(b).Fork(e);
          const ddt::fuzz::FuzzInput& base = *bases[stream.NextBelow(bases.size())];
          inputs.push_back(ddt::fuzz::MutateInput(base, stream, nullptr));
        }
      }
      std::vector<ddt::fuzz::FuzzExecResult> results;
      results.reserve(inputs.size());
      for (const ddt::fuzz::FuzzInput& input : inputs) {
        obs::ScopedSpan span("bench.fuzz.execute");
        results.push_back(executor.Execute(input));
      }
      for (size_t i = 0; i < inputs.size(); ++i) {
        const ddt::fuzz::FuzzExecResult& r = results[i];
        ++rep.ops;
        if (!r.ok) {
          ++rep.failed;
          continue;
        }
        instructions += r.instructions;
        {
          obs::ScopedSpan span("bench.fuzz.offer");
          admitted += corpus.Offer(inputs[i], r.coverage, b, fuzz_.max_corpus) >= 0 ? 1 : 0;
        }
        if (!r.bugs_text.empty()) {
          ++buggy;
          obs::ScopedSpan span("bench.fuzz.decode_bugs");
          ddt::Result<std::vector<ddt::Bug>> bugs = ddt::DeserializeBugs(r.bugs_text);
          if (!bugs.ok()) {
            ++rep.failed;
            continue;
          }
          for (const ddt::Bug& bug : bugs.value()) {
            bug_keys.insert(BugKey(bug));
          }
        }
      }
    }
    rep.wall_s = SecondsSince(start);
    rep.layer["checkers.bugs_found"] = static_cast<double>(bug_keys.size());
    rep.layer["engine.blocks_covered"] = static_cast<double>(corpus.cumulative().Popcount());

    std::string outputs = ddt::StrFormat("corpus %zu entries, fingerprint %016" PRIx64 "\n",
                                         corpus.size(), corpus.cumulative().Fingerprint());
    for (const std::string& key : bug_keys) {
      outputs += key + "\n";
    }
    if (!ledger_.Matches(SeedKey("fuzz", root_seed), outputs)) {
      std::fprintf(stderr, "ddtbench: fuzz corpus or bug keys differ from the reference run\n");
      rep.failed = rep.ops;
    }
    if (traced) {
      double execs = static_cast<double>(rep.ops);
      rep.layer["engine.instructions"] = static_cast<double>(instructions);
      rep.layer["fuzz.insns_per_exec"] = static_cast<double>(instructions) / execs;
      rep.layer["fuzz.buggy_exec_ratio"] = static_cast<double>(buggy) / execs;
      rep.layer["fuzz.admit_ratio"] = static_cast<double>(admitted) / execs;
    }
    return rep;
  }

 private:
  uint64_t seed_;
  const Ledger& ledger_;
  const ddt::CorpusDriver& driver_;
  ddt::FaultCampaignConfig campaign_;
  const ddt::fuzz::FuzzConfig fuzz_;
  std::vector<ddt::fuzz::FuzzInput> seeds_;
};

// --- driver ------------------------------------------------------------------

struct Options {
  std::string workload;
  std::optional<uint64_t> seed;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
  std::string ledger_dir;
};

Options ParseArgs(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) {
      Fatal("missing value for " + arg);
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 0);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1") {
        Fatal("bad value for --trace: " + value);
      }
      opts.trace = value == "1";
    } else if (arg == "--out-dir") {
      opts.out_dir = value;
    } else if (arg == "--ledger-dir") {
      opts.ledger_dir = value;
    } else {
      Fatal("unknown argument " + arg);
    }
    if (end != nullptr && *end != '\0') {
      Fatal("bad value for " + arg + ": " + value);
    }
  }
  if (opts.workload.empty()) {
    Fatal("--workload is required");
  }
  if (opts.ledger_dir.empty()) {
    opts.ledger_dir = opts.out_dir + "/ledger";
  }
  return opts;
}

// Product defaults: EngineConfig::seed (which only orders the table2 sweep),
// FaultCampaignConfig::seed and the fuzz SplitMix64 root (FuzzConfig::seed).
uint64_t DefaultSeed(const std::string& workload) {
  if (workload == "table2_corpus") {
    return ddt::EngineConfig().seed;
  }
  if (workload == "fuzz_rtl8029") {
    return ddt::fuzz::FuzzConfig().seed;
  }
  return ddt::FaultCampaignConfig().seed;
}

std::unique_ptr<Workload> MakeWorkload(const Options& opts, uint64_t seed, const Ledger& ledger) {
  if (opts.workload == "table2_corpus") {
    return std::make_unique<Table2Corpus>(seed, ledger);
  }
  if (opts.workload == "campaign_threads" || opts.workload == "campaign_fleet") {
    bool fleet = opts.workload == "campaign_fleet";
    return std::make_unique<Campaign>(fleet, seed, opts.out_dir, ledger);
  }
  if (opts.workload == "fuzz_rtl8029") {
    return std::make_unique<FuzzRtl8029>(seed, ledger);
  }
  Fatal("unknown workload " + opts.workload);
}

// Median of one per-repetition quantity.
double MedianOf(const std::vector<Rep>& reps, const std::function<double(const Rep&)>& get) {
  std::vector<double> values;
  for (const Rep& rep : reps) {
    values.push_back(get(rep));
  }
  return ddtbench::Median(std::move(values));
}

// Units of the per-layer metrics; the order is the order they print in.
const std::vector<std::pair<std::string, std::string>>& LayerUnits() {
  static const std::vector<std::pair<std::string, std::string>> kUnits = {
      {"drivers.assemble_ms", "ms"},
      {"vm.cfg_ms", "ms"},
      {"vm.decode_ms", "ms"},
      {"vm.blocks_decoded", "count"},
      {"vm.block_cache_hits", "count"},
      {"vm.mem_reads", "count"},
      {"vm.mem_chain_walks", "count"},
      {"solver.sat_ms", "ms"},
      {"solver.sat_us_p50", "us"},
      {"solver.sat_us_p99", "us"},
      {"solver.sat_samples", "count"},
      {"solver.queries", "count"},
      {"solver.sat_calls", "count"},
      {"solver.sat_call_ratio", "ratio"},
      {"solver.quick_decides", "count"},
      {"solver.cache_hits", "count"},
      {"solver.model_reuse_hits", "count"},
      {"solver.shared_cache_hits", "count"},
      {"solver.shared_cache_misses", "count"},
      {"solver.clauses_per_sat_call", "count"},
      {"solver.conflicts", "count"},
      {"engine.run_ms", "ms"},
      {"engine.self_ms", "ms"},
      {"engine.self_us_per_insn", "us"},
      {"engine.instructions", "count"},
      {"engine.forks", "count"},
      {"engine.states_created", "count"},
      {"engine.dropped_forks", "count"},
      {"engine.max_live_states", "count"},
      {"engine.concretizations", "count"},
      {"engine.peak_state_bytes", "bytes"},
      {"kernel.calls", "count"},
      {"kernel.faults_injected", "count"},
      {"hw.faults_injected", "count"},
      {"checkers.ms", "ms"},
      {"checkers.bugs_found", "count"},
      {"engine.blocks_covered", "count"},
      {"core.load_ms", "ms"},
      {"core.pass_ms_p50", "ms"},
      {"core.baseline_pass_ms", "ms"},
      {"core.pass_overlap", "ratio"},
      {"core.journal_ms", "ms"},
      {"core.merge_ms", "ms"},
      {"core.passes_quarantined", "count"},
      {"support.pool_busy_ms", "ms"},
      {"support.pool_tasks", "count"},
      {"fleet.pass_overlap", "ratio"},
      {"fleet.workers_spawned", "count"},
      {"fleet.heartbeats", "count"},
      {"fleet.frame_gap_ms_p50", "ms"},
      {"fuzz.exec_us_p50", "us"},
      {"fuzz.exec_us_p99", "us"},
      {"fuzz.exec_samples", "count"},
      {"fuzz.exec_overhead_us", "us"},
      {"fuzz.exec_run_us", "us"},
      {"fuzz.mutate_us", "us"},
      {"fuzz.offer_us", "us"},
      {"fuzz.bug_decode_us", "us"},
      {"fuzz.insns_per_exec", "count"},
      {"fuzz.buggy_exec_ratio", "ratio"},
      {"fuzz.admit_ratio", "ratio"},
      {"obs.trace_overhead", "ratio"},
      {"obs.dropped_events", "count"},
  };
  return kUnits;
}

// Fills the ratios and self times of one traced repetition from its totals.
void DeriveLayers(Rep* rep) {
  std::map<std::string, double>& l = rep->layer;
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0; };
  // Without returned SolverStats (fuzz executions), count the SAT spans.
  if (l.count("solver.sat_calls") == 0) {
    l["solver.sat_calls"] = l["solver.sat_spans"];
  }
  l["solver.sat_call_ratio"] = ratio(l["solver.sat_calls"], l["solver.queries"]);
  l["solver.clauses_per_sat_call"] = ratio(l["solver.sat_clauses"], l["solver.sat_calls"]);
  // engine.run minus its solver.query children, minus the decode and
  // checker phases the engine attributes inside the run.
  l["engine.self_ms"] =
      std::max(0.0, l["engine.run_self_ms"] - l["vm.decode_ms"] - l["checkers.ms"]);
  l["engine.self_us_per_insn"] = ratio(l["engine.self_ms"] * 1000, l["engine.instructions"]);
  l["core.pass_overlap"] = ratio(l["core.pass_sum_ms"] / 1000, rep->wall_s);
  l["fleet.pass_overlap"] = ratio(l["fleet.pass_sum_ms"] / 1000, rep->wall_s);
}

struct TraceSummary {
  uint64_t dropped = 0;
  std::vector<obs::TraceEventRecord> events;
};

TraceSummary StopTracing() {
  obs::Tracer& tracer = obs::Tracer::Get();
  tracer.Disable();
  return TraceSummary{tracer.DroppedEvents(), tracer.Collect()};
}

Metrics LayerMetrics(const std::vector<Rep>& reps, const std::vector<ddtbench::SpanNode>& setup,
                     uint64_t dropped, std::string* tails) {
  std::vector<Rep> traced;
  std::vector<Rep> untraced;
  for (const Rep& rep : reps) {
    (rep.traced ? traced : untraced).push_back(rep);
  }
  std::map<std::string, std::vector<double>> samples;
  for (const Rep& rep : traced) {
    for (const auto& [name, values] : rep.samples) {
      samples[name].insert(samples[name].end(), values.begin(), values.end());
    }
  }

  std::map<std::string, double> value;
  for (const auto& [name, unit] : LayerUnits()) {
    value[name] = MedianOf(traced, [&name](const Rep& rep) {
      auto it = rep.layer.find(name);
      return it == rep.layer.end() ? 0.0 : it->second;
    });
  }
  std::vector<double> cfg_ms;  // per set-up
  for (const ddtbench::SpanNode& node : setup) {
    std::string_view name = node.event->name;
    if (name == "bench.setup") {
      cfg_ms.push_back(ddtbench::ChildTimeUs(setup, node, "bench.vm.build_cfg") / 1000);
    } else if (name == "bench.drivers.corpus") {
      value["drivers.assemble_ms"] = node.event->dur_us / 1000;
    }
  }
  value["vm.cfg_ms"] = ddtbench::Median(cfg_ms);

  auto tail = [&](const std::string& name, const std::string& p50, const std::string& p99,
                  const std::string& count) {
    const std::vector<double>& s = samples[name];
    ddtbench::Tail t = ddtbench::TailPercentile(s);
    value[p50] = ddtbench::Percentile(s, 50);
    value[p99] = t.pct >= 99 ? ddtbench::Percentile(s, 99) : t.value;
    value[count] = static_cast<double>(s.size());
    *tails += ddt::StrFormat(
        "%s\"%s\": {\"p50\": %s, \"tail_pct\": %s, \"tail\": %s, \"samples\": %zu}",
        tails->empty() ? "" : ", ", name.c_str(),
        ddtbench::JsonNumber(value[p50]).c_str(), ddtbench::JsonNumber(t.pct).c_str(),
        ddtbench::JsonNumber(t.value).c_str(), s.size());
  };
  tail("solver.sat_us", "solver.sat_us_p50", "solver.sat_us_p99", "solver.sat_samples");
  tail("fuzz.exec_us", "fuzz.exec_us_p50", "fuzz.exec_us_p99", "fuzz.exec_samples");
  value["core.pass_ms_p50"] = ddtbench::Percentile(samples["core.pass_ms"], 50);
  for (const char* name : {"fuzz.exec_overhead_us", "fuzz.exec_run_us", "fuzz.mutate_us",
                           "fuzz.offer_us", "fuzz.bug_decode_us"}) {
    value[name] = ddtbench::Percentile(samples[name], 50);
  }
  value["obs.trace_overhead"] = MedianOf(traced, [](const Rep& r) { return r.wall_s; }) /
                                MedianOf(untraced, [](const Rep& r) { return r.wall_s; });
  value["obs.dropped_events"] = static_cast<double>(dropped);

  Metrics metrics;
  for (const auto& [name, unit] : LayerUnits()) {
    metrics[name] = ddtbench::Metric{value[name], unit};
  }
  return metrics;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) {
    Fatal("cannot write " + path);
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts = ParseArgs(argc, argv);
  uint64_t seed = opts.seed.value_or(DefaultSeed(opts.workload));
  fs::create_directories(opts.out_dir);
  fs::create_directories(opts.ledger_dir);
  Ledger ledger(opts.ledger_dir);
  obs::Tracer& tracer = obs::Tracer::Get();

  // Set-up. The first Corpus() call assembles and caches the six drivers.
  if (opts.trace) {
    tracer.Enable(kTraceEventsPerThread);
  }
  {
    obs::ScopedSpan span("bench.drivers.corpus");
    ddt::Corpus();
  }
  std::unique_ptr<Workload> workload = MakeWorkload(opts, seed, ledger);
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    Clock::time_point start = Clock::now();
    {
      obs::ScopedSpan span("bench.setup");
      workload->Setup();
    }
    setup_s.push_back(SecondsSince(start));
  }
  TraceSummary setup_trace;
  if (opts.trace) {
    setup_trace = StopTracing();
  }
  std::vector<ddtbench::SpanNode> setup_forest = ddtbench::BuildSpanForest(setup_trace.events);

  // Timed part: repeat until the budget is spent; in trace mode alternate
  // untraced and traced repetitions so each kind runs at least once.
  std::string stem = ddt::StrFormat("%s/%s-%016" PRIx64, opts.out_dir.c_str(),
                                    opts.workload.c_str(), seed);
  std::vector<Rep> reps;
  uint64_t dropped = setup_trace.dropped;
  Clock::time_point timed_start = Clock::now();
  for (size_t i = 0;; ++i) {
    bool traced = opts.trace && i % 2 == 1;
    if (traced) {
      tracer.Enable(kTraceEventsPerThread);
    }
    Rep rep = workload->Run(i, traced);
    if (traced) {
      TraceSummary trace = StopTracing();
      if (i == 1) {
        std::string error;
        if (!tracer.ExportChromeJson(stem + ".trace.json", &error)) {
          Fatal(error);
        }
      }
      dropped += trace.dropped;
      AddSpanLayers(ddtbench::BuildSpanForest(trace.events), &rep);
      DeriveLayers(&rep);
    }
    std::fprintf(stderr, "ddtbench: %s rep %zu%s: %.3f s, %" PRIu64 " ops, %" PRIu64 " failed\n",
                 opts.workload.c_str(), i, traced ? " (traced)" : "", rep.wall_s, rep.ops,
                 rep.failed);
    reps.push_back(std::move(rep));
    bool need_both = opts.trace && reps.size() < 2;
    if (!need_both && SecondsSince(timed_start) >= opts.seconds) {
      break;
    }
  }

  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const Rep& rep : reps) {
    attempted += rep.ops;
    failed += rep.failed;
  }
  if (dropped != 0) {
    // An incomplete trace cannot support the per-layer split.
    std::fprintf(stderr, "ddtbench: tracer dropped %" PRIu64 " events\n", dropped);
    for (const Rep& rep : reps) {
      failed += rep.traced ? rep.ops - rep.failed : 0;
    }
  }

  Metrics metrics;
  if (opts.trace) {
    std::string tails;
    metrics = LayerMetrics(reps, setup_forest, dropped, &tails);
    WriteFile(stem + ".layers.json",
              "{\"metrics\": " + ddtbench::MetricsJson(metrics) + ", \"latency\": {" + tails +
                  "}}\n");
  } else {
    metrics["setup_s"] = {ddtbench::Median(setup_s), "s"};
    metrics["wall_s"] = {MedianOf(reps, [](const Rep& r) { return r.wall_s; }), "s"};
    metrics["execs_per_s"] = {
        MedianOf(reps, [](const Rep& r) { return static_cast<double>(r.ops) / r.wall_s; }), "1/s"};
    metrics["peak_rss_mb"] = {ddtbench::PeakRssMb(), "MB"};
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              ddtbench::MetricsJson(metrics).c_str());
  return 0;
}
