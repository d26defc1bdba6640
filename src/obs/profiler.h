// Per-pass profiler: attributes wall time to coarse phases so a campaign
// report can say *where* a slow pass spent its time.
//
// Phases are deliberately coarse — the probes sit at natural boundaries that
// are already expensive (a SAT query, a block decode, a journal flush), never
// inside the per-instruction interpreter loop. Time not claimed by any timed
// phase is attributed to kInterpret by subtraction at the end of an engine
// run, which keeps the hottest path probe-free: the documented accuracy
// trade-off is that per-instruction checker hooks count as interpret time.
//
// A PassProfile's phase accumulators are atomics, so the engine, solver, and
// journal can add from whatever thread runs the pass; a null PassProfile
// pointer disables every probe in one branch (the same kill-switch convention
// as the metrics registry), and -DDDT_OBS_DISABLED removes the clock reads at
// compile time.
#ifndef SRC_OBS_PROFILER_H_
#define SRC_OBS_PROFILER_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ddt::obs {

enum class Phase : size_t {
  kDecode = 0,    // translation-cache block decode
  kInterpret,     // instruction execution + everything not claimed below
  kSolver,        // SAT queries (bit-blast + search + model extraction)
  kChecker,       // checker dispatch at kernel events and state end
  kJournal,       // campaign-journal serialize + append + flush
  kMerge,         // campaign result merging
  kNumPhases,
};

inline constexpr size_t kNumPhases = static_cast<size_t>(Phase::kNumPhases);

const char* PhaseName(Phase phase);

// Plain-data copy of a profile (merge/format without touching atomics).
struct PhaseBreakdown {
  std::array<uint64_t, kNumPhases> ns = {};
  uint64_t total_ns = 0;  // full pass wall time

  uint64_t phase_ns(Phase phase) const { return ns[static_cast<size_t>(phase)]; }
  // "solver 62%, interpret 31%, decode 4%" — phases above 0.5%, descending.
  std::string Summary() const;
};

class PassProfile {
 public:
  PassProfile() {
    for (auto& slot : ns_) {
      slot.store(0, std::memory_order_relaxed);
    }
  }
  PassProfile(const PassProfile&) = delete;
  PassProfile& operator=(const PassProfile&) = delete;

  void Add(Phase phase, uint64_t ns) {
    ns_[static_cast<size_t>(phase)].fetch_add(ns, std::memory_order_relaxed);
  }

  // Called once at the end of an engine run: records the pass's total wall
  // time and attributes the remainder (total minus every timed phase other
  // than kInterpret) to kInterpret.
  void SetTotalAndDeriveInterpret(uint64_t total_ns);

  PhaseBreakdown Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, kNumPhases> ns_;
  std::atomic<uint64_t> total_ns_{0};
};

// RAII phase timer; null-safe and compiled out under DDT_OBS_DISABLED.
class ScopedPhase {
 public:
  ScopedPhase(PassProfile* profile, Phase phase) : profile_(profile), phase_(phase) {
#ifndef DDT_OBS_DISABLED
    if (profile_ != nullptr) {
      start_ = std::chrono::steady_clock::now();
    }
#endif
  }
  ~ScopedPhase() {
#ifndef DDT_OBS_DISABLED
    if (profile_ != nullptr) {
      profile_->Add(phase_, static_cast<uint64_t>(
                                std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    std::chrono::steady_clock::now() - start_)
                                    .count()));
    }
#endif
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PassProfile* profile_;
  Phase phase_;
#ifndef DDT_OBS_DISABLED
  std::chrono::steady_clock::time_point start_;
#endif
};

// Campaign-level profile: one breakdown per pass plus cross-pass hot-site
// tallies. Formatting lives here so the campaign report and the examples
// print identical sections. Everything in this struct is wall-time derived
// and belongs in the *volatile* part of a report only.
struct CampaignProfile {
  struct PassEntry {
    size_t index = 0;
    std::string label;  // "baseline" or the plan label
    double wall_ms = 0;
    bool quarantined = false;
    PhaseBreakdown phases;
  };

  std::vector<PassEntry> passes;
  // Fault-site hotness: class name -> total occurrences observed across all
  // passes (how often that kernel-API boundary was crossed eligibly — the
  // SysFuSS-style "which boundary crossings are hot" view).
  std::map<std::string, uint64_t> fault_site_occurrences;

  bool empty() const { return passes.empty(); }

  // Top-N slowest passes with their phase breakdowns, one line each.
  std::string FormatTopPasses(size_t n) const;
  // Fault sites ranked by observed occurrences.
  std::string FormatHotFaultSites(size_t n) const;
};

}  // namespace ddt::obs

#endif  // SRC_OBS_PROFILER_H_
