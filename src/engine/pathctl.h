// Path-explosion control (ROADMAP "fork profiler, loop killers, and state
// merging"): the S²E selection-plugin ideas adapted to this engine.
//
// Four cooperating controls, all off by default (PathCtlConfig::enabled):
//
//  1. Fork profiler — every state carries the fork-site PC and fault-site
//     label that spawned it; states created, forks dropped, states evicted,
//     states merged, kill decisions, and SAT calls are attributed to that
//     (pc, fault-site) key in a ForkSiteTable folded into EngineStats. The
//     profiler itself is always on (it is pure accounting and feeds the
//     volatile report baseline); only the suppression controls are gated.
//
//  2. EdgeKiller-style loop/edge suppressor — declarative PC→PC edge kill
//     rules plus a back-edge heuristic (a back-edge taken ≥ threshold times
//     with no coverage novelty since) deterministically terminate redundant
//     polling-loop states.
//
//  3. Coverage-starved searcher (src/engine/searcher.h kCoverageStarved) —
//     deprioritizes states whose next block is already covered.
//
//  4. Diamond state merging — sibling states from one branch fork that
//     reconverge at the static join PC with identical side-effect odometers
//     merge back into one state with ite-merged registers and disjoined
//     constraints (veritesting's dynamic-merge special case).
//
// Everything here is deterministic: tables are ordered maps, rules are
// explicit, and no wall-clock or RNG feeds any decision — reports stay
// byte-identical at any thread/worker count and across kill-and-resume.
#ifndef SRC_ENGINE_PATHCTL_H_
#define SRC_ENGINE_PATHCTL_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace ddt {

// One declarative kill rule: any state traversing the (from → to) block edge
// is terminated. Matches decoded-block leader PCs.
struct EdgeKillRule {
  uint32_t from = 0;
  uint32_t to = 0;

  bool operator==(const EdgeKillRule& other) const {
    return from == other.from && to == other.to;
  }
};

// Parses "FROM:TO" with hex (0x-prefixed) or decimal PCs. Returns false on
// malformed input.
bool ParseEdgeKillRule(const std::string& text, EdgeKillRule* out);

struct PathCtlConfig {
  // Master switch for the suppression controls (merge + loop/edge kills).
  // The fork profiler runs regardless.
  bool enabled = false;
  // Diamond state merging at branch-join PCs.
  bool merge = true;
  // Back-edge starvation killer.
  bool loop_kill = true;
  // A back-edge taken this many times with no new block covered anywhere in
  // the run kills the state. High enough that the LoopChecker's
  // suspected-infinite-loop heuristic (100k steps in frame) fires first, so
  // enabling the killer never hides a loop bug.
  uint32_t backedge_kill_threshold = 131072;
  // Explicit edge kill rules (applied even when loop_kill is off).
  std::vector<EdgeKillRule> kill_edges;
};

// Counters attributed to one (fork-site PC, fault-site label) key.
struct ForkSiteStats {
  uint64_t states_created = 0;
  uint64_t dropped_forks = 0;
  uint64_t states_evicted = 0;
  uint64_t sat_calls = 0;
  uint64_t states_merged = 0;
  uint64_t kills = 0;

  bool operator==(const ForkSiteStats& other) const = default;

  void Accumulate(const ForkSiteStats& other);
};

// (fork-site PC, fault-site label). The label is the last injected fault on
// the spawning path as "class#occurrence" ("allocation#0"), or "-" when the
// path had no injected fault yet — it ties path explosion back to the
// campaign's fault schedule. Ordered map: deterministic iteration.
using ForkSiteKey = std::pair<uint32_t, std::string>;
using ForkSiteTable = std::map<ForkSiteKey, ForkSiteStats>;

void AccumulateForkSites(ForkSiteTable* into, const ForkSiteTable& from);

// Ranked hot-fork-sites text for the volatile report: top `n` keys by states
// created (ties by key order), one line each.
std::string FormatHotForkSites(const ForkSiteTable& table, size_t n);

// Journal/fleet transport codec. Entries are space-joined
// "pc:label:created:dropped:evicted:sat:merged:kills" tokens (labels are
// "class#occurrence" names — never contain ':' or spaces). Empty table ↔
// empty string. Decode ignores malformed tokens.
std::string EncodeForkSiteTable(const ForkSiteTable& table);
ForkSiteTable DecodeForkSiteTable(const std::string& text);

}  // namespace ddt

#endif  // SRC_ENGINE_PATHCTL_H_
