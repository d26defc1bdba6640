#include "src/obs/profiler.h"

#include <algorithm>
#include <cstdio>

namespace ddt::obs {

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kDecode:
      return "decode";
    case Phase::kInterpret:
      return "interpret";
    case Phase::kSolver:
      return "solver";
    case Phase::kChecker:
      return "checker";
    case Phase::kJournal:
      return "journal";
    case Phase::kMerge:
      return "merge";
    case Phase::kNumPhases:
      break;
  }
  return "?";
}

std::string PhaseBreakdown::Summary() const {
  if (total_ns == 0) {
    return "no timing";
  }
  std::vector<std::pair<uint64_t, size_t>> ranked;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (ns[i] > 0) {
      ranked.emplace_back(ns[i], i);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;  // stable tie-break by phase order
  });
  std::string out;
  for (const auto& [phase_ns, i] : ranked) {
    double pct = 100.0 * static_cast<double>(phase_ns) / static_cast<double>(total_ns);
    if (pct < 0.5) {
      continue;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%s %.0f%%", out.empty() ? "" : ", ",
                  PhaseName(static_cast<Phase>(i)), pct);
    out += buf;
  }
  return out.empty() ? "all <0.5%" : out;
}

void PassProfile::SetTotalAndDeriveInterpret(uint64_t total_ns) {
  total_ns_.store(total_ns, std::memory_order_relaxed);
  uint64_t claimed = 0;
  for (size_t i = 0; i < kNumPhases; ++i) {
    if (static_cast<Phase>(i) == Phase::kInterpret ||
        static_cast<Phase>(i) == Phase::kJournal || static_cast<Phase>(i) == Phase::kMerge) {
      continue;  // journal/merge happen outside the engine run
    }
    claimed += ns_[i].load(std::memory_order_relaxed);
  }
  uint64_t interpret = total_ns > claimed ? total_ns - claimed : 0;
  ns_[static_cast<size_t>(Phase::kInterpret)].store(interpret, std::memory_order_relaxed);
}

PhaseBreakdown PassProfile::Snapshot() const {
  PhaseBreakdown out;
  for (size_t i = 0; i < kNumPhases; ++i) {
    out.ns[i] = ns_[i].load(std::memory_order_relaxed);
  }
  out.total_ns = total_ns_.load(std::memory_order_relaxed);
  return out;
}

std::string CampaignProfile::FormatTopPasses(size_t n) const {
  std::vector<const PassEntry*> ranked;
  ranked.reserve(passes.size());
  for (const PassEntry& pass : passes) {
    if (!pass.quarantined) {
      ranked.push_back(&pass);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const PassEntry* a, const PassEntry* b) {
    if (a->wall_ms != b->wall_ms) {
      return a->wall_ms > b->wall_ms;
    }
    return a->index < b->index;
  });
  std::string out;
  char buf[128];
  std::snprintf(buf, sizeof(buf), "profiler: top %zu slowest pass%s\n",
                std::min(n, ranked.size()), std::min(n, ranked.size()) == 1 ? "" : "es");
  out += buf;
  for (size_t i = 0; i < ranked.size() && i < n; ++i) {
    const PassEntry& pass = *ranked[i];
    std::snprintf(buf, sizeof(buf), "  pass %zu: %s -> %.1f ms (", pass.index,
                  pass.label.c_str(), pass.wall_ms);
    out += buf;
    out += pass.phases.Summary();
    out += ")\n";
  }
  return out;
}

std::string CampaignProfile::FormatHotFaultSites(size_t n) const {
  std::vector<std::pair<uint64_t, std::string>> ranked;
  for (const auto& [name, occurrences] : fault_site_occurrences) {
    if (occurrences > 0) {
      ranked.emplace_back(occurrences, name);
    }
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second < b.second;
  });
  std::string out = "hot fault sites (occurrences across passes):\n";
  if (ranked.empty()) {
    return out + "  none observed\n";
  }
  for (size_t i = 0; i < ranked.size() && i < n; ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), "  %s: %llu\n", ranked[i].second.c_str(),
                  static_cast<unsigned long long>(ranked[i].first));
    out += buf;
  }
  return out;
}

}  // namespace ddt::obs
