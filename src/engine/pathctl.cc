#include "src/engine/pathctl.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

namespace ddt {

namespace {

// Parses one hex (0x-prefixed) or decimal PC. Returns false on junk.
bool ParsePc(const std::string& text, uint32_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (end == nullptr || *end != '\0' || v > UINT32_MAX) {
    return false;
  }
  *out = static_cast<uint32_t>(v);
  return true;
}

}  // namespace

bool ParseEdgeKillRule(const std::string& text, EdgeKillRule* out) {
  size_t colon = text.find(':');
  if (colon == std::string::npos) {
    return false;
  }
  EdgeKillRule rule;
  if (!ParsePc(text.substr(0, colon), &rule.from) ||
      !ParsePc(text.substr(colon + 1), &rule.to)) {
    return false;
  }
  *out = rule;
  return true;
}

void ForkSiteStats::Accumulate(const ForkSiteStats& other) {
  states_created += other.states_created;
  dropped_forks += other.dropped_forks;
  states_evicted += other.states_evicted;
  sat_calls += other.sat_calls;
  states_merged += other.states_merged;
  kills += other.kills;
}

void AccumulateForkSites(ForkSiteTable* into, const ForkSiteTable& from) {
  for (const auto& [key, stats] : from) {
    (*into)[key].Accumulate(stats);
  }
}

std::string FormatHotForkSites(const ForkSiteTable& table, size_t n) {
  std::vector<const ForkSiteTable::value_type*> ranked;
  ranked.reserve(table.size());
  for (const auto& entry : table) {
    ranked.push_back(&entry);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto* a, const auto* b) {
    if (a->second.states_created != b->second.states_created) {
      return a->second.states_created > b->second.states_created;
    }
    return a->first < b->first;
  });
  std::string out = "hot fork sites (states spawned per fork-site pc/fault-site):\n";
  if (ranked.empty()) {
    return out + "  none observed\n";
  }
  for (size_t i = 0; i < ranked.size() && i < n; ++i) {
    const auto& [key, s] = *ranked[i];
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "  pc=%08x fault=%s: %llu created, %llu dropped, %llu evicted, "
                  "%llu merged, %llu killed, %llu SAT calls\n",
                  key.first, key.second.c_str(),
                  static_cast<unsigned long long>(s.states_created),
                  static_cast<unsigned long long>(s.dropped_forks),
                  static_cast<unsigned long long>(s.states_evicted),
                  static_cast<unsigned long long>(s.states_merged),
                  static_cast<unsigned long long>(s.kills),
                  static_cast<unsigned long long>(s.sat_calls));
    out += buf;
  }
  return out;
}

}  // namespace ddt
