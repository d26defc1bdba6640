#include "src/engine/fault_injection.h"

#include <algorithm>
#include <set>

#include "src/support/rng.h"
#include "src/support/strings.h"

namespace ddt {

bool FaultPlan::ShouldFail(FaultClass cls, uint32_t occurrence) const {
  for (const FaultPoint& p : points) {
    if (p.cls == cls && p.occurrence == occurrence) return true;
  }
  return false;
}

bool FaultPlan::ShouldTriggerHw(HwFaultKind kind, uint32_t index) const {
  return HwPointsTrigger(hw_points, kind, index);
}

std::string FaultPlan::ToString() const {
  if (empty()) return "(no injection)";
  std::string out;
  for (const FaultPoint& p : points) {
    if (!out.empty()) out += " + ";
    out += StrFormat("%s#%u", FaultClassName(p.cls), p.occurrence);
  }
  if (!hw_points.empty()) {
    if (!out.empty()) out += " + ";
    out += FormatHwPoints(hw_points);
  }
  if (!label.empty()) out += StrFormat(" [%s]", label.c_str());
  return out;
}

void EncodeFaultPlan(const FaultPlan& plan, ByteWriter* w) {
  w->Str(plan.label);
  w->U32(static_cast<uint32_t>(plan.points.size()));
  for (const FaultPoint& point : plan.points) {
    w->U32(static_cast<uint32_t>(point.cls));
    w->U32(point.occurrence);
  }
  w->U32(static_cast<uint32_t>(plan.hw_points.size()));
  for (const HwFaultPoint& point : plan.hw_points) {
    w->U32(static_cast<uint32_t>(point.kind));
    w->U32(point.index);
  }
}

bool DecodeFaultPlan(ByteReader* r, FaultPlan* plan) {
  plan->label = r->Str();
  plan->points.resize(r->Count(8));
  for (FaultPoint& point : plan->points) {
    uint32_t cls = r->U32();
    point.occurrence = r->U32();
    if (cls >= kNumFaultClasses) {
      return false;
    }
    point.cls = static_cast<FaultClass>(cls);
  }
  plan->hw_points.resize(r->Count(8));
  for (HwFaultPoint& point : plan->hw_points) {
    uint32_t kind = r->U32();
    point.index = r->U32();
    if (kind >= kNumHwFaultKinds) {
      return false;
    }
    point.kind = static_cast<HwFaultKind>(kind);
  }
  return r->ok();
}

bool FaultSiteProfile::Empty() const {
  for (uint32_t n : max_occurrences) {
    if (n != 0) return false;
  }
  return true;
}

std::vector<FaultPlan> GenerateCampaignPlans(const FaultSiteProfile& profile, uint64_t seed,
                                             uint32_t max_occurrences_per_class,
                                             uint32_t escalation_rounds, size_t max_plans) {
  std::vector<FaultPlan> plans;
  if (profile.Empty() || max_plans == 0) return plans;

  // Effective per-class occurrence counts, capped.
  std::array<uint32_t, kNumFaultClasses> counts = {};
  for (size_t c = 0; c < kNumFaultClasses; ++c) {
    counts[c] = std::min(profile.max_occurrences[c], max_occurrences_per_class);
  }

  // Round 1: every single-point plan, class-major / occurrence-minor. These
  // are the §3.4 staples — "what if the n-th allocation failed".
  for (size_t c = 0; c < kNumFaultClasses && plans.size() < max_plans; ++c) {
    FaultClass cls = static_cast<FaultClass>(c);
    for (uint32_t occ = 0; occ < counts[c] && plans.size() < max_plans; ++occ) {
      FaultPlan plan;
      plan.label = StrFormat("single %s#%u", FaultClassName(cls), occ);
      plan.points.push_back({cls, occ});
      plans.push_back(std::move(plan));
    }
  }

  // Escalation rounds: seed-derived multi-point combinations (round r picks
  // r+2 points). Drivers often survive one failure but trip over a second
  // one on the recovery path. Dedupe against everything emitted so far.
  std::set<std::vector<std::pair<uint8_t, uint32_t>>> seen;
  for (const FaultPlan& p : plans) {
    std::vector<std::pair<uint8_t, uint32_t>> key;
    for (const FaultPoint& pt : p.points) {
      key.emplace_back(static_cast<uint8_t>(pt.cls), pt.occurrence);
    }
    std::sort(key.begin(), key.end());
    seen.insert(key);
  }

  // Classes that actually have eligible sites.
  std::vector<size_t> live_classes;
  for (size_t c = 0; c < kNumFaultClasses; ++c) {
    if (counts[c] != 0) live_classes.push_back(c);
  }

  Rng rng(seed != 0 ? seed : 0xFA117ull);
  for (uint32_t round = 0; round < escalation_rounds && plans.size() < max_plans; ++round) {
    uint32_t points_per_plan = round + 2;
    // A handful of combos per round; determinism comes from the seeded Rng.
    for (uint32_t attempt = 0; attempt < 8 && plans.size() < max_plans; ++attempt) {
      std::vector<std::pair<uint8_t, uint32_t>> key;
      FaultPlan plan;
      for (uint32_t i = 0; i < points_per_plan; ++i) {
        size_t c = live_classes[rng.NextBelow(live_classes.size())];
        uint32_t occ = static_cast<uint32_t>(rng.NextBelow(counts[c]));
        key.emplace_back(static_cast<uint8_t>(c), occ);
      }
      std::sort(key.begin(), key.end());
      key.erase(std::unique(key.begin(), key.end()), key.end());
      if (key.size() < 2) continue;          // collapsed to a single — already covered
      if (!seen.insert(key).second) continue;  // duplicate combo
      for (const auto& [c, occ] : key) {
        plan.points.push_back({static_cast<FaultClass>(c), occ});
      }
      plan.label = StrFormat("escalation r%u", round + 1);
      plans.push_back(std::move(plan));
    }
  }

  return plans;
}

std::vector<FaultPlan> GenerateHwCampaignPlans(const HwSiteProfile& profile,
                                               uint32_t max_points_per_kind, size_t max_plans) {
  std::vector<FaultPlan> plans;
  if (profile.Empty() || max_points_per_kind == 0 || max_plans == 0) return plans;

  // Interaction-stream extent for each fault kind's index space.
  std::array<uint32_t, kNumHwFaultKinds> extents = {};
  extents[static_cast<size_t>(HwFaultKind::kSurpriseRemoval)] = profile.max_mmio_accesses;
  extents[static_cast<size_t>(HwFaultKind::kRemovalAtInterrupt)] = profile.max_interrupts;
  extents[static_cast<size_t>(HwFaultKind::kStickyError)] = profile.max_mmio_reads;
  extents[static_cast<size_t>(HwFaultKind::kIrqStorm)] = profile.max_crossings;
  extents[static_cast<size_t>(HwFaultKind::kIrqDrought)] = profile.max_crossings;
  extents[static_cast<size_t>(HwFaultKind::kDoorbellDrop)] = profile.max_mmio_writes;

  for (size_t k = 0; k < kNumHwFaultKinds && plans.size() < max_plans; ++k) {
    uint32_t extent = extents[k];
    if (extent == 0) continue;
    HwFaultKind kind = static_cast<HwFaultKind>(k);
    // Sample indices evenly across [0, extent): unlike kernel fault classes
    // (where the first few occurrences dominate), device faults are
    // interesting late too — removal during teardown hits different driver
    // code than removal during init — so cover the whole observed range
    // including the very last interaction.
    uint32_t budget = std::min(max_points_per_kind, extent);
    uint32_t prev = UINT32_MAX;
    for (uint32_t i = 0; i < budget && plans.size() < max_plans; ++i) {
      uint32_t index =
          budget == 1 ? 0
                      : static_cast<uint32_t>((static_cast<uint64_t>(i) * (extent - 1)) /
                                              (budget - 1));
      if (index == prev) continue;  // integer rounding collapsed two samples
      prev = index;
      FaultPlan plan;
      plan.label = StrFormat("hw %s#%u", HwFaultKindName(kind), index);
      plan.hw_points.push_back({kind, index});
      plans.push_back(std::move(plan));
    }
  }
  return plans;
}

std::string FormatFaultSchedule(const std::vector<InjectedFault>& faults) {
  std::string out;
  for (const InjectedFault& f : faults) {
    if (!out.empty()) out += ", ";
    out += StrFormat("%s[%s#%u]", f.api.c_str(), FaultClassName(f.cls), f.occurrence);
  }
  return out;
}

}  // namespace ddt
