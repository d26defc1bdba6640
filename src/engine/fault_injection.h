// Fault-injection plans (§3.4 error-path campaigns).
//
// Annotations make kernel-API failures *possible* — each allocator return
// forks an alternative where the call failed. A FaultPlan makes failures
// *systematic*: it names (class, occurrence) injection points that MUST fail
// on every path of an engine pass. A campaign (src/core/ddt.h) runs many
// passes with escalating plans generated from the baseline pass's observed
// fault-site profile, merging bugs across passes. Because injection decisions
// key off deterministic per-path occurrence counters (KernelState), recording
// the active plan in a Bug is sufficient to replay the exact failure
// schedule (§3.5).
#ifndef SRC_ENGINE_FAULT_INJECTION_H_
#define SRC_ENGINE_FAULT_INJECTION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/hw/hw_fault.h"
#include "src/kernel/api.h"
#include "src/support/record.h"

namespace ddt {

// One injection point: the occurrence-th fault-eligible call of this class
// on a path fails.
struct FaultPoint {
  FaultClass cls = FaultClass::kAllocation;
  uint32_t occurrence = 0;

  bool operator==(const FaultPoint& other) const {
    return cls == other.cls && occurrence == other.occurrence;
  }
};

// A deterministic, seed-derived set of injection points driving one engine
// pass. Empty plan = plain run (no injection). Kernel-API points and
// device-level (hardware fault plane) points travel in the same plan so a
// pass — and a bug report — carries one complete failure schedule.
struct FaultPlan {
  // Provenance label shown in reports ("alloc#1", "escalation r2 seed=...").
  std::string label;
  std::vector<FaultPoint> points;
  // Device-level injection points (surprise removal, sticky errors, interrupt
  // storms/droughts, dropped doorbells — see src/hw/hw_fault.h).
  std::vector<HwFaultPoint> hw_points;

  bool empty() const { return points.empty() && hw_points.empty(); }
  bool ShouldFail(FaultClass cls, uint32_t occurrence) const;
  bool ShouldTriggerHw(HwFaultKind kind, uint32_t index) const;
  std::string ToString() const;
};

// The one binary form of a plan, carried by fleet leases, journal pass
// records and fuzz inputs: [str label][u32 n][n x (u32 class, u32
// occurrence)][u32 m][m x (u32 kind, u32 index)]. Decode fails on a point
// whose class or kind is out of range.
void EncodeFaultPlan(const FaultPlan& plan, ByteWriter* w);
bool DecodeFaultPlan(ByteReader* r, FaultPlan* plan);

// Per-class count of fault-eligible call sites observed across all paths of
// a pass (the max occurrence counter any path reached). The campaign uses
// the baseline pass's profile to enumerate single-point plans and to bound
// escalation combos.
struct FaultSiteProfile {
  std::array<uint32_t, kNumFaultClasses> max_occurrences = {};

  bool Empty() const;
};

// Generates the campaign schedule: first every single-point plan (class-major
// order, occurrence capped at `max_occurrences_per_class`), then
// `escalation_rounds` rounds of seed-derived multi-point combinations. The
// result is deterministic in (profile, seed, caps) and truncated to
// `max_plans`.
std::vector<FaultPlan> GenerateCampaignPlans(const FaultSiteProfile& profile, uint64_t seed,
                                             uint32_t max_occurrences_per_class,
                                             uint32_t escalation_rounds, size_t max_plans);

// Generates the hardware-fault leg of the campaign schedule: for each fault
// kind, single-point plans at indices sampled evenly across the baseline
// profile's observed interaction range (so early, mid, and last-interaction
// faults are all covered), at most `max_points_per_kind` per kind. The
// result is deterministic in (profile, caps) and truncated to `max_plans`.
std::vector<FaultPlan> GenerateHwCampaignPlans(const HwSiteProfile& profile,
                                               uint32_t max_points_per_kind, size_t max_plans);

// Human-readable failure schedule ("MosAllocatePoolWithTag[allocation#0], ...").
std::string FormatFaultSchedule(const std::vector<InjectedFault>& faults);

}  // namespace ddt

#endif  // SRC_ENGINE_FAULT_INJECTION_H_
