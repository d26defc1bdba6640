// Fuzz inputs: the concrete, replayable unit the concolic fuzz loop mutates.
//
// A FuzzInput is a serialized concrete model of one driver execution — the
// solved symbolic variables keyed by origin (registry values, OID query/set
// payloads, packet contents, entry arguments, hardware reads), the interrupt
// timing schedule, the annotation-alternative schedule, and a complete
// kernel+hardware fault schedule. It is exactly the information guided replay
// (§3.5) consumes, in one binary encoding (EncodeFuzzInput) that the corpus
// file and the fuzz shard lease frames both carry, so a corpus on disk is
// process- and machine-independent.
//
// Seeds come from the symbolic engine (EngineConfig::max_path_seeds derives a
// PathSeed per explored path, solver-backed); mutants come from
// src/fuzz/mutator.h; both replay through src/fuzz/executor.h down the pure
// concrete fast path.
#ifndef SRC_FUZZ_INPUT_H_
#define SRC_FUZZ_INPUT_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/engine/engine.h"

namespace ddt {
namespace fuzz {

// One concrete variable assignment, keyed by the stable symbolic origin
// (OriginKeyString). Mirrors SolvedInput minus the proximate-cause analysis
// bit, which is meaningless for a mutated value.
struct FuzzField {
  VarOrigin origin;
  uint8_t width = 32;
  uint64_t value = 0;
  std::string var_name;
};

struct FuzzInput {
  // Provenance: "seed#3" for solver-derived seeds, "fuzz b2#17" for mutants.
  std::string label;
  std::vector<FuzzField> fields;
  std::vector<uint32_t> interrupt_schedule;  // boundary-crossing indices
  std::vector<std::pair<uint32_t, std::string>> alternatives;  // (kcall seq, label)
  FaultPlan fault_plan;  // kernel-API and hardware-plane injection points
};

// Converts a solver-derived path model into a replayable fuzz input.
FuzzInput FromPathSeed(const PathSeed& seed, const FaultPlan& plan, const std::string& label);

// The guided-replay input map (OriginKeyString -> value) this input induces.
std::map<std::string, uint64_t> GuidedInputs(const FuzzInput& input);

// The same assignments as SolvedInputs — what gets patched into a bug found
// by a concrete fuzz execution so the saved evidence file replays (guided
// runs push no constraints, so the engine's own SolveInputs returns nothing).
std::vector<SolvedInput> ToSolvedInputs(const FuzzInput& input);

// The binary form: [str label][u32 n][n x field: u8 origin source, str
// origin label, u64 aux, u64 seq, u8 width, u64 value, str var name][u32 n]
// [n x u32 interrupt crossing][u32 n][n x (u32 kcall seq, str alternative)]
// [EncodeFaultPlan plan]. Decode fails on an out-of-range origin source or
// fault point, a truncation, or trailing bytes.
std::string EncodeFuzzInput(const FuzzInput& input);
bool DecodeFuzzInput(std::string_view bytes, FuzzInput* input);

}  // namespace fuzz
}  // namespace ddt

#endif  // SRC_FUZZ_INPUT_H_
