// Concrete fuzz executor: replays one FuzzInput down the pure fast path.
//
// The executor prepares the driver once, when it is constructed: imports
// resolved, code and data installed, CFG recovered (PrepareDriver). Each
// execution is a fresh Ddt instance in guided mode over that shared,
// read-only driver, starting from a copy-on-write share of the installed
// image — every symbolic value resolves immediately from the input's field
// map, no forking, no solver — with the block cache serving instruction
// fetches, so throughput is execs/sec, not paths/hour. All dynamic checkers
// stay live, including the Checkbochs-style DMA checker (always on here: a
// fuzz run exists to find real bugs, and its reports cannot perturb a
// baseline the way they would in a campaign pass), so a crashing mutant
// produces a full evidence file that replays.
//
// Executions are crash-isolated the way campaign passes are: a CHECK failure
// or thrown exception quarantines the one exec, never the loop. An image
// that does not load quarantines every exec with the load's error.
#ifndef SRC_FUZZ_EXECUTOR_H_
#define SRC_FUZZ_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "src/core/ddt.h"
#include "src/fuzz/input.h"
#include "src/vm/coverage_map.h"

namespace ddt {
namespace fuzz {

struct FuzzExecResult {
  bool ok = false;
  std::string failure;      // quarantine reason when !ok
  CoverageBitmap coverage;  // blocks this execution covered
  // Bugs found on this execution, serialized (bug_io) so the result crosses
  // process boundaries in fleet mode; inputs patched from the fuzz fields so
  // the evidence replays. Empty = clean run.
  std::string bugs_text;
  uint64_t instructions = 0;
};

class FuzzExecutor {
 public:
  // `image` is only read here; `campaign` and `descriptor` must outlive the
  // executor.
  FuzzExecutor(const FaultCampaignConfig& campaign, const DriverImage& image,
               const PciDescriptor& descriptor)
      : campaign_(campaign), descriptor_(descriptor), driver_(PrepareDriver(image)) {}

  // Thread-safe: each call builds an independent Ddt instance over the
  // shared, read-only prepared driver.
  FuzzExecResult Execute(const FuzzInput& input) const;

 private:
  const FaultCampaignConfig& campaign_;
  const PciDescriptor& descriptor_;
  Result<std::shared_ptr<const PreparedDriver>> driver_;
};

}  // namespace fuzz
}  // namespace ddt

#endif  // SRC_FUZZ_EXECUTOR_H_
