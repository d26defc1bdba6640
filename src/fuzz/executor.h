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
// Results are key-first. Every result lists the BugKey of each bug the exec
// found, in bug order; evidence (a bug_io report) is built only for the
// first bug of each key this executor has not handed out before, so a bug
// that thousands of mutants hit is serialized once per executor, not once
// per exec. The executor remembers the keys it handed out (only successful
// execs add to that set). A caller that needs a key's evidence and finds it
// withheld — another pool thread's later-index exec, or a salvaged exec,
// handed it out first — re-executes the input on an executor that has not
// reported the key: guided execs are deterministic, so the evidence is the
// same bytes the first exec would have carried.
//
// Executions are crash-isolated the way campaign passes are: a CHECK failure
// or thrown exception quarantines the one exec, never the loop. An image
// that does not load quarantines every exec with the load's error.
#ifndef SRC_FUZZ_EXECUTOR_H_
#define SRC_FUZZ_EXECUTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/ddt.h"
#include "src/fuzz/input.h"
#include "src/vm/coverage_map.h"

namespace ddt {
namespace fuzz {

struct FuzzExecResult {
  bool ok = false;
  std::string failure;      // quarantine reason when !ok
  CoverageBitmap coverage;  // blocks this execution covered
  // BugKey of every bug this execution found, in bug order (a key repeats
  // when the exec hit the same bug twice). Empty = clean run.
  std::vector<std::string> bug_keys;
  // Evidence, serialized (bug_io) so the result crosses process boundaries
  // in fleet mode: the first bug of each key in bug_keys that this executor
  // had not handed out before, inputs patched from the fuzz fields so the
  // evidence replays. Empty when every key was handed out earlier.
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
  // shared, read-only prepared driver; the set of handed-out keys is the
  // only state calls share.
  FuzzExecResult Execute(const FuzzInput& input) const;

 private:
  const FaultCampaignConfig& campaign_;
  const PciDescriptor& descriptor_;
  Result<std::shared_ptr<const PreparedDriver>> driver_;
  mutable std::mutex reported_mu_;
  mutable std::unordered_set<std::string> reported_;  // keys whose evidence went out
};

}  // namespace fuzz
}  // namespace ddt

#endif  // SRC_FUZZ_EXECUTOR_H_
