#include "src/fuzz/executor.h"

#include <exception>
#include <utility>

#include "src/core/bug_io.h"
#include "src/support/check.h"

namespace ddt {
namespace fuzz {

FuzzExecResult FuzzExecutor::Execute(const FuzzInput& input) const {
  FuzzExecResult result;

  DdtConfig config = campaign_.base;
  config.engine.guided = true;
  config.engine.guided_inputs = GuidedInputs(input);
  config.engine.forced_interrupt_schedule = input.interrupt_schedule;
  config.engine.forced_alternatives = input.alternatives;
  config.engine.enable_symbolic_interrupts = false;
  config.engine.fault_plan = input.fault_plan;
  config.engine.max_states = 4;
  config.engine.stop_after_first_bug = false;
  config.engine.max_path_seeds = 0;
  config.engine.concretization_hints.clear();
  config.engine.metrics = nullptr;
  config.engine.profile = nullptr;
  config.dma_checker = true;

  if (!driver_.ok()) {
    // The text a load from the image reports: a zero budget comes first.
    Status budgets = config.engine.ValidateBudgets();
    result.failure = budgets.ok() ? driver_.error() : budgets.message();
    return result;
  }
  try {
    ScopedCheckTrap trap;
    Ddt ddt(config);
    Result<DdtResult> run = ddt.TestDriver(driver_.value(), descriptor_);
    if (!run.ok()) {
      result.failure = run.status().message();
      return result;
    }
    // Guided runs push no path constraints, so SolveInputs gave these bugs no
    // inputs; patch in the fuzz fields so a saved evidence file replays.
    std::vector<Bug> bugs = std::move(run.value().bugs);
    for (Bug& bug : bugs) {
      if (bug.inputs.empty()) {
        bug.inputs = ToSolvedInputs(input);
      }
    }
    if (!bugs.empty()) {
      result.bugs_text = SerializeBugs(bugs);
    }
    result.coverage = ddt.engine().CoverageSnapshot();
    result.instructions = run.value().stats.instructions;
    result.ok = true;
  } catch (const CheckFailureError& e) {
    result.failure = std::string("check failure: ") + e.what();
  } catch (const std::exception& e) {
    result.failure = std::string("exception: ") + e.what();
  }
  return result;
}

}  // namespace fuzz
}  // namespace ddt
