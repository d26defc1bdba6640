#include "src/fuzz/executor.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "src/core/bug_io.h"
#include "src/core/campaign_exec.h"
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
    std::vector<Bug>& bugs = run.value().bugs;
    std::vector<std::string> keys;
    for (const Bug& bug : bugs) {
      keys.push_back(BugKey(bug));
    }
    // The first bug of each key not handed out before. Two concurrent calls
    // may both pick a key; that costs the loop one extra decode, nothing else.
    std::vector<size_t> fresh;
    {
      std::lock_guard<std::mutex> lock(reported_mu_);
      for (size_t i = 0; i < bugs.size(); ++i) {
        if (reported_.count(keys[i]) == 0 &&
            std::none_of(fresh.begin(), fresh.end(),
                         [&](size_t j) { return keys[j] == keys[i]; })) {
          fresh.push_back(i);
        }
      }
    }
    std::string evidence_text;
    if (!fresh.empty()) {
      // Guided runs push no path constraints, so SolveInputs gave these bugs
      // no inputs; patch in the fuzz fields so a saved evidence file replays.
      std::vector<Bug> evidence;
      for (size_t i : fresh) {
        if (bugs[i].inputs.empty()) {
          bugs[i].inputs = ToSolvedInputs(input);
        }
        evidence.push_back(std::move(bugs[i]));
      }
      evidence_text = SerializeBugs(evidence);
    }
    result.coverage = ddt.engine().CoverageSnapshot();
    {
      std::lock_guard<std::mutex> lock(reported_mu_);
      for (size_t i : fresh) {
        reported_.insert(keys[i]);
      }
    }
    result.bug_keys = std::move(keys);
    result.bugs_text = std::move(evidence_text);
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
