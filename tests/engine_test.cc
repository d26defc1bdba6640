// End-to-end engine tests: small hand-written guest drivers exercising the
// full DDT pipeline — loading, selective symbolic execution, symbolic
// hardware, annotations, checkers, bug reporting, and guided replay.
#include "src/engine/engine.h"

#include <gtest/gtest.h>

#include "src/checkers/loop_checker.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/vm/assembler.h"
#include "src/vm/isa.h"
#include "src/vm/layout.h"

namespace ddt {
namespace {

PciDescriptor ToyPci() {
  PciDescriptor pci;
  pci.vendor_id = 0x10EC;
  pci.device_id = 0x8029;
  pci.revision = 1;
  pci.irq_line = 10;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

DriverImage AssembleToy(const std::string& source) {
  Result<AssembledDriver> result = Assemble(source);
  EXPECT_TRUE(result.ok()) << result.error();
  return result.value().image;
}

DdtResult RunToy(const std::string& source, DdtConfig config = DdtConfig()) {
  config.engine.max_instructions = 200000;
  config.engine.max_wall_ms = 20000;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(source), ToyPci());
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.take();
}

bool HasBug(const DdtResult& result, BugType type) {
  for (const Bug& bug : result.bugs) {
    if (bug.type == type) {
      return true;
    }
  }
  return false;
}

const Bug* FindBug(const DdtResult& result, BugType type) {
  for (const Bug& bug : result.bugs) {
    if (bug.type == type) {
      return &bug;
    }
  }
  return nullptr;
}

// --- 1. Clean driver: loads, registers, runs the workload, zero bugs -------

constexpr const char* kCleanDriver = R"(
  .driver "toy_clean"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r0, 0
    ret

  .func ep_halt
    movi r0, 0
    ret

  .data
  entry_table:
    .word ep_init
    .word ep_halt
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, CleanDriverRunsWithoutBugs) {
  DdtResult result = RunToy(kCleanDriver);
  EXPECT_TRUE(result.bugs.empty()) << result.bugs.front().Format();
  EXPECT_GT(result.covered_blocks, 0u);
  EXPECT_GT(result.stats.instructions, 0u);
  EXPECT_GE(result.stats.entry_invocations, 3u);  // DriverEntry, init, halt
}

// --- 2. Null pointer dereference in Initialize ------------------------------

constexpr const char* kNullDerefDriver = R"(
  .driver "toy_nullderef"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r1, 0
    ld32 r2, [r1+0]     ; *NULL
    movi r0, 0
    ret

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, NullDereferenceIsDetected) {
  DdtResult result = RunToy(kNullDerefDriver);
  ASSERT_TRUE(HasBug(result, BugType::kSegfault));
  const Bug* bug = FindBug(result, BugType::kSegfault);
  EXPECT_NE(bug->title.find("null pointer"), std::string::npos) << bug->title;
  EXPECT_FALSE(bug->trace.empty());
}

// --- 3. Symbolic hardware drives an out-of-bounds write ---------------------

constexpr const char* kHwIndexDriver = R"(
  .driver "toy_hwindex"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r0, 0
    kcall MosMapIoSpace     ; r0 = BAR0 base
    ld32 r1, [r0+4]         ; symbolic device register
    sltui r2, r1, 16
    bnz r2, index_ok
    ; missing bounds check: driver trusts the device-provided index anyway
  index_ok:
    la r3, small_table
    shli r4, r1, 2
    add r3, r3, r4
    st32 [r3+0], r1         ; OOB write when r1 >= 16
    movi r0, 0
    ret
)";

// small_table is deliberately the LAST object in .data, so any index >= 16
// lands past the segment end and trips the memory checker.
constexpr const char* kHwIndexTable = R"(
  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
  small_table:
    .space 64
)";

TEST(EngineTest, SymbolicHardwareFindsOutOfBoundsWrite) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtResult result = RunToy(source);
  const Bug* bug = FindBug(result, BugType::kMemoryCorruption);
  ASSERT_NE(bug, nullptr) << result.FormatReport("toy_hwindex");
  // The concrete inputs must include the hardware read that caused it.
  bool has_hw_input = false;
  for (const SolvedInput& input : bug->inputs) {
    if (input.origin.source == VarOrigin::Source::kHardwareRead) {
      has_hw_input = true;
      EXPECT_GE(input.value, 16u);  // must violate the bounds check
    }
  }
  EXPECT_TRUE(has_hw_input);
}

TEST(EngineTest, HwIndexBugReplays) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.max_instructions = 200000;
  Ddt ddt(config);
  Result<DdtResult> run = ddt.TestDriver(AssembleToy(source), ToyPci());
  ASSERT_TRUE(run.ok());
  const Bug* bug = FindBug(run.value(), BugType::kMemoryCorruption);
  ASSERT_NE(bug, nullptr);
  ReplayResult replay = ReplayBug(AssembleToy(source), ToyPci(), *bug, config);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
}

// --- 4. Unchecked allocation: found only with annotations -------------------

constexpr const char* kUncheckedAllocDriver = R"(
  .driver "toy_alloc"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r0, 64
    kcall MosAllocatePool
    ; BUG: no check for NULL return
    movi r1, 7
    st32 [r0+0], r1
    movi r0, 0
    ret

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, AllocationFailureFoundOnlyWithAnnotations) {
  DdtResult with = RunToy(kUncheckedAllocDriver);
  EXPECT_TRUE(HasBug(with, BugType::kSegfault)) << "annotations should expose the NULL path";

  DdtConfig no_annotations;
  no_annotations.use_standard_annotations = false;
  DdtResult without = RunToy(kUncheckedAllocDriver, no_annotations);
  EXPECT_FALSE(HasBug(without, BugType::kSegfault))
      << "without annotations the allocation never fails";
}

// --- 5. Resource leak on a failure path --------------------------------------

constexpr const char* kConfigLeakDriver = R"(
  .driver "toy_leak"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    subi sp, sp, 8
    mov r0, sp
    kcall MosOpenConfiguration
    ld32 r4, [sp+0]          ; config handle
    movi r0, 0
    kcall MosMapIoSpace
    ld32 r1, [r0+0]          ; symbolic device id register
    andi r2, r1, 1
    bnz r2, init_fail
    mov r0, r4
    kcall MosCloseConfiguration
    addi sp, sp, 8
    movi r0, 0
    ret
  init_fail:
    ; BUG: fails without closing the configuration handle
    addi sp, sp, 8
    movi r0, 0xC0000001
    ret

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, ConfigHandleLeakOnFailedInit) {
  DdtResult result = RunToy(kConfigLeakDriver);
  const Bug* bug = FindBug(result, BugType::kResourceLeak);
  ASSERT_NE(bug, nullptr) << result.FormatReport("toy_leak");
  EXPECT_NE(bug->title.find("MosCloseConfiguration"), std::string::npos) << bug->title;
}

// --- 6. Interrupt-before-timer-init race (the RTL8029 bug shape) -------------

constexpr const char* kTimerRaceDriver = R"(
  .driver "toy_timerrace"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    la r0, isr
    movi r1, 0
    kcall MosRegisterInterrupt
    movi r0, 50
    kcall MosStallExecution     ; boundary crossing: interrupt window
    la r0, timer_block
    la r1, timer_fn
    movi r2, 0
    kcall MosInitializeTimer
    movi r0, 0
    ret

  .func isr
    la r0, timer_block
    movi r1, 10
    kcall MosSetTimer           ; BSOD if the timer is not yet initialized
    ret

  .func timer_fn
    ret

  .data
  timer_block:
    .space 16
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, InterruptBeforeTimerInitIsARace) {
  DdtResult result = RunToy(kTimerRaceDriver);
  const Bug* bug = FindBug(result, BugType::kRaceCondition);
  ASSERT_NE(bug, nullptr) << result.FormatReport("toy_timerrace");
  EXPECT_FALSE(bug->interrupt_schedule.empty());
  EXPECT_NE(bug->title.find("timer"), std::string::npos) << bug->title;
}

TEST(EngineTest, TimerRaceReplaysWithInterruptSchedule) {
  DdtConfig config;
  config.engine.max_instructions = 200000;
  Ddt ddt(config);
  Result<DdtResult> run = ddt.TestDriver(AssembleToy(kTimerRaceDriver), ToyPci());
  ASSERT_TRUE(run.ok());
  const Bug* bug = FindBug(run.value(), BugType::kRaceCondition);
  ASSERT_NE(bug, nullptr);
  ReplayResult replay = ReplayBug(AssembleToy(kTimerRaceDriver), ToyPci(), *bug, config);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
}

TEST(EngineTest, TimerRaceNotFoundWithoutSymbolicInterrupts) {
  DdtConfig config;
  config.engine.enable_symbolic_interrupts = false;
  DdtResult result = RunToy(kTimerRaceDriver, config);
  EXPECT_FALSE(HasBug(result, BugType::kRaceCondition));
}

// --- 7. Infinite polling loop -------------------------------------------------

constexpr const char* kSpinDriver = R"(
  .driver "toy_spin"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r3, 0
  spin:
    addi r3, r3, 1
    br spin

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, InfiniteLoopHeuristicFires) {
  DdtConfig config;
  config.use_default_checkers = false;  // use a low-threshold loop checker
  config.engine.max_instructions = 100000;
  Ddt ddt(config);
  ddt.AddChecker(std::make_unique<LoopChecker>(3000));
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(kSpinDriver), ToyPci());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(HasBug(result.value(), BugType::kInfiniteLoop));
}

// --- 8. Searcher / strategy plumbing -----------------------------------------

class EngineStrategyTest : public ::testing::TestWithParam<SearchStrategy> {};

TEST_P(EngineStrategyTest, AllStrategiesFindTheHwIndexBug) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.strategy = GetParam();
  DdtResult result = RunToy(source, config);
  EXPECT_TRUE(HasBug(result, BugType::kMemoryCorruption))
      << "strategy " << SearchStrategyName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, EngineStrategyTest,
                         ::testing::Values(SearchStrategy::kCoverageGreedy, SearchStrategy::kDfs,
                                           SearchStrategy::kBfs, SearchStrategy::kRandom),
                         [](const ::testing::TestParamInfo<SearchStrategy>& info) {
                           std::string name = SearchStrategyName(info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

// --- 9. Coverage accounting ----------------------------------------------------

TEST(EngineTest, CoverageSamplesAreMonotonic) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtResult result = RunToy(source);
  ASSERT_FALSE(result.coverage_samples.empty());
  for (size_t i = 1; i < result.coverage_samples.size(); ++i) {
    EXPECT_GE(result.coverage_samples[i].covered_blocks,
              result.coverage_samples[i - 1].covered_blocks);
    EXPECT_GE(result.coverage_samples[i].instructions,
              result.coverage_samples[i - 1].instructions);
  }
  EXPECT_LE(result.covered_blocks, result.total_blocks);
}

// --- 10. Deterministic runs -----------------------------------------------------

TEST(EngineTest, RunsAreDeterministic) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtResult a = RunToy(source);
  DdtResult b = RunToy(source);
  ASSERT_EQ(a.bugs.size(), b.bugs.size());
  for (size_t i = 0; i < a.bugs.size(); ++i) {
    EXPECT_EQ(a.bugs[i].title, b.bugs[i].title);
    EXPECT_EQ(a.bugs[i].type, b.bugs[i].type);
  }
  EXPECT_EQ(a.stats.instructions, b.stats.instructions);
  EXPECT_EQ(a.covered_blocks, b.covered_blocks);
}


// --- 11. Concretization backtracking (section 3.2) ------------------------------

// The driver passes a symbolic registry value to MosAllocatePool (which
// concretizes it to some arbitrary feasible length), and only LATER branches
// on whether that value was exactly 7. Without backtracking, the path is
// pinned to whatever the concretization picked, so the len==7 branch is
// almost surely unreachable; with backtracking, DDT revives the kernel-call
// snapshot constrained to len == 7 and re-executes the call.
constexpr const char* kBacktrackDriver = R"(
  .driver "toy_backtrack"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    push {r4, r5, lr}
    subi sp, sp, 16
    mov r0, sp
    kcall MosOpenConfiguration
    ld32 r4, [sp+0]
    mov r0, r4
    la r1, name_knob
    addi r2, sp, 4
    kcall MosReadConfiguration
    ld32 r5, [sp+8]             ; symbolic knob (annotation)
    mov r0, r5
    kcall MosAllocatePool       ; concretizes the knob to one value
    ; ... much later, a path only reachable for knob == 7:
    seqi r1, r5, 7
    bz r1, bt_done
    ; the special path has a bug DDT can only find by backtracking
    movi r1, 0
    ld32 r2, [r1+0]             ; NULL dereference
  bt_done:
    mov r0, r4
    kcall MosCloseConfiguration
    addi sp, sp, 16
    movi r0, 0
    pop {r4, r5, lr}
    ret

  .data
  name_knob:
    .asciiz "LinkSpeed"
    .align 4
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, ConcretizationBacktrackingReenablesBlockedPaths) {
  // With backtracking: the len==7 world is revived and the bug found.
  DdtResult with = RunToy(kBacktrackDriver);
  EXPECT_TRUE(HasBug(with, BugType::kSegfault))
      << "backtracking should re-enable the knob==7 path";

  // Without backtracking: the concretization pins the knob; unless the
  // solver happened to pick exactly 7 (it does not, with this seed), the
  // special path stays unreachable.
  DdtConfig no_bt;
  no_bt.engine.enable_concretization_backtracking = false;
  DdtResult without = RunToy(kBacktrackDriver, no_bt);
  EXPECT_FALSE(HasBug(without, BugType::kSegfault));
}

TEST(EngineTest, BacktrackBudgetIsHonored) {
  DdtConfig config;
  config.engine.max_concretization_backtracks = 0;
  DdtResult result = RunToy(kBacktrackDriver, config);
  EXPECT_FALSE(HasBug(result, BugType::kSegfault));
}


// --- 12. Budget / cap behavior ------------------------------------------------

TEST(EngineTest, StopAfterFirstBugStopsTheRun) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.stop_after_first_bug = true;
  DdtResult result = RunToy(source, config);
  EXPECT_EQ(result.bugs.size(), 1u);
}

TEST(EngineTest, MaxStatesCapSuppressesForks) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.max_states = 2;
  DdtResult result = RunToy(source, config);
  EXPECT_LE(result.stats.max_live_states, 2u);
  // Exploration still makes progress (one side of each branch).
  EXPECT_GT(result.covered_blocks, 0u);
}

TEST(EngineTest, InstructionBudgetIsHonored) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.max_instructions = 50;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(source), ToyPci());
  ASSERT_TRUE(result.ok());
  // The engine stops at the first check past the budget (quantum
  // granularity: at most one 64-instruction quantum over).
  EXPECT_LE(result.value().stats.instructions, 50u + 64u);
}

// --- 13. Config validation ----------------------------------------------------

// The clean toy driver linked against a kernel API MiniOS does not export.
DriverImage UnresolvedImportImage() {
  DriverImage image = AssembleToy(kCleanDriver);
  image.imports.push_back("MosNoSuchRoutine");
  return image;
}

TEST(EngineTest, ZeroBudgetsAreRejectedAtLoad) {
  Result<std::shared_ptr<const PreparedDriver>> prepared =
      PrepareDriver(AssembleToy(kCleanDriver));
  ASSERT_TRUE(prepared.ok()) << prepared.error();
  auto expect_rejected = [&prepared](DdtConfig config, const char* what) {
    auto expect_names_budget = [what](const Status& status, const char* load_path) {
      ASSERT_FALSE(status.ok()) << what << " = 0 should be rejected by " << load_path;
      EXPECT_NE(status.message().find(what), std::string::npos)
          << load_path << ": " << status.message();
    };
    Ddt from_image(config);
    expect_names_budget(from_image.TestDriver(AssembleToy(kCleanDriver), ToyPci()).status(),
                        "Ddt image overload");
    Ddt from_prepared(config);
    expect_names_budget(from_prepared.TestDriver(prepared.value(), ToyPci()).status(),
                        "Ddt prepared overload");
    Engine engine(config.engine);
    expect_names_budget(engine.LoadDriver(prepared.value(), ToyPci()),
                        "Engine prepared overload");
    // A zero budget is reported ahead of an image that would not load.
    Ddt bad_import(config);
    expect_names_budget(bad_import.TestDriver(UnresolvedImportImage(), ToyPci()).status(),
                        "Ddt image overload, bad import");
    Engine bad_import_engine(config.engine);
    expect_names_budget(bad_import_engine.LoadDriver(UnresolvedImportImage(), ToyPci()),
                        "Engine image overload, bad import");
  };
  DdtConfig zero_states;
  zero_states.engine.max_states = 0;
  expect_rejected(zero_states, "max_states");
  DdtConfig zero_instructions;
  zero_instructions.engine.max_instructions = 0;
  expect_rejected(zero_instructions, "max_instructions");
  DdtConfig zero_wall;
  zero_wall.engine.max_wall_ms = 0;
  expect_rejected(zero_wall, "max_wall_ms");
}

// An image that does not load fails with the same text whether it is
// prepared on its own or loaded through either image overload.
TEST(EngineTest, LoadErrorsAreTheSameOnEveryLoadPath) {
  DriverImage oversized = AssembleToy(kCleanDriver);
  oversized.code.resize(kDriverImageLimit - kDriverImageBase + kInstructionSize, 0);
  const std::pair<DriverImage, std::string> cases[] = {
      {UnresolvedImportImage(), "unresolved driver import: MosNoSuchRoutine"},
      {oversized, "driver image too large for the image window"},
  };
  for (const auto& [image, message] : cases) {
    Result<std::shared_ptr<const PreparedDriver>> prepared = PrepareDriver(image);
    ASSERT_FALSE(prepared.ok()) << message;
    EXPECT_EQ(prepared.error(), message);
    Engine engine;
    EXPECT_EQ(engine.LoadDriver(image, ToyPci()).message(), message);
    Ddt ddt;
    Result<DdtResult> run = ddt.TestDriver(image, ToyPci());
    ASSERT_FALSE(run.ok()) << message;
    EXPECT_EQ(run.error(), message);
  }
}

// --- 14. Resource governor ----------------------------------------------------

// Pathological driver: a runaway polling loop whose every iteration reads a
// fresh symbolic device register, builds a multiplication chain out of it
// (solver-hostile), and branches on the product — unbounded forking plus
// expensive queries. The governor must keep the run inside its wall budget.
constexpr const char* kPathologicalDriver = R"(
  .driver "toy_hostile"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret

  .func ep_init
    movi r0, 0
    kcall MosMapIoSpace
    mov r4, r0
  poll:
    ld32 r1, [r4+0]        ; fresh symbolic values every read
    ld32 r6, [r4+4]
    mul r2, r1, r6
    mul r2, r2, r1
    mul r2, r2, r6
    mul r2, r2, r1
    mul r2, r2, r6
    mul r2, r2, r1
    mul r2, r2, r6
    mul r2, r2, r1
    mul r2, r2, r6
    mul r2, r2, r1
    mul r2, r2, r6
    mul r2, r2, r1
    seqi r3, r2, 12345     ; solver-hostile branch condition
    bz r3, poll
    movi r5, 1
    br poll                ; never terminates on its own

  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";

TEST(EngineTest, GovernorKeepsPathologicalDriverInsideWallBudget) {
  DdtConfig config;
  config.use_default_checkers = false;  // isolate the governor from checkers
  config.engine.max_wall_ms = 1500;
  config.engine.max_instructions = 100'000'000;  // wall is the binding budget
  // Well under the several ms it takes just to bit-blast the multiply chain,
  // so every hostile query overruns it; the chain's search itself is easy.
  config.engine.solver.max_query_ms = 1;
  config.engine.solver.conflict_budget = 0;  // only the deadline limits queries
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(kPathologicalDriver), ToyPci());
  ASSERT_TRUE(result.ok());
  const DdtResult& r = result.value();
  // Graceful degradation, not a hang: the run ends within 2x the wall budget
  // even though single queries could otherwise run unboundedly.
  EXPECT_LE(r.stats.wall_ms, 2.0 * 1500);
  EXPECT_GT(r.solver_stats.query_timeouts, 0u);
}

TEST(EngineTest, PerStateFuelEvictsRunawayState) {
  DdtConfig config;
  config.use_default_checkers = false;
  config.engine.max_instructions_per_state = 2000;
  config.engine.max_instructions = 500'000;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(kSpinDriver), ToyPci());
  ASSERT_TRUE(result.ok());
  const DdtResult& r = result.value();
  EXPECT_GT(r.stats.states_evicted, 0u);
  // The spinning state was evicted at its fuel limit; the run did not burn
  // the whole global budget on it.
  EXPECT_LT(r.stats.instructions, 500'000u);
}

TEST(EngineTest, MemoryPressureEvictionKeepsRunAlive) {
  std::string source = std::string(kHwIndexDriver) + kHwIndexTable;
  DdtConfig config;
  config.engine.max_state_bytes = 1;  // absurdly tight: every sample evicts
  config.engine.max_instructions = 200'000;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(AssembleToy(source), ToyPci());
  ASSERT_TRUE(result.ok());
  // At least one state always survives eviction, so the run still covers code.
  EXPECT_GT(result.value().covered_blocks, 0u);
}

}  // namespace
}  // namespace ddt
