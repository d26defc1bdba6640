// Differential testing of the interpreter's concrete ALU semantics: for each
// opcode, generate random operands, run a tiny guest driver that computes
// `a OP b` and returns it as the Initialize status, and compare against the
// host-side reference semantics. A custom checker captures the entry-exit
// status (the kernel event stream is the observation channel).
#include <gtest/gtest.h>

#include <map>

#include "src/core/ddt.h"
#include "src/support/rng.h"
#include "src/support/strings.h"
#include "src/vm/assembler.h"

namespace ddt {
namespace {

class StatusCapture : public Checker {
 public:
  explicit StatusCapture(std::vector<uint32_t>* sink) : sink_(sink) {}
  std::string name() const override { return "status-capture"; }
  void OnKernelEvent(ExecutionState& st, const KernelEvent& event, CheckerHost& host) override {
    if (event.kind == KernelEvent::Kind::kEntryExit && event.a == kEpInitialize) {
      sink_->push_back(event.b);
    }
  }

 private:
  std::vector<uint32_t>* sink_;
};

struct ProgramRun {
  DdtResult result;
  std::vector<uint32_t> statuses;  // Initialize exit status, one per path
  std::map<std::string, uint32_t> symbols;
};

// Runs a one-entry-point driver whose ep_init is `ep_init_body`, with no
// annotations and no symbolic interrupts.
ProgramRun RunProgram(const std::string& ep_init_body) {
  std::string source = R"(
    .driver "interp"
    .entry driver_entry
    .code
    .func driver_entry
      la r0, entry_table
      kcall MosRegisterDriver
      ret
    .func ep_init
)" + ep_init_body + R"(
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
  ProgramRun run;
  Result<AssembledDriver> assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.error();
  if (!assembled.ok()) {
    return run;
  }
  run.symbols = assembled.value().symbols;
  PciDescriptor pci;
  pci.vendor_id = 1;
  pci.device_id = 1;
  pci.bars.push_back(PciBar{0x100});
  DdtConfig config;
  config.use_standard_annotations = false;
  config.engine.enable_symbolic_interrupts = false;
  config.engine.max_instructions = 10000;
  Ddt ddt(config);
  ddt.AddChecker(std::make_unique<StatusCapture>(&run.statuses));
  Result<DdtResult> result = ddt.TestDriver(assembled.value().image, pci);
  EXPECT_TRUE(result.ok());
  if (result.ok()) {
    run.result = result.take();
  }
  return run;
}

uint32_t RunAluProgram(const std::string& mnemonic, uint32_t a, uint32_t b) {
  ProgramRun run = RunProgram(StrFormat(R"(
      movi r1, 0x%x
      movi r2, 0x%x
      %s r0, r1, r2
      ret
)",
                                        a, b, mnemonic.c_str()));
  EXPECT_EQ(run.statuses.size(), 1u) << mnemonic;
  return run.statuses.empty() ? 0xDEADDEAD : run.statuses[0];
}

struct AluCase {
  const char* mnemonic;
  uint32_t (*reference)(uint32_t, uint32_t);
  bool nonzero_b;  // avoid division traps
};

uint32_t RefAdd(uint32_t a, uint32_t b) { return a + b; }
uint32_t RefSub(uint32_t a, uint32_t b) { return a - b; }
uint32_t RefMul(uint32_t a, uint32_t b) { return a * b; }
uint32_t RefUDiv(uint32_t a, uint32_t b) { return a / b; }
uint32_t RefURem(uint32_t a, uint32_t b) { return a % b; }
uint32_t RefSDiv(uint32_t a, uint32_t b) {
  int32_t sa = static_cast<int32_t>(a);
  int32_t sb = static_cast<int32_t>(b);
  if (sa == INT32_MIN && sb == -1) {
    return a;
  }
  return static_cast<uint32_t>(sa / sb);
}
uint32_t RefAnd(uint32_t a, uint32_t b) { return a & b; }
uint32_t RefOr(uint32_t a, uint32_t b) { return a | b; }
uint32_t RefXor(uint32_t a, uint32_t b) { return a ^ b; }
uint32_t RefShl(uint32_t a, uint32_t b) { return b >= 32 ? 0 : a << b; }
uint32_t RefLShr(uint32_t a, uint32_t b) { return b >= 32 ? 0 : a >> b; }
uint32_t RefAShr(uint32_t a, uint32_t b) {
  return static_cast<uint32_t>(static_cast<int32_t>(a) >> (b >= 32 ? 31 : b));
}
uint32_t RefSeq(uint32_t a, uint32_t b) { return a == b ? 1 : 0; }
uint32_t RefSne(uint32_t a, uint32_t b) { return a != b ? 1 : 0; }
uint32_t RefSltU(uint32_t a, uint32_t b) { return a < b ? 1 : 0; }
uint32_t RefSltS(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a) < static_cast<int32_t>(b) ? 1 : 0;
}
uint32_t RefSleU(uint32_t a, uint32_t b) { return a <= b ? 1 : 0; }
uint32_t RefSleS(uint32_t a, uint32_t b) {
  return static_cast<int32_t>(a) <= static_cast<int32_t>(b) ? 1 : 0;
}

class InterpAluTest : public ::testing::TestWithParam<AluCase> {};

TEST_P(InterpAluTest, GuestMatchesHostSemantics) {
  const AluCase& test_case = GetParam();
  Rng rng(0xA111 + std::string(test_case.mnemonic).size());
  for (int i = 0; i < 12; ++i) {
    uint32_t a = rng.Next32();
    uint32_t b = rng.Next32();
    if (i == 0) {
      a = 0;
      b = 0xFFFFFFFF;
    }
    if (i == 1) {
      a = 0x80000000;
      b = 1;
    }
    if (i == 2) {
      b = static_cast<uint32_t>(rng.NextBelow(40));  // interesting shifts
    }
    if (test_case.nonzero_b && b == 0) {
      b = 7;
    }
    uint32_t expected = test_case.reference(a, b);
    uint32_t actual = RunAluProgram(test_case.mnemonic, a, b);
    ASSERT_EQ(actual, expected)
        << test_case.mnemonic << " a=0x" << std::hex << a << " b=0x" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, InterpAluTest,
    ::testing::Values(AluCase{"add", RefAdd, false}, AluCase{"sub", RefSub, false},
                      AluCase{"mul", RefMul, false}, AluCase{"udiv", RefUDiv, true},
                      AluCase{"urem", RefURem, true}, AluCase{"sdiv", RefSDiv, true},
                      AluCase{"and", RefAnd, false}, AluCase{"or", RefOr, false},
                      AluCase{"xor", RefXor, false}, AluCase{"shl", RefShl, false},
                      AluCase{"lshr", RefLShr, false}, AluCase{"ashr", RefAShr, false},
                      AluCase{"seq", RefSeq, false}, AluCase{"sne", RefSne, false},
                      AluCase{"sltu", RefSltU, false}, AluCase{"slts", RefSltS, false},
                      AluCase{"sleu", RefSleU, false}, AluCase{"sles", RefSleS, false}),
    [](const ::testing::TestParamInfo<AluCase>& info) { return info.param.mnemonic; });

// Symbolic/concrete consistency: the same program with a SYMBOLIC operand
// constrained to a single value must produce the same entry status.
TEST(InterpConsistencyTest, SymbolicPinnedEqualsConcrete) {
  // The device register is symbolic; the driver constrains it by branching,
  // and returns reg+5 on the reg==37 path.
  ProgramRun run = RunProgram(R"(
      movi r0, 0
      kcall MosMapIoSpace
      ld32 r1, [r0+0]
      seqi r2, r1, 37
      bz r2, other
      addi r0, r1, 5          ; returns 42 when reg == 37
      ret
    other:
      movi r0, 0
      ret
)");
  // Two paths: reg == 37 (status 42) and reg != 37 (status 0).
  ASSERT_EQ(run.statuses.size(), 2u);
  bool saw_42 = false;
  bool saw_0 = false;
  for (uint32_t status : run.statuses) {
    saw_42 |= status == 42;
    saw_0 |= status == 0;
  }
  EXPECT_TRUE(saw_42);
  EXPECT_TRUE(saw_0);
}

// --- division by zero --------------------------------------------------------

// Expects exactly one bug: the kernel crash at the divide labelled
// `div_site`.
void ExpectOneDivideCrash(const ProgramRun& run, const std::string& details) {
  ASSERT_EQ(run.result.bugs.size(), 1u);
  const uint32_t div_pc = run.symbols.at("div_site");
  const Bug& bug = run.result.bugs[0];
  EXPECT_EQ(bug.type, BugType::kKernelCrash);
  EXPECT_EQ(bug.title, StrFormat("integer division by zero at 0x%08x", div_pc));
  EXPECT_EQ(bug.pc, div_pc);
  EXPECT_EQ(bug.details, details);
}

TEST(InterpDivideByZeroTest, ConcreteZeroDivisorCrashesAtTheDivide) {
  for (const char* divide : {"udiv r0, r1, r2", "udivi r0, r1, 0", "sdiv r0, r1, r2",
                             "urem r0, r1, r2"}) {
    SCOPED_TRACE(divide);
    ProgramRun run = RunProgram(StrFormat(R"(
      movi r1, 100
      movi r2, 0
    div_site:
      %s
      ret
)",
                                         divide));
    ExpectOneDivideCrash(run, "divide fault in kernel mode crashes the machine");
    EXPECT_TRUE(run.statuses.empty());  // the crash ends the only path
  }
}

TEST(InterpDivideByZeroTest, SymbolicDivisorForksOneCrashingChild) {
  ProgramRun run = RunProgram(R"(
      movi r0, 0
      kcall MosMapIoSpace
      ld32 r2, [r0+0]         ; symbolic device register
      movi r1, 100
    div_site:
      udiv r3, r1, r2
      bz r2, zero_after       ; infeasible once the divisor is nonzero
      movi r0, 7
      ret
    zero_after:
      movi r0, 0xBAD
      ret
)");
  ExpectOneDivideCrash(run,
                       "a feasible input makes the divisor zero; divide fault in kernel mode");
  EXPECT_EQ(run.result.stats.forks, 1u);
  // The parent continued past the divide with the divisor constrained
  // nonzero, so the zero test after it never forks.
  EXPECT_EQ(run.statuses, std::vector<uint32_t>{7});
}

TEST(InterpDivideByZeroTest, DivisorPinnedToZeroByABranchAlwaysCrashes) {
  ProgramRun run = RunProgram(R"(
      movi r0, 0
      kcall MosMapIoSpace
      ld32 r2, [r0+0]         ; symbolic device register
      bnz r2, nonzero
      movi r1, 100
    div_site:
      udiv r3, r1, r2         ; r2 == 0 on every input reaching here
      movi r0, 0
      ret
    nonzero:
      movi r0, 7
      ret
)");
  ExpectOneDivideCrash(run, "divisor is always zero on this path");
  EXPECT_EQ(run.statuses, std::vector<uint32_t>{7});
}

}  // namespace
}  // namespace ddt
