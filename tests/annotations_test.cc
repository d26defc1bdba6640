// Unit tests for the annotation machinery (§3.4): the registry of
// annotations, the standard MiniOS set's concrete-to-symbolic conversions
// and failure alternatives, driven through the fake KernelContext.
#include "src/annotations/annotation.h"

#include <gtest/gtest.h>

#include <cstring>

#include "src/expr/eval.h"
#include "src/kernel/kernel_api.h"
#include "tests/fake_kernel_context.h"

namespace ddt {
namespace {

TEST(AnnotationSetTest, RegistryAndLookup) {
  class Dummy : public ApiAnnotation {
   public:
    std::string function() const override { return "MosAllocatePool"; }
  };
  AnnotationSet set;
  EXPECT_TRUE(set.empty());
  set.Add(std::make_shared<Dummy>());
  set.Add(std::make_shared<Dummy>());
  EXPECT_EQ(set.For("MosAllocatePool").size(), 2u);
  EXPECT_TRUE(set.For("MosFreePool").empty());
  EXPECT_EQ(set.size(), 2u);
}

TEST(AnnotationSetTest, MergeCombines) {
  class A : public ApiAnnotation {
   public:
    std::string function() const override { return "X"; }
  };
  class B : public ApiAnnotation {
   public:
    std::string function() const override { return "Y"; }
  };
  AnnotationSet one;
  one.Add(std::make_shared<A>());
  AnnotationSet two;
  two.Add(std::make_shared<B>());
  one.Merge(two);
  EXPECT_EQ(one.For("X").size(), 1u);
  EXPECT_EQ(one.For("Y").size(), 1u);
}

TEST(AnnotationSetTest, EntryKeyNaming) {
  EXPECT_EQ(EntryAnnotationKey(kEpQueryInfo), "entry:QueryInformation");
  EXPECT_EQ(EntryAnnotationKey(kEpInitialize), "entry:Initialize");
}

TEST(StandardAnnotationsTest, CoversTheExpectedFunctions) {
  const AnnotationSet& set = *AnnotationSet::Standard();
  EXPECT_FALSE(set.For("MosReadConfiguration").empty());
  EXPECT_FALSE(set.For("MosAllocatePool").empty());
  EXPECT_FALSE(set.For("MosAllocatePoolWithTag").empty());
  EXPECT_FALSE(set.For("MosAllocateMemoryWithTag").empty());
  EXPECT_FALSE(set.For("MosNewInterruptSync").empty());
  EXPECT_FALSE(set.For("MosReadPciConfig").empty());
  EXPECT_FALSE(set.For(EntryAnnotationKey(kEpQueryInfo)).empty());
  EXPECT_FALSE(set.For(EntryAnnotationKey(kEpSetInfo)).empty());
  EXPECT_FALSE(set.For(EntryAnnotationKey(kEpSend)).empty());
  EXPECT_FALSE(set.For(EntryAnnotationKey(kEpDiag)).empty());
}

// The paper's worked example: a successful integer registry read gets a
// fresh non-negative symbolic value planted in the parameter block.
TEST(StandardAnnotationsTest, ReadConfigurationPlantsSymbolicInteger) {
  FakeKernelContext kc;
  kc.kernel().registry["MaximumMulticastList"] = 8;
  uint32_t out_ptr = kDriverImageBase + 0x1100;
  kc.Call("MosOpenConfiguration", {out_ptr});
  uint32_t handle = kc.ReadGuestU32(out_ptr);
  uint32_t name_ptr = kDriverImageBase + 0x1200;
  const char* name = "MaximumMulticastList";
  for (size_t i = 0; i <= strlen(name); ++i) {
    kc.WriteGuestU8(name_ptr + static_cast<uint32_t>(i), static_cast<uint8_t>(name[i]));
  }
  uint32_t param_ptr = kDriverImageBase + 0x1300;
  kc.Call("MosReadConfiguration", {handle, name_ptr, param_ptr});
  ASSERT_EQ(kc.ReturnedU32(), kStatusSuccess);
  uint32_t vars_before = kc.expr()->num_vars();

  const AnnotationSet& set = *AnnotationSet::Standard();
  AnnotationOutcome outcome;
  for (const auto& annotation : set.For("MosReadConfiguration")) {
    AnnotationOutcome one = annotation->OnReturn(kc);
    outcome.alternatives.insert(outcome.alternatives.end(), one.alternatives.begin(),
                                one.alternatives.end());
  }
  // A fresh symbolic variable was created with the registry origin...
  ASSERT_GT(kc.expr()->num_vars(), vars_before);
  const VarInfo& info = kc.expr()->var_info(vars_before);
  EXPECT_EQ(info.origin.source, VarOrigin::Source::kRegistry);
  EXPECT_EQ(info.origin.label, "MaximumMulticastList");
  // ...and no fork alternatives are requested by this hint.
  EXPECT_TRUE(outcome.alternatives.empty());
  // The fake context resolves symbolic writes to concrete 0; the point here
  // is that WriteGuestValue was invoked for param+4 (the IntegerData slot).
}

TEST(StandardAnnotationsTest, ReadConfigurationIgnoresFailedReads) {
  FakeKernelContext kc;
  kc.SetArgs({0x7000, 0, 0});
  kc.SetReturn(Value::Concrete(kStatusNotFound));
  uint32_t vars_before = kc.expr()->num_vars();
  const AnnotationSet& set = *AnnotationSet::Standard();
  for (const auto& annotation : set.For("MosReadConfiguration")) {
    annotation->OnReturn(kc);
  }
  EXPECT_EQ(kc.expr()->num_vars(), vars_before);  // nothing planted
}

// "A memory allocation function can either return a valid pointer or a null
// pointer, so the annotation would instruct DDT to try both."
TEST(StandardAnnotationsTest, AllocationFailureAlternativeUndoesTheAllocation) {
  FakeKernelContext kc;
  kc.Call("MosAllocatePool", {64});
  uint32_t addr = kc.ReturnedU32();
  ASSERT_NE(addr, 0u);

  const AnnotationSet& set = *AnnotationSet::Standard();
  AnnotationOutcome outcome;
  for (const auto& annotation : set.For("MosAllocatePool")) {
    AnnotationOutcome one = annotation->OnReturn(kc);
    outcome.alternatives.insert(outcome.alternatives.end(), one.alternatives.begin(),
                                one.alternatives.end());
  }
  ASSERT_EQ(outcome.alternatives.size(), 1u);
  EXPECT_NE(outcome.alternatives[0].label.find("fails"), std::string::npos);

  // Applying the alternative (on what would be the forked state) removes the
  // allocation record and nulls the return value.
  outcome.alternatives[0].apply(kc);
  EXPECT_EQ(kc.ReturnedU32(), 0u);
  EXPECT_EQ(kc.kernel().FindAllocation(addr), nullptr);
}

TEST(StandardAnnotationsTest, NoFailureAlternativeWhenAllocationAlreadyFailed) {
  FakeKernelContext kc;
  kc.SetArgs({64});
  kc.SetReturn(Value::Concrete(0));  // the call itself returned NULL
  const AnnotationSet& set = *AnnotationSet::Standard();
  for (const auto& annotation : set.For("MosAllocatePool")) {
    EXPECT_TRUE(annotation->OnReturn(kc).alternatives.empty());
  }
}

TEST(StandardAnnotationsTest, StatusAllocFailureScrubsOutParam) {
  FakeKernelContext kc;
  uint32_t out_ptr = kDriverImageBase + 0x1100;
  kc.Call("MosNewInterruptSync", {out_ptr});
  ASSERT_EQ(kc.ReturnedU32(), kStatusSuccess);
  uint32_t handle = kc.ReadGuestU32(out_ptr);
  ASSERT_NE(handle, 0u);

  const AnnotationSet& set = *AnnotationSet::Standard();
  AnnotationOutcome outcome;
  for (const auto& annotation : set.For("MosNewInterruptSync")) {
    AnnotationOutcome one = annotation->OnReturn(kc);
    outcome.alternatives.insert(outcome.alternatives.end(), one.alternatives.begin(),
                                one.alternatives.end());
  }
  ASSERT_EQ(outcome.alternatives.size(), 1u);
  outcome.alternatives[0].apply(kc);
  EXPECT_EQ(kc.ReturnedU32(), kStatusInsufficientResources);
  EXPECT_EQ(kc.ReadGuestU32(out_ptr), 0u);               // out param scrubbed
  EXPECT_EQ(kc.kernel().FindAllocation(handle), nullptr);  // bookkeeping undone
}

TEST(StandardAnnotationsTest, SymbolicOidRewritesArgumentZero) {
  FakeKernelContext kc;
  kc.SetArgs({0x00010106, 0x1000, 64});
  const AnnotationSet& set = *AnnotationSet::Standard();
  for (const auto& annotation : set.For(EntryAnnotationKey(kEpQueryInfo))) {
    annotation->OnCall(kc);
  }
  // The fake context stores Values verbatim; the OID argument must now be a
  // symbolic expression with the entry-arg origin.
  Value oid = kc.Arg(0);
  ASSERT_TRUE(oid.IsSymbolic());
  std::vector<uint32_t> vars;
  kc.expr()->AppendVars(oid.symbolic(), &vars);
  ASSERT_EQ(vars.size(), 1u);
  EXPECT_EQ(kc.expr()->var_info(vars[0]).origin.source, VarOrigin::Source::kEntryArg);
}

TEST(StandardAnnotationsTest, SymbolicLengthBoundedByOriginal) {
  // §7: "the concrete packet size must be replaced by a symbolic value
  // constrained not to be greater than the original value".
  class ConstraintRecorder : public FakeKernelContext {
   public:
    void AddConstraint(ExprRef constraint) override { constraints.push_back(constraint); }
    std::vector<ExprRef> constraints;
  };
  ConstraintRecorder kc;
  kc.SetArgs({0x1000, 128});
  const AnnotationSet& set = *AnnotationSet::Standard();
  for (const auto& annotation : set.For(EntryAnnotationKey(kEpWrite))) {
    annotation->OnCall(kc);
  }
  Value len = kc.Arg(1);
  ASSERT_TRUE(len.IsSymbolic());
  ASSERT_EQ(kc.constraints.size(), 1u);
  // The constraint must be (len <= 128): check it rejects 129 and admits 128.
  std::vector<uint32_t> vars;
  kc.expr()->AppendVars(kc.constraints[0], &vars);
  ASSERT_EQ(vars.size(), 1u);
  Assignment ok_case;
  ok_case.Set(vars[0], 128);
  Assignment bad_case;
  bad_case.Set(vars[0], 129);
  EXPECT_TRUE(EvalBool(kc.constraints[0], ok_case));
  EXPECT_FALSE(EvalBool(kc.constraints[0], bad_case));
}

}  // namespace
}  // namespace ddt
