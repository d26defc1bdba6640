// The standard MiniOS annotation set (AnnotationSet::Standard).
//
// These mirror the annotations the paper's evaluation relied on: symbolic
// registry integers (the worked example in §3.4.1), allocation-failure
// alternatives for every allocator ("a memory allocation function can either
// return a valid pointer or a null pointer, so the annotation would instruct
// DDT to try both"), symbolic entry-point arguments, and a symbolic hardware
// revision in the PCI descriptor (§4.1.4).
#include "src/annotations/annotation.h"
#include "src/kernel/api.h"
#include "src/kernel/kernel_api.h"
#include "src/support/strings.h"

namespace ddt {

namespace {

// --- Concrete-to-symbolic: registry reads -----------------------------------
// The paper's NdisReadConfiguration_return example, transliterated: on a
// successful integer read, replace the concrete IntegerData with a fresh
// non-negative symbolic integer.
class ReadConfigurationSymbolic : public ApiAnnotation {
 public:
  std::string function() const override { return "MosReadConfiguration"; }

  AnnotationOutcome OnReturn(KernelContext& kc) override {
    Value ret = kc.GetReturn();
    if (!ret.IsConcrete() || ret.concrete() != kStatusSuccess) {
      return AnnotationOutcome{};
    }
    uint32_t param_ptr = kc.Concretize(kc.Arg(2), "annotation.param_ptr");
    uint32_t type = kc.ReadGuestU32(param_ptr);
    if (type != 1) {  // integer parameters only
      return AnnotationOutcome{};
    }
    uint32_t name_ptr = kc.Concretize(kc.Arg(1), "annotation.name_ptr");
    std::string name = kc.ReadGuestCString(name_ptr, 64);
    VarOrigin origin;
    origin.source = VarOrigin::Source::kRegistry;
    origin.label = name;
    ExprRef symb = kc.expr()->Var(32, StrFormat("reg_%s", name.c_str()), origin);
    // ddt_discard_state() for negative values, as in the paper's listing:
    // keep only the non-negative half by constraining the path.
    kc.AddConstraint(kc.expr()->Sle(kc.expr()->Const(0, 32), symb));
    kc.WriteGuestValue(param_ptr + 4, Value::Symbolic(symb), 4);
    return AnnotationOutcome{};
  }
};

// --- Concrete-to-symbolic: allocation failure alternatives --------------------
// For pointer-returning allocators: fork an alternative where the call
// returned NULL (and the bookkeeping never happened).
class PointerAllocFailure : public ApiAnnotation {
 public:
  explicit PointerAllocFailure(std::string api) : api_(std::move(api)) {}
  std::string function() const override { return api_; }

  AnnotationOutcome OnReturn(KernelContext& kc) override {
    Value ret = kc.GetReturn();
    if (!ret.IsConcrete() || ret.concrete() == 0) {
      return AnnotationOutcome{};
    }
    uint32_t addr = ret.concrete();
    AnnotationOutcome outcome;
    outcome.alternatives.push_back(AnnotationAlternative{
        StrFormat("%s-fails", api_.c_str()), [addr](KernelContext& alt) {
          alt.kernel().pool.erase(addr);
          alt.SetReturn(Value::Concrete(0));
        }});
    return outcome;
  }

 private:
  std::string api_;
};

// For status-returning allocators with a pointer out-parameter: fork an
// alternative returning STATUS_INSUFFICIENT_RESOURCES.
class StatusAllocFailure : public ApiAnnotation {
 public:
  StatusAllocFailure(std::string api, int out_arg_index, bool scrub_out_param)
      : api_(std::move(api)), out_arg_(out_arg_index), scrub_(scrub_out_param) {}
  std::string function() const override { return api_; }

  AnnotationOutcome OnReturn(KernelContext& kc) override {
    Value ret = kc.GetReturn();
    if (!ret.IsConcrete() || ret.concrete() != kStatusSuccess) {
      return AnnotationOutcome{};
    }
    uint32_t out_ptr = kc.Concretize(kc.Arg(out_arg_), "annotation.out_ptr");
    std::string api = api_;
    bool scrub = scrub_;
    AnnotationOutcome outcome;
    outcome.alternatives.push_back(AnnotationAlternative{
        StrFormat("%s-fails", api_.c_str()), [out_ptr, api, scrub](KernelContext& alt) {
          uint32_t written = alt.ReadGuestU32(out_ptr);
          // Undo whichever bookkeeping this API performed.
          alt.kernel().pool.erase(written);
          alt.kernel().packet_pools.erase(written);
          if (alt.kernel().packets.count(written) != 0) {
            RemoveGrant(alt.kernel(), written);
            alt.kernel().packets.erase(written);
          }
          if (scrub) {
            // The failed call never wrote the out-parameter; restore a null
            // so buggy "use it anyway" paths dereference 0 (detectably).
            alt.WriteGuestU32(out_ptr, 0);
          }
          alt.SetReturn(Value::Concrete(kStatusInsufficientResources));
        }});
    return outcome;
  }

 private:
  std::string api_;
  int out_arg_;
  bool scrub_;
};

// --- Entry-point argument hints ------------------------------------------------
// Makes the OID of Query/SetInformation symbolic: the exerciser issues a
// concrete OID, the annotation widens it to "any OID" so unexpected-request
// paths get explored.
class SymbolicOidAnnotation : public ApiAnnotation {
 public:
  explicit SymbolicOidAnnotation(int slot) : slot_(slot) {}
  std::string function() const override { return EntryAnnotationKey(slot_); }

  void OnCall(KernelContext& kc) override {
    VarOrigin origin;
    origin.source = VarOrigin::Source::kEntryArg;
    origin.label = EntrySlotName(slot_);
    ExprRef oid = kc.expr()->Var(32, StrFormat("oid_%s", EntrySlotName(slot_)), origin);
    kc.SetArg(0, Value::Symbolic(oid));
  }

 private:
  int slot_;
};

// Makes buffer lengths symbolic but *bounded by the concrete original* — the
// soundness requirement called out in §7: "the concrete packet size must be
// replaced by a symbolic value constrained not to be greater than the
// original value, to avoid buffer overflows [being false positives]".
class SymbolicLengthAnnotation : public ApiAnnotation {
 public:
  SymbolicLengthAnnotation(int slot, int len_arg) : slot_(slot), len_arg_(len_arg) {}
  std::string function() const override { return EntryAnnotationKey(slot_); }

  void OnCall(KernelContext& kc) override {
    Value len = kc.Arg(len_arg_);
    if (!len.IsConcrete()) {
      return;
    }
    VarOrigin origin;
    origin.source = VarOrigin::Source::kEntryArg;
    origin.label = StrFormat("%s.len", EntrySlotName(slot_));
    ExprRef sym = kc.expr()->Var(32, StrFormat("len_%s", EntrySlotName(slot_)), origin);
    kc.AddConstraint(kc.expr()->Ule(sym, kc.expr()->Const(len.concrete(), 32)));
    kc.SetArg(len_arg_, Value::Symbolic(sym));
  }

 private:
  int slot_;
  int len_arg_;
};

// Makes the Diag entry's request code symbolic.
class SymbolicDiagAnnotation : public ApiAnnotation {
 public:
  std::string function() const override { return EntryAnnotationKey(kEpDiag); }

  void OnCall(KernelContext& kc) override {
    VarOrigin origin;
    origin.source = VarOrigin::Source::kEntryArg;
    origin.label = "Diag.code";
    kc.SetArg(0, Value::Symbolic(kc.expr()->Var(32, "diag_code", origin)));
  }
};

// Plants symbolic bytes at the head of a Send packet's payload so
// content-dependent paths fork (§3.2: "DDT makes the content of the network
// packet symbolic").
class SymbolicPacketDataAnnotation : public ApiAnnotation {
 public:
  std::string function() const override { return EntryAnnotationKey(kEpSend); }

  void OnCall(KernelContext& kc) override {
    Value pkt = kc.Arg(0);
    if (!pkt.IsConcrete() || pkt.concrete() == 0) {
      return;
    }
    uint32_t payload = kc.ReadGuestU32(pkt.concrete());
    constexpr unsigned kSymbolicHeadBytes = 16;
    for (unsigned i = 0; i < kSymbolicHeadBytes; ++i) {
      VarOrigin origin;
      origin.source = VarOrigin::Source::kPacketData;
      origin.label = "Send.payload";
      origin.seq = i;
      ExprRef byte = kc.expr()->Var(8, StrFormat("pkt_byte_%u", i), origin);
      kc.WriteGuestValue(payload + i, Value::Symbolic(byte), 1);
    }
  }
};

// --- Device descriptor hint (§4.1.4): symbolic hardware revision ---------------
class SymbolicPciRevision : public ApiAnnotation {
 public:
  std::string function() const override { return "MosReadPciConfig"; }

  AnnotationOutcome OnReturn(KernelContext& kc) override {
    uint32_t offset = kc.Concretize(kc.Arg(0), "annotation.pci_offset");
    if (offset != kPciCfgRevision) {
      return AnnotationOutcome{};
    }
    uint32_t out_ptr = kc.Concretize(kc.Arg(1), "annotation.pci_out");
    VarOrigin origin;
    origin.source = VarOrigin::Source::kAnnotation;
    origin.label = "pci_revision";
    ExprRef rev = kc.expr()->Var(8, "pci_revision", origin);
    kc.WriteGuestValue(out_ptr, Value::Symbolic(rev), 1);
    return AnnotationOutcome{};
  }
};

}  // namespace

const std::shared_ptr<const AnnotationSet>& AnnotationSet::Standard() {
  static const std::shared_ptr<const AnnotationSet> standard = [] {
    auto set = std::make_shared<AnnotationSet>();
    set->Add(std::make_shared<ReadConfigurationSymbolic>());
    set->Add(std::make_shared<PointerAllocFailure>("MosAllocatePool"));
    set->Add(std::make_shared<PointerAllocFailure>("MosAllocatePoolWithTag"));
    set->Add(std::make_shared<StatusAllocFailure>("MosAllocateMemoryWithTag", 0, true));
    set->Add(std::make_shared<StatusAllocFailure>("MosNewInterruptSync", 0, true));
    set->Add(std::make_shared<StatusAllocFailure>("MosAllocatePacketPool", 0, true));
    set->Add(std::make_shared<StatusAllocFailure>("MosAllocatePacket", 0, true));
    set->Add(std::make_shared<SymbolicOidAnnotation>(kEpQueryInfo));
    set->Add(std::make_shared<SymbolicOidAnnotation>(kEpSetInfo));
    set->Add(std::make_shared<SymbolicLengthAnnotation>(kEpSend, 1));
    set->Add(std::make_shared<SymbolicLengthAnnotation>(kEpWrite, 1));
    set->Add(std::make_shared<SymbolicDiagAnnotation>());
    set->Add(std::make_shared<SymbolicPacketDataAnnotation>());
    set->Add(std::make_shared<SymbolicPciRevision>());
    return set;
  }();
  return standard;
}

}  // namespace ddt
