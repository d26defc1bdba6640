// Lightweight API annotations (§3.4).
//
// Annotations encode developer knowledge about the kernel/driver interface.
// In the paper they are C functions compiled to LLVM bitcode and run inside
// the VM; here they are C++ callbacks with the same capability set (full
// access to guest state through KernelContext plus the ddt_* special API —
// symbolic value creation, state forking/discarding).
//
// The four categories from §3.4.1 map as follows:
//   - concrete-to-symbolic conversion hints: OnReturn rewrites return values
//     and out-parameters with fresh symbolic values, and may return
//     *alternatives* — each alternative forks a state (e.g. "this allocation
//     also could have failed: try the NULL return too").
//   - symbolic-to-concrete conversion hints: OnCall checks argument usage
//     rules and reports/bugchecks when a violating value is feasible.
//   - resource allocation hints: implementations may grant or revoke memory
//     ranges via KernelState::grants.
//   - kernel crash handler hook: installed by the engine itself — every
//     MiniOS bugcheck is intercepted and becomes a DDT bug report.
//
// Annotations only *improve coverage*; DDT runs fine with none registered
// (the ablation benchmark does exactly that).
#ifndef SRC_ANNOTATIONS_ANNOTATION_H_
#define SRC_ANNOTATIONS_ANNOTATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/kernel/kernel_context.h"

namespace ddt {

// One forked continuation of an annotated call. The primary state continues
// with the implementation's real effects; each alternative is applied to a
// fresh fork (undoing bookkeeping, rewriting the return value, ...).
struct AnnotationAlternative {
  std::string label;
  std::function<void(KernelContext&)> apply;
};

struct AnnotationOutcome {
  std::vector<AnnotationAlternative> alternatives;
};

class ApiAnnotation {
 public:
  virtual ~ApiAnnotation() = default;

  // The annotated function: a kernel API name ("MosReadConfiguration") or an
  // entry point ("entry:QueryInformation").
  virtual std::string function() const = 0;

  // Runs before the call (argument usage rules). For entry points this runs
  // before the driver code, and may rewrite arguments with SetArg.
  virtual void OnCall(KernelContext& kc) {}

  // Runs after the call; may rewrite results and request forked alternatives.
  virtual AnnotationOutcome OnReturn(KernelContext& kc) { return AnnotationOutcome{}; }
};

// Annotation key for entry points.
std::string EntryAnnotationKey(int slot);

class AnnotationSet {
 public:
  void Add(std::shared_ptr<ApiAnnotation> annotation);
  // Adds every annotation of `other` to this set.
  void Merge(const AnnotationSet& other);
  // All annotations registered for `function` (empty vector if none).
  const std::vector<std::shared_ptr<ApiAnnotation>>& For(const std::string& function) const;
  bool empty() const { return by_function_.empty(); }
  size_t size() const;

  // The standard MiniOS annotation set used in the evaluation: registry
  // values symbolic, allocation-failure alternatives for every allocator,
  // symbolic entry-point arguments (with the packet-length soundness
  // constraint from §7), and a symbolic PCI revision. Built once per
  // process and shared by every engine: its annotations hold only what
  // their constructors set, so concurrent runs may call them.
  static const std::shared_ptr<const AnnotationSet>& Standard();

 private:
  std::map<std::string, std::vector<std::shared_ptr<ApiAnnotation>>> by_function_;
};

}  // namespace ddt

#endif  // SRC_ANNOTATIONS_ANNOTATION_H_
