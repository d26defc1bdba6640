// Guest memory with chained copy-on-write forking (§4.1.3 of the paper).
//
// Each execution state owns a GuestMemory handle: a mutable write delta on
// top of a chain of frozen parent deltas, bottoming out in a shared root that
// holds the initial image pages. Forking freezes the current delta and hands
// both siblings fresh empty deltas — O(1) instead of copying the full state.
// Reads that miss the local delta walk the chain and are cached in the leaf,
// exactly the paper's "cache each resolved read in the leaf state"
// optimization.
//
// One installed root can also back many independent memories at once
// (ShareImage): a driver image is installed once and every engine that loads
// it starts from a copy-on-write share, reading the root concurrently and
// writing only its own deltas.
//
// Bytes are concrete-or-symbolic (MemByte); the interpreter composes words
// from bytes, and KLEE-style Extract/Concat folding in ExprContext
// reassembles whole symbolic words.
//
// An eager mode (every fork deep-copies the merged map) exists solely for
// the COW ablation benchmark.
#ifndef SRC_VM_GUEST_MEMORY_H_
#define SRC_VM_GUEST_MEMORY_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/expr/expr.h"

namespace ddt {

struct MemByte {
  ExprRef sym = nullptr;  // null -> concrete
  uint8_t conc = 0;

  bool IsSymbolic() const { return sym != nullptr; }
  static MemByte Concrete(uint8_t v) { return MemByte{nullptr, v}; }
  static MemByte Symbolic(ExprRef e) { return MemByte{e, 0}; }
};

struct MemStats {
  uint64_t forks = 0;
  uint64_t bytes_copied = 0;  // eager mode / compaction copies
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t cache_hits = 0;
  uint64_t chain_walks = 0;  // reads that had to walk past the leaf
  uint64_t compactions = 0;
};

class GuestMemory {
 public:
  GuestMemory();
  GuestMemory(GuestMemory&&) = default;
  GuestMemory& operator=(GuestMemory&&) = default;
  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;

  // Installs initial image bytes into the root. Only valid before the first
  // fork or share (the root is read-only once shared).
  void InitWrite(uint32_t addr, const uint8_t* data, size_t len);

  // A fresh memory over this one's root, with no chain and an empty delta:
  // it reads the installed bytes and keeps its own writes to itself. The
  // root is never written again (InitWrite on the share fails a check), so
  // shares may be read from different threads while this memory stays
  // const. Stats and eager mode are not inherited.
  GuestMemory ShareImage() const;

  MemByte ReadByte(uint32_t addr);
  void WriteByte(uint32_t addr, MemByte byte);

  // Concrete helpers (assert no symbolic byte is touched; callers that can
  // see symbolic data go byte-by-byte through ReadByte).
  void WriteConcrete(uint32_t addr, const uint8_t* data, size_t len);
  // Returns false if any byte in the span is symbolic.
  bool TryReadConcrete(uint32_t addr, uint8_t* out, size_t len);

  // Forks this memory: freezes the current delta; both `this` and the
  // returned sibling continue with empty deltas over the shared chain.
  GuestMemory Fork();

  size_t ChainDepth() const;
  size_t DeltaSize() const { return delta_.size(); }
  // Per-instance access odometer (reads + writes since construction or fork
  // inheritance). The diamond-merge eligibility check compares snapshots of
  // this counter to prove a fork suffix touched no guest memory at all.
  uint64_t access_count() const { return access_count_; }

  void set_stats(MemStats* stats) { stats_ = stats; }
  void set_eager_fork(bool eager) { eager_fork_ = eager; }

 private:
  struct Node {
    std::unordered_map<uint32_t, MemByte> writes;
    std::shared_ptr<const Node> parent;
  };

  struct Root {
    std::unordered_map<uint32_t, std::vector<uint8_t>> pages;
  };

  // Resolves a byte by walking delta -> chain -> root.
  MemByte Resolve(uint32_t addr, bool* walked_chain) const;
  // Merges chain + delta into a single flat map (for eager mode/compaction).
  std::unordered_map<uint32_t, MemByte> MergedWrites() const;
  void CompactIfDeep();

  std::shared_ptr<Root> root_;
  std::shared_ptr<const Node> parent_;  // frozen chain (may be null)
  std::unordered_map<uint32_t, MemByte> delta_;
  std::unordered_map<uint32_t, MemByte> read_cache_;
  MemStats* stats_ = nullptr;
  uint64_t access_count_ = 0;
  bool eager_fork_ = false;
  bool root_shared_ = false;  // InitWrite is no longer allowed

  static constexpr size_t kCompactionDepth = 96;
};

}  // namespace ddt

#endif  // SRC_VM_GUEST_MEMORY_H_
