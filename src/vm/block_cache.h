// Decoded basic-block translation cache.
//
// The interpreter's original fetch path re-read 8 code bytes through the
// guest-memory COW chain and re-ran DecodeInstruction on every single step.
// QEMU — the substrate the paper builds on — instead decodes each basic block
// once into a translation cache and re-executes the decoded form. This is the
// analogous structure for DVM32: on first entry to a pc, the whole
// straight-line block is decoded into a dense array of Instructions; every
// later fetch of any pc in that block is a single array index.
//
// The cache is valid because driver images are immutable after load: the
// engine enforces a write barrier (no store may land in the code segment), so
// invalidation is never needed. Self-modifying or hostile images that attempt
// a code write are reported as bugs and the write is suppressed.
//
// The cache indexes instruction-aligned pcs only. A misaligned pc (possible
// only through a hostile image's entry table, since every architectural
// control transfer is alignment-checked) makes Lookup return nullptr and the
// engine falls back to byte-wise decode.
#ifndef SRC_VM_BLOCK_CACHE_H_
#define SRC_VM_BLOCK_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/obs/profiler.h"
#include "src/vm/isa.h"

namespace ddt {

class BlockCache {
 public:
  struct Stats {
    // Straight-line runs decoded: each starts at its first-entry pc and ends
    // at the first terminator, undecodable slot, or previously decoded region.
    uint64_t blocks_decoded = 0;
    uint64_t instructions_decoded = 0;
    uint64_t hits = 0;  // fetches served from already-decoded slots
    // Lookup probes that had to fall back to the byte-wise decoder: the pc was
    // out of range, misaligned, or the slot does not decode. A nonzero count
    // makes cache-coverage gaps observable instead of silent.
    uint64_t fallback_fetches = 0;
  };

  // Snapshots the (immutable) code bytes. `base` is the guest address of
  // code[0].
  BlockCache(const uint8_t* code, size_t size, uint32_t base);

  // Fetches the decoded instruction at `pc`, decoding the enclosing
  // straight-line block on first entry. Returns nullptr if `pc` is outside
  // the cacheable range, misaligned, or the bytes do not decode (the caller
  // distinguishes those cases by re-running the byte-wise path).
  const Instruction* Lookup(uint32_t pc);

  const Stats& stats() const { return stats_; }
  uint32_t base() const { return base_; }
  size_t num_slots() const { return slot_state_.size(); }

  // Optional profiler sink (non-owning, may be null): block decodes are
  // attributed to obs::Phase::kDecode. Cache hits stay probe-free — they are
  // the per-fetch hot path.
  void SetProfile(obs::PassProfile* profile) { profile_ = profile; }

 private:
  enum SlotState : uint8_t { kUnknown = 0, kDecoded = 1, kInvalid = 2 };

  // True if `pc` maps to an indexable slot (in range and aligned).
  bool SlotFor(uint32_t pc, size_t* slot) const;
  // Decodes the straight-line run starting at `slot`.
  void DecodeBlockFrom(size_t slot);

  std::vector<uint8_t> code_;  // private snapshot; immutability enforced upstream
  uint32_t base_ = 0;
  std::vector<Instruction> insns_;   // dense, one per slot
  std::vector<uint8_t> slot_state_;  // SlotState per slot
  Stats stats_;
  obs::PassProfile* profile_ = nullptr;
};

}  // namespace ddt

#endif  // SRC_VM_BLOCK_CACHE_H_
