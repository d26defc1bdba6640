// Stable coverage-novelty API over the engine's block-leader coverage.
//
// The engine tracks covered basic blocks as a set of leader pcs backed by a
// dense leader-slot table (one slot per aligned instruction). Consumers that
// reason about *novelty* — the fuzz corpus manager, promotion scoring, the
// coverage tests — need set algebra over those bitmaps, not access to
// BlockCache or Engine internals. CoverageBitmap is that boundary: a dense
// bitset keyed by instruction slot, with the snapshot/diff/popcount/
// fingerprint operations novelty decisions are made from, plus a binary
// codec so bitmaps cross process boundaries (fuzz fleet result frames) and
// land in corpus files byte-reproducibly.
#ifndef SRC_VM_COVERAGE_MAP_H_
#define SRC_VM_COVERAGE_MAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/support/record.h"

namespace ddt {

class CoverageBitmap {
 public:
  CoverageBitmap() = default;
  explicit CoverageBitmap(size_t num_slots) { Resize(num_slots); }

  // Grows (never shrinks) to cover `num_slots` slots; new slots are clear.
  void Resize(size_t num_slots);

  size_t num_slots() const { return num_slots_; }
  bool empty() const { return Popcount() == 0; }

  // Sets `slot`; returns true iff it was newly set. Out-of-range slots grow
  // the bitmap (bitmaps from different-sized snapshots stay comparable).
  bool Set(size_t slot);
  bool Test(size_t slot) const;

  // Number of set slots.
  size_t Popcount() const;

  // Set-union in place; returns how many of `other`'s slots were new here.
  size_t OrWith(const CoverageBitmap& other);

  // How many slots `other` covers that this bitmap does not (the novelty of
  // `other` against this cumulative map), without mutating either.
  size_t NewlyCovered(const CoverageBitmap& other) const;

  // FNV-1a over the significant words (trailing zero words excluded, so
  // logically-equal bitmaps of different allocated sizes fingerprint alike).
  uint64_t Fingerprint() const;

  // The wire/corpus form: [u32 n][n x u64 significant words], low slots
  // first. Decode accepts exactly what Encode produces, so it refuses a
  // trailing zero word.
  void Encode(ByteWriter* w) const;
  static bool Decode(ByteReader* r, CoverageBitmap* out);

  bool operator==(const CoverageBitmap& other) const {
    return Fingerprint() == other.Fingerprint() && Popcount() == other.Popcount();
  }

 private:
  // Words past the last set bit may exist (Resize growth); every operation
  // treats them as absent.
  size_t SignificantWords() const;

  std::vector<uint64_t> words_;
  size_t num_slots_ = 0;
};

}  // namespace ddt

#endif  // SRC_VM_COVERAGE_MAP_H_
