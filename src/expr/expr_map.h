// ExprScratchMap: a map from expressions to values for scratch work redone
// per query, such as the evaluator's memo. Open addressing over the
// expression's structural hash; Clear() bumps an epoch instead of touching
// the slots, so a map reused query after query stops allocating once it has
// grown to the largest DAG seen.
#ifndef SRC_EXPR_EXPR_MAP_H_
#define SRC_EXPR_EXPR_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/expr/expr.h"

namespace ddt {

template <typename V>
class ExprScratchMap {
 public:
  // Forgets every entry; keeps the capacity.
  void Clear() {
    size_ = 0;
    if (++epoch_ == 0) {
      // The epoch wrapped: make every slot empty again.
      for (Slot& slot : slots_) {
        slot.epoch = 0;
      }
      epoch_ = 1;
    }
  }

  // The value stored for `e`, or null.
  V* Find(ExprRef e) {
    if (slots_.empty()) {
      return nullptr;
    }
    Slot& slot = slots_[Probe(e)];
    return slot.epoch == epoch_ ? &slot.value : nullptr;
  }

  // Stores `value` for `e`, which must be absent.
  void Insert(ExprRef e, V value) {
    if ((size_ + 1) * 2 > slots_.size()) {
      Grow();
    }
    slots_[Probe(e)] = Slot{e, epoch_, std::move(value)};
    ++size_;
  }

 private:
  struct Slot {
    ExprRef expr = nullptr;
    uint32_t epoch = 0;  // the slot is live iff this equals epoch_
    V value{};
  };

  // Index of `e`'s slot, or of the empty slot where it would go.
  size_t Probe(ExprRef e) const {
    size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>((e->hash() * 0x9E3779B97F4A7C15ull) >> 32) & mask;
    while (slots_[i].epoch == epoch_ && slots_[i].expr != e) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Grow() {
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(old.empty() ? 64 : 2 * old.size());
    for (Slot& slot : old) {
      if (slot.epoch == epoch_) {
        slots_[Probe(slot.expr)] = std::move(slot);
      }
    }
  }

  std::vector<Slot> slots_;  // size is zero or a power of two
  uint32_t epoch_ = 1;
  size_t size_ = 0;
};

}  // namespace ddt

#endif  // SRC_EXPR_EXPR_MAP_H_
