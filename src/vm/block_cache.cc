#include "src/vm/block_cache.h"

namespace ddt {

BlockCache::BlockCache(const uint8_t* code, size_t size, uint32_t base)
    : code_(code, code + size), base_(base) {
  size_t slots = size / kInstructionSize;
  insns_.resize(slots);
  slot_state_.assign(slots, kUnknown);
}

bool BlockCache::SlotFor(uint32_t pc, size_t* slot) const {
  uint32_t offset = pc - base_;
  if (pc < base_ || offset % kInstructionSize != 0) {
    return false;
  }
  size_t index = offset / kInstructionSize;
  if (index >= slot_state_.size()) {
    return false;
  }
  *slot = index;
  return true;
}

void BlockCache::DecodeBlockFrom(size_t slot) {
  obs::ScopedPhase obs_phase(profile_, obs::Phase::kDecode);
  // Stops at the first terminator, at an undecodable slot, or on running
  // into an already-decoded region or the end of the code segment.
  for (size_t cursor = slot; cursor < slot_state_.size() && slot_state_[cursor] == kUnknown;
       ++cursor) {
    std::optional<Instruction> decoded =
        DecodeInstruction(code_.data() + cursor * kInstructionSize);
    if (!decoded.has_value()) {
      slot_state_[cursor] = kInvalid;
      break;
    }
    insns_[cursor] = *decoded;
    slot_state_[cursor] = kDecoded;
    ++stats_.instructions_decoded;
    if (IsTerminator(decoded->opcode)) {
      break;
    }
  }
  ++stats_.blocks_decoded;
}

const Instruction* BlockCache::Lookup(uint32_t pc) {
  size_t slot;
  if (!SlotFor(pc, &slot)) {
    ++stats_.fallback_fetches;
    return nullptr;
  }
  if (slot_state_[slot] == kUnknown) {
    DecodeBlockFrom(slot);
  } else {
    ++stats_.hits;
  }
  if (slot_state_[slot] != kDecoded) {
    ++stats_.fallback_fetches;
    return nullptr;
  }
  return &insns_[slot];
}

}  // namespace ddt
