#include "src/vm/coverage_map.h"

#include <algorithm>

namespace ddt {

namespace {

int PopcountWord(uint64_t w) {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_popcountll(w);
#else
  int n = 0;
  while (w != 0) {
    w &= w - 1;
    ++n;
  }
  return n;
#endif
}

}  // namespace

void CoverageBitmap::Resize(size_t num_slots) {
  if (num_slots <= num_slots_) {
    return;
  }
  num_slots_ = num_slots;
  words_.resize((num_slots + 63) / 64, 0);
}

bool CoverageBitmap::Set(size_t slot) {
  if (slot >= num_slots_) {
    Resize(slot + 1);
  }
  uint64_t mask = 1ull << (slot % 64);
  uint64_t& word = words_[slot / 64];
  if ((word & mask) != 0) {
    return false;
  }
  word |= mask;
  return true;
}

bool CoverageBitmap::Test(size_t slot) const {
  if (slot >= num_slots_) {
    return false;
  }
  return (words_[slot / 64] & (1ull << (slot % 64))) != 0;
}

size_t CoverageBitmap::Popcount() const {
  size_t n = 0;
  for (uint64_t w : words_) {
    n += static_cast<size_t>(PopcountWord(w));
  }
  return n;
}

size_t CoverageBitmap::OrWith(const CoverageBitmap& other) {
  if (other.num_slots_ > num_slots_) {
    Resize(other.num_slots_);
  }
  size_t fresh = 0;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    uint64_t incoming = other.words_[i] & ~words_[i];
    fresh += static_cast<size_t>(PopcountWord(incoming));
    words_[i] |= other.words_[i];
  }
  return fresh;
}

size_t CoverageBitmap::NewlyCovered(const CoverageBitmap& other) const {
  size_t fresh = 0;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    uint64_t mine = i < words_.size() ? words_[i] : 0;
    fresh += static_cast<size_t>(PopcountWord(other.words_[i] & ~mine));
  }
  return fresh;
}

size_t CoverageBitmap::SignificantWords() const {
  size_t n = words_.size();
  while (n > 0 && words_[n - 1] == 0) {
    --n;
  }
  return n;
}

uint64_t CoverageBitmap::Fingerprint() const {
  uint64_t h = 0xCBF29CE484222325ull;
  size_t n = SignificantWords();
  for (size_t i = 0; i < n; ++i) {
    uint64_t w = words_[i];
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (b * 8)) & 0xFF;
      h *= 0x100000001B3ull;
    }
  }
  return h;
}

void CoverageBitmap::Encode(ByteWriter* w) const {
  size_t n = SignificantWords();
  w->U32(static_cast<uint32_t>(n));
  for (size_t i = 0; i < n; ++i) {
    w->U64(words_[i]);
  }
}

bool CoverageBitmap::Decode(ByteReader* r, CoverageBitmap* out) {
  CoverageBitmap bm;
  bm.words_.resize(r->Count(8));
  for (uint64_t& w : bm.words_) {
    w = r->U64();
  }
  if (!r->ok() || (!bm.words_.empty() && bm.words_.back() == 0)) {
    return false;  // Encode never writes a trailing zero word
  }
  bm.num_slots_ = bm.words_.size() * 64;
  *out = std::move(bm);
  return true;
}

}  // namespace ddt
