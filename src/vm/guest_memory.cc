#include "src/vm/guest_memory.h"

#include "src/support/check.h"
#include "src/vm/layout.h"

namespace ddt {

GuestMemory::GuestMemory() : root_(std::make_shared<Root>()) {}

void GuestMemory::InitWrite(uint32_t addr, const uint8_t* data, size_t len) {
  DDT_CHECK_MSG(!root_shared_, "InitWrite after the root is shared");
  for (size_t i = 0; i < len; ++i) {
    uint32_t a = addr + static_cast<uint32_t>(i);
    uint32_t page = a / kPageSize;
    auto& bytes = root_->pages[page];
    if (bytes.empty()) {
      bytes.resize(kPageSize, 0);
    }
    bytes[a % kPageSize] = data[i];
  }
}

GuestMemory GuestMemory::ShareImage() const {
  GuestMemory share;
  share.root_ = root_;
  share.root_shared_ = true;
  return share;
}

MemByte GuestMemory::Resolve(uint32_t addr, bool* walked_chain) const {
  *walked_chain = false;
  auto it = delta_.find(addr);
  if (it != delta_.end()) {
    return it->second;
  }
  for (const Node* node = parent_.get(); node != nullptr; node = node->parent.get()) {
    *walked_chain = true;
    auto nit = node->writes.find(addr);
    if (nit != node->writes.end()) {
      return nit->second;
    }
  }
  auto pit = root_->pages.find(addr / kPageSize);
  if (pit != root_->pages.end()) {
    return MemByte::Concrete(pit->second[addr % kPageSize]);
  }
  return MemByte::Concrete(0);
}

MemByte GuestMemory::ReadByte(uint32_t addr) {
  ++access_count_;
  if (stats_ != nullptr) {
    ++stats_->reads;
  }
  // Leaf read cache: avoids re-walking deep chains for hot addresses.
  auto cit = read_cache_.find(addr);
  if (cit != read_cache_.end()) {
    if (stats_ != nullptr) {
      ++stats_->cache_hits;
    }
    return cit->second;
  }
  bool walked = false;
  MemByte byte = Resolve(addr, &walked);
  if (walked) {
    if (stats_ != nullptr) {
      ++stats_->chain_walks;
    }
    read_cache_.emplace(addr, byte);
  }
  return byte;
}

void GuestMemory::WriteByte(uint32_t addr, MemByte byte) {
  ++access_count_;
  if (stats_ != nullptr) {
    ++stats_->writes;
  }
  delta_[addr] = byte;
  // The leaf cache must not shadow newer writes.
  auto cit = read_cache_.find(addr);
  if (cit != read_cache_.end()) {
    cit->second = byte;
  }
}

void GuestMemory::WriteConcrete(uint32_t addr, const uint8_t* data, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    WriteByte(addr + static_cast<uint32_t>(i), MemByte::Concrete(data[i]));
  }
}

bool GuestMemory::TryReadConcrete(uint32_t addr, uint8_t* out, size_t len) {
  for (size_t i = 0; i < len; ++i) {
    MemByte byte = ReadByte(addr + static_cast<uint32_t>(i));
    if (byte.IsSymbolic()) {
      return false;
    }
    out[i] = byte.conc;
  }
  return true;
}

std::unordered_map<uint32_t, MemByte> GuestMemory::MergedWrites() const {
  // Walk root-most first so newer layers overwrite older ones.
  std::vector<const Node*> chain;
  for (const Node* node = parent_.get(); node != nullptr; node = node->parent.get()) {
    chain.push_back(node);
  }
  std::unordered_map<uint32_t, MemByte> merged;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const auto& [addr, byte] : (*it)->writes) {
      merged[addr] = byte;
    }
  }
  for (const auto& [addr, byte] : delta_) {
    merged[addr] = byte;
  }
  return merged;
}

GuestMemory GuestMemory::Fork() {
  if (stats_ != nullptr) {
    ++stats_->forks;
  }
  root_shared_ = true;

  GuestMemory child;
  child.root_ = root_;
  child.stats_ = stats_;
  child.access_count_ = access_count_;
  child.eager_fork_ = eager_fork_;
  child.root_shared_ = true;

  if (eager_fork_) {
    // Ablation mode: the child receives a full deep copy of the merged
    // write set; no chain sharing.
    child.delta_ = MergedWrites();
    if (stats_ != nullptr) {
      stats_->bytes_copied += child.delta_.size();
    }
    return child;
  }

  // Chained COW: freeze the current delta (if any) onto the chain.
  if (!delta_.empty()) {
    auto frozen = std::make_shared<Node>();
    frozen->writes = std::move(delta_);
    frozen->parent = parent_;
    parent_ = frozen;
    delta_.clear();
  }
  child.parent_ = parent_;
  child.read_cache_ = read_cache_;  // still valid: chain below is immutable
  CompactIfDeep();
  child.CompactIfDeep();
  return child;
}

size_t GuestMemory::ChainDepth() const {
  size_t depth = 0;
  for (const Node* node = parent_.get(); node != nullptr; node = node->parent.get()) {
    ++depth;
  }
  return depth;
}

void GuestMemory::CompactIfDeep() {
  if (ChainDepth() < kCompactionDepth) {
    return;
  }
  // Flatten the chain into a single frozen node. This bounds read cost on
  // long-lived states without giving up sharing for recent forks.
  auto flat = std::make_shared<Node>();
  std::vector<const Node*> chain;
  for (const Node* node = parent_.get(); node != nullptr; node = node->parent.get()) {
    chain.push_back(node);
  }
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    for (const auto& [addr, byte] : (*it)->writes) {
      flat->writes[addr] = byte;
    }
  }
  if (stats_ != nullptr) {
    stats_->bytes_copied += flat->writes.size();
    ++stats_->compactions;
  }
  parent_ = flat;
}

}  // namespace ddt
