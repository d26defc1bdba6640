#include "src/solver/shared_cache.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <string_view>
#include <unordered_set>

#include "src/support/log.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {

namespace {

// Single-writer election for cache persistence. Every saver to `path` shares
// the same tmp file, so two unserialised processes (concurrent campaigns, or
// a fleet coordinator racing an independent run) can rename each other's
// half-written bytes into place. A blocking exclusive flock on a sidecar
// `<path>.lock` file elects one writer at a time: each elected writer
// publishes a complete file via tmp+rename, and the last one wins whole.
// flock (not fcntl/POSIX locks) so a same-process second saver blocks too
// instead of silently sharing the lock.
class FileLock {
 public:
  explicit FileLock(const std::string& path) {
    fd_ = ::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644);
    if (fd_ < 0) {
      return;
    }
    int rc;
    do {
      rc = ::flock(fd_, LOCK_EX);
    } while (rc != 0 && errno == EINTR);
    if (rc != 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }
  ~FileLock() {
    if (fd_ >= 0) {
      ::close(fd_);  // releases the flock
    }
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  bool held() const { return fd_ >= 0; }

 private:
  int fd_ = -1;
};

uint64_t Fnv1a64(const std::string& data) {
  uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : data) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

// File layout (src/support/record.h framing): a header record
// [str "DDTSQC"][u32 version][u64 entry count], then one record per entry
// [u8 sat][str canonical text][u32 n][n x (u32 canonical var, u64 value)].
constexpr std::string_view kMagic = "DDTSQC";
constexpr size_t kModelPairBytes = 12;

uint64_t EntryFootprint(const std::string& text, size_t model_size) {
  // Approximate heap footprint: the key text, the model pairs, and fixed
  // per-entry bookkeeping (chain slot, map node amortization).
  return text.size() + model_size * (sizeof(uint32_t) + sizeof(uint64_t)) + 64;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryCanonicalizer
// ---------------------------------------------------------------------------

const QueryCanonicalizer::RootTemplate& QueryCanonicalizer::TemplateFor(ExprRef root) {
  auto it = templates_.find(root);
  if (it != templates_.end()) {
    return it->second;
  }
  RootTemplate tmpl;
  // DAG-aware bottom-up serialization with per-root node numbering (like the
  // SMT-LIB emitter's define-fun sharing): each distinct node appears once as
  // a `t<n>=` line, and the last line is the root. Node numbers restart at
  // every root, so the template depends only on the root's structure.
  std::unordered_map<ExprRef, uint32_t> node_ids;
  std::unordered_map<uint32_t, uint32_t> var_index;  // local var id -> @k
  // Explicit stack: guest-built expressions (long add/mul chains from loops)
  // can be deep enough to worry plain recursion.
  struct Frame {
    ExprRef e;
    int next_op = 0;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root});
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (node_ids.count(f.e) != 0) {
      stack.pop_back();
      continue;
    }
    if (f.next_op < f.e->num_ops()) {
      ExprRef child = f.e->op(f.next_op);
      ++f.next_op;
      if (node_ids.count(child) == 0) {
        stack.push_back(Frame{child});
      }
      continue;
    }
    uint32_t id = static_cast<uint32_t>(node_ids.size());
    node_ids.emplace(f.e, id);
    tmpl.text += StrFormat("t%u=", id);
    switch (f.e->kind()) {
      case ExprKind::kConst:
        tmpl.text += StrFormat("c%u:%llx", f.e->width(),
                               static_cast<unsigned long long>(f.e->const_value()));
        break;
      case ExprKind::kVar: {
        uint32_t local = f.e->var_id();
        auto [vit, inserted] = var_index.emplace(local, static_cast<uint32_t>(tmpl.vars.size()));
        if (inserted) {
          tmpl.vars.push_back(local);
        }
        tmpl.text += StrFormat("@%u:%u", vit->second, f.e->width());
        break;
      }
      case ExprKind::kExtract:
        tmpl.text += StrFormat("Extract%u[%u](t%u)", f.e->width(), f.e->extract_low(),
                               node_ids.at(f.e->op(0)));
        break;
      default: {
        tmpl.text += StrFormat("%s%u(", ExprKindName(f.e->kind()), f.e->width());
        for (int i = 0; i < f.e->num_ops(); ++i) {
          tmpl.text += StrFormat("%st%u", i == 0 ? "" : ",", node_ids.at(f.e->op(i)));
        }
        tmpl.text += ")";
        break;
      }
    }
    tmpl.text += "\n";
    stack.pop_back();
  }
  return templates_.emplace(root, std::move(tmpl)).first->second;
}

CanonicalQuery QueryCanonicalizer::Canonicalize(const std::vector<ExprRef>& exprs) {
  CanonicalQuery q;
  std::unordered_map<uint32_t, uint32_t> canon;  // local var id -> canonical id
  std::unordered_set<ExprRef> seen;
  for (ExprRef e : exprs) {
    if (!seen.insert(e).second) {
      continue;
    }
    const RootTemplate& tmpl = TemplateFor(e);
    q.text += "#\n";  // constraint separator (keeps per-root t-numbering unambiguous)
    // Splice the template in, rewriting each `@k` placeholder to the global
    // canonical variable id, assigned in first-visit order over the list.
    const std::string& t = tmpl.text;
    for (size_t i = 0; i < t.size(); ++i) {
      if (t[i] != '@') {
        q.text.push_back(t[i]);
        continue;
      }
      size_t j = i + 1;
      uint32_t k = 0;
      while (j < t.size() && t[j] >= '0' && t[j] <= '9') {
        k = k * 10 + static_cast<uint32_t>(t[j] - '0');
        ++j;
      }
      uint32_t local = tmpl.vars[k];
      auto [vit, inserted] = canon.emplace(local, static_cast<uint32_t>(q.local_vars.size()));
      if (inserted) {
        q.local_vars.push_back(local);
      }
      q.text += StrFormat("v%u", vit->second);
      i = j - 1;  // loop ++ lands on the ':' after the placeholder index
    }
  }
  q.fingerprint = Fnv1a64(q.text);
  return q;
}

// ---------------------------------------------------------------------------
// SharedQueryCache
// ---------------------------------------------------------------------------

SharedQueryCache::SharedQueryCache(const SharedCacheConfig& config) : config_(config) {
  if (config_.num_shards == 0) {
    config_.num_shards = 1;
  }
  shards_.reserve(config_.num_shards);
  for (size_t i = 0; i < config_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

SharedQueryCache::LookupResult SharedQueryCache::Lookup(const CanonicalQuery& query) {
  Shard& shard = ShardFor(query.fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(query.fingerprint);
  LookupResult r;
  if (it == shard.map.end()) {
    return r;
  }
  for (Entry& e : it->second) {
    if (e.text == query.text) {
      e.last_used = ++shard.tick;
      r.hit = true;
      r.sat = e.sat;
      r.model = e.model;
      return r;
    }
  }
  return r;
}

void SharedQueryCache::Store(const CanonicalQuery& query, bool sat, CanonicalModel model) {
  if (!sat) {
    model.clear();
  }
  std::sort(model.begin(), model.end());
  Shard& shard = ShardFor(query.fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  std::vector<Entry>& chain = shard.map[query.fingerprint];
  for (Entry& e : chain) {
    if (e.text == query.text) {
      shard.bytes -= e.bytes;
      e.sat = sat;
      e.model = std::move(model);
      e.bytes = EntryFootprint(e.text, e.model.size());
      e.last_used = ++shard.tick;
      shard.bytes += e.bytes;
      return;
    }
  }
  Entry e;
  e.text = query.text;
  e.sat = sat;
  e.model = std::move(model);
  e.last_used = ++shard.tick;
  e.bytes = EntryFootprint(e.text, e.model.size());
  shard.bytes += e.bytes;
  ++shard.entries;
  chain.push_back(std::move(e));
  EvictIfNeeded(shard);
}

void SharedQueryCache::EvictIfNeeded(Shard& shard) {
  uint64_t max_entries = std::max<uint64_t>(1, config_.max_entries / shards_.size());
  uint64_t max_bytes = std::max<uint64_t>(1024, config_.max_bytes / shards_.size());
  while (shard.entries > max_entries || shard.bytes > max_bytes) {
    // LRU-ish: linear scan for the stalest entry. Shards keep the scan short,
    // and eviction only runs when a bound is actually exceeded.
    auto victim_chain = shard.map.end();
    size_t victim_idx = 0;
    uint64_t oldest = UINT64_MAX;
    for (auto it = shard.map.begin(); it != shard.map.end(); ++it) {
      for (size_t i = 0; i < it->second.size(); ++i) {
        if (it->second[i].last_used < oldest) {
          oldest = it->second[i].last_used;
          victim_chain = it;
          victim_idx = i;
        }
      }
    }
    if (victim_chain == shard.map.end()) {
      return;
    }
    std::vector<Entry>& chain = victim_chain->second;
    shard.bytes -= chain[victim_idx].bytes;
    --shard.entries;
    ++shard.evictions;
    chain.erase(chain.begin() + static_cast<ptrdiff_t>(victim_idx));
    if (chain.empty()) {
      shard.map.erase(victim_chain);
    }
  }
}

SharedQueryCache::Stats SharedQueryCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    s.entries += shard->entries;
    s.bytes += shard->bytes;
    s.evictions += shard->evictions;
  }
  std::lock_guard<std::mutex> lock(io_stats_mu_);
  s.load_errors = load_errors_;
  s.loaded_entries = loaded_entries_;
  s.saved_entries = saved_entries_;
  return s;
}

Status SharedQueryCache::SaveToFile(const std::string& path) const {
  // Snapshot under the shard locks, serialize and write outside them.
  std::vector<std::pair<std::string, std::pair<bool, CanonicalModel>>> snapshot;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    for (const auto& [fp, chain] : shard->map) {
      (void)fp;
      for (const Entry& e : chain) {
        snapshot.emplace_back(e.text, std::make_pair(e.sat, e.model));
      }
    }
  }
  // Stable file contents regardless of shard iteration order: sort by key.
  std::sort(snapshot.begin(), snapshot.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  std::string file;
  ByteWriter header;
  header.Str(kMagic);
  header.U32(kFormatVersion);
  header.U64(snapshot.size());
  Status framed = AppendRecord(&file, header.bytes());
  for (size_t i = 0; framed.ok() && i < snapshot.size(); ++i) {
    const auto& [text, verdict] = snapshot[i];
    ByteWriter entry;
    entry.U8(verdict.first ? 1 : 0);
    entry.Str(text);
    entry.U32(static_cast<uint32_t>(verdict.second.size()));
    for (const auto& [id, value] : verdict.second) {
      entry.U32(id);
      entry.U64(value);
    }
    framed = AppendRecord(&file, entry.bytes());
  }
  if (!framed.ok()) {
    return Status::Error(StrFormat("shared cache: cannot save '%s': %s", path.c_str(),
                                   framed.message().c_str()));
  }

  FileLock writer_lock(path + ".lock");
  if (!writer_lock.held()) {
    return Status::Error(
        StrFormat("shared cache: cannot lock '%s.lock' for writing", path.c_str()));
  }
  Status written = WriteFileAtomic(path, file);
  if (!written.ok()) {
    return Status::Error("shared cache: " + written.message());
  }
  std::lock_guard<std::mutex> lock(io_stats_mu_);
  saved_entries_ = snapshot.size();
  return Status::Ok();
}

size_t SharedQueryCache::LoadFromFile(const std::string& path) {
  Result<std::string> file = ReadWholeFile(path);
  if (!file.ok()) {
    return 0;  // no warm-start file yet: the normal cold case, not an error
  }

  auto reject = [this, &path](const char* why) -> size_t {
    DDT_LOG_WARN("shared cache: ignoring '%s': %s", path.c_str(), why);
    std::lock_guard<std::mutex> lock(io_stats_mu_);
    ++load_errors_;
    return 0;
  };

  std::string_view bytes = file.value();
  size_t pos = 0;
  std::string_view payload;
  if (ReadRecord(bytes, &pos, &payload) != RecordRead::kRecord) {
    return reject("truncated or corrupt header");
  }
  ByteReader header(payload);
  if (header.Str() != kMagic) {
    return reject("bad magic");
  }
  uint32_t version = header.U32();
  uint64_t count = header.U64();
  if (!header.Done()) {
    return reject("malformed header");
  }
  if (version != kFormatVersion) {
    return reject("format version mismatch");
  }
  // Parse everything before inserting anything: a damaged file loads nothing
  // rather than half.
  std::vector<std::pair<std::string, std::pair<bool, CanonicalModel>>> parsed;
  for (uint64_t i = 0; i < count; ++i) {
    if (ReadRecord(bytes, &pos, &payload) != RecordRead::kRecord) {
      return reject("truncated or corrupt entry");
    }
    ByteReader r(payload);
    bool sat = r.U8() != 0;
    std::string text = r.Str();
    uint32_t model_n = r.Count(kModelPairBytes);
    CanonicalModel model;
    model.reserve(model_n);
    for (uint32_t m = 0; m < model_n; ++m) {
      uint32_t id = r.U32();
      uint64_t value = r.U64();
      model.emplace_back(id, value);
    }
    if (!r.Done() || (!sat && model_n != 0)) {
      return reject("malformed entry");
    }
    parsed.emplace_back(std::move(text), std::make_pair(sat, std::move(model)));
  }
  if (pos != bytes.size()) {
    return reject("trailing bytes after the last entry");
  }
  for (auto& [text, verdict] : parsed) {
    CanonicalQuery q;
    q.fingerprint = Fnv1a64(text);
    q.text = std::move(text);
    Store(q, verdict.first, std::move(verdict.second));
  }
  std::lock_guard<std::mutex> lock(io_stats_mu_);
  loaded_entries_ += parsed.size();
  return parsed.size();
}

}  // namespace ddt
