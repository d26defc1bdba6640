#include "src/fuzz/corpus.h"

#include <utility>

#include "src/core/bug_io.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace fuzz {

namespace {

// Header record: [str tag][u32 version][u64 fingerprint][u32 batches done]
// [u64 execs][u64 quarantined][u32 n][n x u64 mutations][str bug_io report]
// [u32 n][n x str bug origin]. Entry record: [u64 novel blocks][u32 batch]
// [coverage words (CoverageBitmap::Encode)][str EncodeFuzzInput bytes].
constexpr std::string_view kTag = "ddt-fuzz-corpus";
constexpr uint32_t kFormatVersion = 3;

std::string EncodeEntry(const CorpusEntry& entry) {
  ByteWriter w;
  w.U64(entry.novel_blocks);
  w.U32(entry.batch);
  entry.coverage.Encode(&w);
  w.Str(EncodeFuzzInput(entry.input));
  return w.Take();
}

bool DecodeEntry(std::string_view payload, CorpusEntry* entry) {
  ByteReader r(payload);
  uint64_t novel = r.U64();
  entry->batch = r.U32();
  if (!CoverageBitmap::Decode(&r, &entry->coverage) ||
      !DecodeFuzzInput(r.Str(), &entry->input) || !r.Done()) {
    return false;
  }
  entry->coverage_fingerprint = entry->coverage.Fingerprint();
  entry->novel_blocks = static_cast<size_t>(novel);
  return true;
}

}  // namespace

int FuzzCorpus::Offer(const FuzzInput& input, const CoverageBitmap& coverage, uint32_t batch,
                      size_t max_entries) {
  if (entries_.size() >= max_entries) {
    return -1;
  }
  size_t novel = cumulative_.NewlyCovered(coverage);
  if (novel == 0) {
    return -1;
  }
  cumulative_.OrWith(coverage);
  CorpusEntry entry;
  entry.input = input;
  entry.coverage = coverage;
  entry.coverage_fingerprint = coverage.Fingerprint();
  entry.novel_blocks = novel;
  entry.batch = batch;
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size() - 1);
}

Status FuzzCorpus::SaveToFile(const std::string& path, uint64_t fingerprint,
                              const FuzzLoopState& loop) const {
  ByteWriter header;
  header.Str(kTag);
  header.U32(kFormatVersion);
  header.U64(fingerprint);
  header.U32(batches_done_);
  header.U64(loop.execs);
  header.U64(loop.quarantined_execs);
  header.U32(static_cast<uint32_t>(loop.mutations.size()));
  for (uint64_t count : loop.mutations) {
    header.U64(count);
  }
  header.Str(SerializeBugs(loop.bugs));
  header.U32(static_cast<uint32_t>(loop.bug_origins.size()));
  for (const std::string& origin : loop.bug_origins) {
    header.Str(origin);
  }
  std::string out;
  Status written = AppendRecord(&out, header.bytes());
  for (size_t i = 0; written.ok() && i < entries_.size(); ++i) {
    written = AppendRecord(&out, EncodeEntry(entries_[i]));
  }
  if (written.ok()) {
    written = WriteFileAtomic(path, out);
  }
  return written.ok() ? written : Status::Error("fuzz corpus: " + written.message());
}

Status FuzzCorpus::LoadFromFile(const std::string& path, uint64_t fingerprint,
                                size_t* load_errors, FuzzLoopState* loop) {
  if (load_errors != nullptr) {
    *load_errors = 0;
  }
  Result<std::string> file = ReadWholeFile(path);
  if (!file.ok()) {
    return Status::Error("fuzz corpus: " + file.error());
  }
  std::string_view bytes = file.value();
  size_t pos = 0;
  std::string_view payload;
  if (ReadRecord(bytes, &pos, &payload) != RecordRead::kRecord) {
    return Status::Error("fuzz corpus: bad header: " + path);
  }
  ByteReader header(payload);
  if (header.Str() != kTag) {
    return Status::Error("fuzz corpus: bad header: " + path);
  }
  uint32_t version = header.U32();
  if (version != kFormatVersion) {
    return Status::Error(StrFormat("fuzz corpus: unsupported version %u: %s", version,
                                   path.c_str()));
  }
  if (header.U64() != fingerprint) {
    return Status::Error("fuzz corpus: fingerprint mismatch (different driver or fuzz seed): " +
                         path);
  }
  uint32_t batches = header.U32();
  FuzzLoopState state;
  state.execs = header.U64();
  state.quarantined_execs = header.U64();
  bool shape_ok = header.Count(8) == state.mutations.size();
  for (uint64_t& count : state.mutations) {
    count = header.U64();
  }
  Result<std::vector<Bug>> bugs = DeserializeBugs(header.Str());
  uint32_t origins = header.Count(4);
  for (uint32_t i = 0; i < origins; ++i) {
    state.bug_origins.push_back(header.Str());
  }
  if (!shape_ok || !header.Done() || !bugs.ok() || bugs.value().size() != origins) {
    return Status::Error("fuzz corpus: bad header: " + path);
  }
  state.bugs = bugs.take();

  entries_.clear();
  cumulative_ = CoverageBitmap();
  batches_done_ = batches;
  *loop = std::move(state);

  // Entries up to the first damaged record; the tail after that is dropped.
  while (pos < bytes.size()) {
    CorpusEntry entry;
    if (ReadRecord(bytes, &pos, &payload) != RecordRead::kRecord ||
        !DecodeEntry(payload, &entry)) {
      if (load_errors != nullptr) {
        ++*load_errors;
      }
      break;
    }
    cumulative_.OrWith(entry.coverage);
    entries_.push_back(std::move(entry));
  }
  return Status::Ok();
}

}  // namespace fuzz
}  // namespace ddt
