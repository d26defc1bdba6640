// Fuzz corpus: coverage-novelty admission plus journal-style persistence.
//
// Admission is AFL-style: an executed input enters the corpus iff its block
// coverage sets at least one bit the cumulative corpus bitmap does not have
// yet, starting from an empty bitmap so the solver-derived seeds themselves
// are admitted first by the same rule. Admission order is the orchestrator's
// merge order (batch, then exec index), which makes the corpus — and its
// fingerprint — deterministic for a fixed fuzz seed at any thread or worker
// count.
//
// On disk the corpus uses the campaign journal's defensive format: CRC-framed
// records (src/support/record.h). The header record binds the file to
// (driver, fuzz seed) and carries the loop's resume state — the batch cursor
// plus the tallies and fuzz-only bugs of every completed batch — so a resumed
// loop reports exactly what an uninterrupted one would. One record per entry
// follows. A torn or corrupt tail drops only the damaged suffix; everything
// before it loads, and the next save rewrites the file whole. Each entry
// carries its coverage bitmap so the cumulative map — and therefore future
// admission decisions — rebuilds exactly on resume.
#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/engine/bug_report.h"
#include "src/fuzz/input.h"
#include "src/fuzz/mutator.h"
#include "src/support/status.h"
#include "src/vm/coverage_map.h"

namespace ddt {
namespace fuzz {

struct CorpusEntry {
  FuzzInput input;
  CoverageBitmap coverage;          // this input's own execution coverage
  uint64_t coverage_fingerprint = 0;
  size_t novel_blocks = 0;          // blocks new vs the cumulative map at admission
  uint32_t batch = 0;               // batch the entry was admitted in
};

// What the fuzz loop has tallied and found over batches_done() batches.
struct FuzzLoopState {
  uint64_t execs = 0;
  uint64_t quarantined_execs = 0;
  std::array<uint64_t, kNumMutatorKinds> mutations{};
  std::vector<Bug> bugs;                 // fuzz-only bugs, bug_io round-tripped
  std::vector<std::string> bug_origins;  // parallel to bugs
};

class FuzzCorpus {
 public:
  // Admits `input` iff `coverage` has >= 1 block the cumulative map lacks
  // (and the corpus is below max_entries). Returns the admitted entry index,
  // or -1 when rejected. ORs admitted coverage into the cumulative map.
  int Offer(const FuzzInput& input, const CoverageBitmap& coverage, uint32_t batch,
            size_t max_entries);

  const std::vector<CorpusEntry>& entries() const { return entries_; }
  const CoverageBitmap& cumulative() const { return cumulative_; }
  size_t size() const { return entries_.size(); }

  // Batches fully merged so far — the fuzz loop's resume cursor, persisted
  // in the file header.
  uint32_t batches_done() const { return batches_done_; }
  void set_batches_done(uint32_t n) { batches_done_ = n; }

  // Whole-file rewrite (save is the fuzz checkpoint, once per batch).
  // `fingerprint` binds the file to the driver + fuzz seed; `loop` is the
  // loop's state after batches_done() batches.
  Status SaveToFile(const std::string& path, uint64_t fingerprint,
                    const FuzzLoopState& loop) const;
  // Loads entries up to the first damaged record (torn tails are not fatal;
  // load_errors reports how many trailing records were dropped) and the loop
  // state into `*loop`. Fails, and changes nothing, on a missing/unreadable
  // file, a damaged header, another format version, or a fingerprint
  // mismatch.
  Status LoadFromFile(const std::string& path, uint64_t fingerprint, size_t* load_errors,
                      FuzzLoopState* loop);

 private:
  std::vector<CorpusEntry> entries_;
  CoverageBitmap cumulative_;
  uint32_t batches_done_ = 0;
};

}  // namespace fuzz
}  // namespace ddt

#endif  // SRC_FUZZ_CORPUS_H_
