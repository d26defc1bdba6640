// Campaign checkpoint journal (crash-safe resume for fault campaigns).
//
// A long fault campaign is the one place this reproduction runs for minutes
// at a stretch, and a campaign killed at pass 30 of 32 used to lose
// everything. The journal makes each completed pass durable: after a pass
// merges, a self-contained record — the plan, the per-pass engine/solver
// stats, the serialized bugs (src/core/bug_io.h), and for the baseline the
// fault-site profile every later plan derives from — is appended to an
// append-only file and flushed. Restarting the campaign with
// `resume = true` loads the completed passes from the journal, executes only
// the missing ones, and merges everything in plan order, so the deterministic
// report is byte-identical to an uninterrupted run.
//
// Format (version 3): a sequence of CRC-framed records (src/support/record.h)
// whose payloads are written with its ByteWriter. The first record is a
// header naming the format version, the driver, and a fingerprint of every
// plan-determining config knob plus the driver image bytes (so a journal
// cannot silently resume a *different* campaign; thread count and supervisor
// budgets are deliberately excluded — resuming with more workers or a longer
// watchdog is legitimate). Every later record is one pass's binary payload
// (EncodeCampaignPassRecord). A process killed mid-append leaves a torn or
// corrupt final record; resume discards the invalid tail (truncating the file
// back to the valid prefix) rather than failing, because losing one pass is
// recoverable and losing the journal is not. A journal of another format
// version, including the flat-JSON v2, is refused.
#ifndef SRC_CORE_CAMPAIGN_JOURNAL_H_
#define SRC_CORE_CAMPAIGN_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "src/engine/bug_report.h"
#include "src/engine/engine.h"
#include "src/engine/fault_injection.h"
#include "src/obs/metrics.h"
#include "src/solver/solver.h"
#include "src/support/status.h"

namespace ddt {

// One checkpointed campaign pass. `index` is the pass's position in the plan
// order (0 = baseline); records may be appended in completion order by
// parallel workers, so the index — not the record position — is the key.
struct CampaignPassRecord {
  uint64_t index = 0;
  FaultPlan plan;                  // empty for the baseline
  uint32_t retries = 0;            // supervisor retry attempts consumed
  bool quarantined = false;        // permanently failed; no stats/bugs
  std::string failure;             // failure reason (quarantined passes)
  EngineStats stats;
  SolverStats solver_stats;
  std::vector<Bug> bugs;  // replay-relevant fields only (bug_io round-trip)
  // Baseline only: the fault-site profile plan generation derives from, so a
  // resumed campaign reproduces the exact schedule without re-running pass 0.
  // hw_profile is the hardware-plane counterpart (MMIO/interrupt extents).
  bool has_profile = false;
  FaultSiteProfile profile;
  HwSiteProfile hw_profile;
};

// Binary payload codec for one pass record — the exact bytes the journal
// stores inside its record framing. Exposed because the fleet wire protocol
// (src/fleet) ships RESULT payloads in this encoding, so a record produced
// by a worker process, a record checkpointed to a shard journal, and a
// record in the coordinator's main journal are interchangeable byte-for-byte.
// Counters are keyed by their metric name (an absent one reads 0, an unknown
// one is skipped); Decode refuses out-of-range enums, flags other than 0/1,
// an unordered fork-site table, and trailing bytes.
std::string EncodeCampaignPassRecord(const CampaignPassRecord& record);
bool DecodeCampaignPassRecord(std::string_view payload, CampaignPassRecord* record);

// Read-only load of every intact record in a journal (valid prefix up to the
// first torn/corrupt record), without truncating or reopening the file. A
// missing file yields an empty list — the fleet coordinator salvages the
// shard journal of a worker that may have died before creating it. A header
// that exists but names a different campaign is an error.
Result<std::vector<CampaignPassRecord>> LoadCampaignJournalRecords(const std::string& path,
                                                                   const std::string& driver,
                                                                   uint64_t fingerprint);

class CampaignJournal {
 public:
  ~CampaignJournal();
  CampaignJournal(const CampaignJournal&) = delete;
  CampaignJournal& operator=(const CampaignJournal&) = delete;

  // Starts a fresh journal at `path`, truncating any existing file, and
  // writes the header. Fails if the path is not writable.
  static Result<std::unique_ptr<CampaignJournal>> Create(const std::string& path,
                                                         const std::string& driver,
                                                         uint64_t fingerprint);

  // Opens an existing journal for resume: validates the header against
  // (driver, fingerprint), loads every intact record into `records` (in file
  // order; callers key by CampaignPassRecord::index), truncates the file back
  // to the valid prefix — discarding a torn or corrupt tail — and reopens for
  // append. Fails if the file is missing, is not a campaign journal, or
  // belongs to a different campaign.
  static Result<std::unique_ptr<CampaignJournal>> OpenForResume(
      const std::string& path, const std::string& driver, uint64_t fingerprint,
      std::vector<CampaignPassRecord>* records);

  // Appends one record and flushes it to the OS before returning. Thread-safe
  // (parallel workers checkpoint passes in completion order).
  Status Append(const CampaignPassRecord& record);

  const std::string& path() const { return path_; }

  // Optional metrics sink (non-owning, null = off): Append publishes its
  // write+flush latency as the `journal.append_ms` histogram and counts
  // records in `journal.appends`. Call before the first Append.
  void SetMetrics(obs::MetricsRegistry* metrics);

 private:
  CampaignJournal(std::FILE* file, std::string path);

  std::mutex mu_;
  std::FILE* file_;  // owned; append mode
  std::string path_;
  obs::Histogram* append_ms_ = nullptr;  // null when metrics are off
  obs::Counter* appends_ = nullptr;
};

}  // namespace ddt

#endif  // SRC_CORE_CAMPAIGN_JOURNAL_H_
