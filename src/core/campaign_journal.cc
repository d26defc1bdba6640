#include "src/core/campaign_journal.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "src/core/bug_io.h"
#include "src/obs/trace_events.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace {

// ---------------------------------------------------------------------------
// Record encoding (src/support/record.h's ByteWriter/ByteReader)
// ---------------------------------------------------------------------------

// Header: [str format name][u32 version][str driver][u64 fingerprint].
constexpr std::string_view kFormatName = "ddt-campaign-journal";
constexpr uint32_t kFormatVersion = 3;
// v2 journals open with a flat-JSON header; this prefix is all this build
// reads of one, to refuse it by version.
constexpr std::string_view kV2Header = R"({"format":"ddt-campaign-journal","v":2,)";

// Counters travel keyed by metric name: [u32 n][n x (str name, u64 value)].
// A row the record lacks reads 0; a name this build lacks is skipped.
template <typename Stats, size_t N>
void EncodeCounters(const obs::CounterRow<Stats> (&rows)[N], const Stats& stats, ByteWriter* w) {
  w->U32(N);
  for (const auto& row : rows) {
    w->Str(row.metric);
    w->U64(stats.*row.field);
  }
}

template <typename Stats, size_t N>
void DecodeCounters(const obs::CounterRow<Stats> (&rows)[N], ByteReader* r, Stats* stats) {
  for (uint32_t n = r->Count(12); n > 0; --n) {  // a name's length and a value
    std::string name = r->Str();
    uint64_t value = r->U64();
    for (const auto& row : rows) {
      if (name == row.metric) {
        stats->*row.field = value;
      }
    }
  }
}

// Fork-site table: [u32 n][n x (u32 pc, str label, u64 created, dropped,
// evicted, sat calls, merged, kills)], in key order; Decode refuses keys out
// of order or repeated.
void EncodeForkSites(const ForkSiteTable& table, ByteWriter* w) {
  w->U32(static_cast<uint32_t>(table.size()));
  for (const auto& [key, s] : table) {
    w->U32(key.first);
    w->Str(key.second);
    for (uint64_t v : {s.states_created, s.dropped_forks, s.states_evicted, s.sat_calls,
                       s.states_merged, s.kills}) {
      w->U64(v);
    }
  }
}

bool DecodeForkSites(ByteReader* r, ForkSiteTable* table) {
  for (uint32_t n = r->Count(56); n > 0; --n) {  // a row's fixed-size part
    ForkSiteKey key;
    key.first = r->U32();
    key.second = r->Str();
    ForkSiteStats s;
    for (uint64_t* v : {&s.states_created, &s.dropped_forks, &s.states_evicted, &s.sat_calls,
                        &s.states_merged, &s.kills}) {
      *v = r->U64();
    }
    if (!r->ok() || (!table->empty() && !(table->rbegin()->first < key))) {
      return false;
    }
    table->emplace_hint(table->end(), std::move(key), s);
  }
  return r->ok();
}

}  // namespace

// Pass record: [u64 index][plan][u32 retries][u8 quarantined][str failure]
// [u8 has profile][if 1: the fault-site profile's u32 per class, then the
// hardware profile's five u32 extents][engine counters][solver counters]
// [u32 n][n x u64 per-rule kills][fork sites][f64 engine wall ms]
// [f64 slowest query ms][str bug_io report].
std::string EncodeCampaignPassRecord(const CampaignPassRecord& rec) {
  ByteWriter w;
  w.U64(rec.index);
  EncodeFaultPlan(rec.plan, &w);
  w.U32(rec.retries);
  w.U8(rec.quarantined ? 1 : 0);
  w.Str(rec.failure);
  w.U8(rec.has_profile ? 1 : 0);
  if (rec.has_profile) {
    for (uint32_t v : rec.profile.max_occurrences) {
      w.U32(v);
    }
    const HwSiteProfile& hw = rec.hw_profile;
    for (uint32_t v : {hw.max_mmio_accesses, hw.max_mmio_reads, hw.max_mmio_writes,
                       hw.max_crossings, hw.max_interrupts}) {
      w.U32(v);
    }
  }
  const EngineStats& e = rec.stats;
  EncodeCounters(kEngineCounters, e, &w);
  EncodeCounters(kSolverCounters, rec.solver_stats, &w);
  w.U32(static_cast<uint32_t>(e.edge_rule_kills.size()));
  for (uint64_t kills : e.edge_rule_kills) {
    w.U64(kills);
  }
  EncodeForkSites(e.fork_sites, &w);
  w.F64(e.wall_ms);
  w.F64(rec.solver_stats.max_query_wall_ms);
  w.Str(SerializeBugs(rec.bugs));
  return w.Take();
}

bool DecodeCampaignPassRecord(std::string_view payload, CampaignPassRecord* rec) {
  ByteReader r(payload);
  rec->index = r.U64();
  if (!DecodeFaultPlan(&r, &rec->plan)) {
    return false;
  }
  rec->retries = r.U32();
  uint8_t quarantined = r.U8();
  rec->failure = r.Str();
  uint8_t has_profile = r.U8();
  if (quarantined > 1 || has_profile > 1) {
    return false;
  }
  rec->quarantined = quarantined == 1;
  rec->has_profile = has_profile == 1;
  if (rec->has_profile) {
    for (uint32_t& v : rec->profile.max_occurrences) {
      v = r.U32();
    }
    HwSiteProfile& hw = rec->hw_profile;
    for (uint32_t* v : {&hw.max_mmio_accesses, &hw.max_mmio_reads, &hw.max_mmio_writes,
                        &hw.max_crossings, &hw.max_interrupts}) {
      *v = r.U32();
    }
  }
  EngineStats& e = rec->stats;
  DecodeCounters(kEngineCounters, &r, &e);
  DecodeCounters(kSolverCounters, &r, &rec->solver_stats);
  e.edge_rule_kills.resize(r.Count(8));
  for (uint64_t& kills : e.edge_rule_kills) {
    kills = r.U64();
  }
  if (!DecodeForkSites(&r, &e.fork_sites)) {
    return false;
  }
  e.wall_ms = r.F64();
  rec->solver_stats.max_query_wall_ms = r.F64();
  std::string bugs_text = r.Str();
  if (!r.Done()) {
    return false;
  }
  Result<std::vector<Bug>> bugs = DeserializeBugs(bugs_text);
  if (!bugs.ok()) {
    return false;
  }
  rec->bugs = bugs.take();
  return true;
}

namespace {

std::string EncodeHeader(const std::string& driver, uint64_t fingerprint) {
  ByteWriter w;
  w.Str(kFormatName);
  w.U32(kFormatVersion);
  w.Str(driver);
  w.U64(fingerprint);
  return w.Take();
}

// Validates a journal's header record against (driver, fingerprint). On
// success leaves `*pos` just past it.
Status ValidateHeader(std::string_view bytes, const std::string& path, const std::string& driver,
                      uint64_t fingerprint, size_t* pos) {
  if (bytes.empty()) {
    return Status::Error(StrFormat("cannot resume: journal '%s' is empty", path.c_str()));
  }
  Status not_journal =
      Status::Error(StrFormat("'%s' is not a DDT campaign journal", path.c_str()));
  std::string_view payload;
  if (ReadRecord(bytes, pos, &payload) != RecordRead::kRecord) {
    return not_journal;
  }
  ByteReader r(payload);
  std::string format = r.Str();
  uint32_t version = r.U32();
  if (payload.starts_with(kV2Header)) {
    version = 2;
  } else if (!r.ok() || format != kFormatName) {
    return not_journal;
  }
  if (version != kFormatVersion) {
    return Status::Error(
        StrFormat("journal '%s' has unsupported version %u", path.c_str(), version));
  }
  std::string journal_driver = r.Str();
  uint64_t journal_fp = r.U64();
  if (!r.Done()) {
    return not_journal;
  }
  if (journal_driver != driver) {
    return Status::Error(StrFormat("journal '%s' belongs to driver '%s', not '%s'", path.c_str(),
                                   journal_driver.c_str(), driver.c_str()));
  }
  if (journal_fp != fingerprint) {
    return Status::Error(StrFormat(
        "journal '%s' was written by a campaign with a different configuration or driver image "
        "(fingerprint %016llX, expected %016llX)",
        path.c_str(), static_cast<unsigned long long>(journal_fp),
        static_cast<unsigned long long>(fingerprint)));
  }
  return Status::Ok();
}

// Reads the valid record prefix from `pos` on: every intact record extends
// it; the first torn, corrupt, or undecodable record ends it — a crash
// mid-append is expected, not fatal. Returns the byte offset just past the
// last valid record.
size_t ReadValidRecords(std::string_view bytes, size_t pos,
                        std::vector<CampaignPassRecord>* records) {
  for (;;) {
    size_t next = pos;
    std::string_view payload;
    CampaignPassRecord rec;
    if (ReadRecord(bytes, &next, &payload) != RecordRead::kRecord ||
        !DecodeCampaignPassRecord(payload, &rec)) {
      return pos;
    }
    records->push_back(std::move(rec));
    pos = next;
  }
}

}  // namespace

Result<std::vector<CampaignPassRecord>> LoadCampaignJournalRecords(const std::string& path,
                                                                   const std::string& driver,
                                                                   uint64_t fingerprint) {
  std::vector<CampaignPassRecord> records;
  Result<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) {
    return records;  // no shard journal yet — the worker died before pass 1
  }
  size_t pos = 0;
  Status st = ValidateHeader(bytes.value(), path, driver, fingerprint, &pos);
  if (!st.ok()) {
    return st;
  }
  ReadValidRecords(bytes.value(), pos, &records);
  return records;
}

CampaignJournal::CampaignJournal(std::FILE* file, std::string path)
    : file_(file), path_(std::move(path)) {}

CampaignJournal::~CampaignJournal() {
  if (file_ != nullptr) {
    std::fclose(file_);
  }
}

Result<std::unique_ptr<CampaignJournal>> CampaignJournal::Create(const std::string& path,
                                                                 const std::string& driver,
                                                                 uint64_t fingerprint) {
  std::string header;
  Status framed = AppendRecord(&header, EncodeHeader(driver, fingerprint));
  if (!framed.ok()) {
    return Status::Error(StrFormat("cannot write campaign journal '%s': %s", path.c_str(),
                                   framed.message().c_str()));
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Error(
        StrFormat("cannot open campaign journal '%s' for writing: %s", path.c_str(),
                  std::strerror(errno)));
  }
  if (std::fwrite(header.data(), 1, header.size(), file) != header.size() ||
      std::fflush(file) != 0) {
    std::fclose(file);
    return Status::Error(StrFormat("cannot write campaign journal '%s'", path.c_str()));
  }
  return std::unique_ptr<CampaignJournal>(new CampaignJournal(file, path));
}

Result<std::unique_ptr<CampaignJournal>> CampaignJournal::OpenForResume(
    const std::string& path, const std::string& driver, uint64_t fingerprint,
    std::vector<CampaignPassRecord>* records) {
  Result<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) {
    return Status::Error(StrFormat(
        "cannot resume: campaign journal '%s' does not exist or is unreadable", path.c_str()));
  }
  size_t pos = 0;
  Status st = ValidateHeader(bytes.value(), path, driver, fingerprint, &pos);
  if (!st.ok()) {
    return st;
  }
  records->clear();
  size_t valid_end = ReadValidRecords(bytes.value(), pos, records);

  // Truncate the invalid tail so appended records follow the valid prefix.
  if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
    return Status::Error(StrFormat("cannot truncate campaign journal '%s': %s", path.c_str(),
                                   std::strerror(errno)));
  }
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Error(
        StrFormat("cannot open campaign journal '%s' for append: %s", path.c_str(),
                  std::strerror(errno)));
  }
  return std::unique_ptr<CampaignJournal>(new CampaignJournal(file, path));
}

void CampaignJournal::SetMetrics(obs::MetricsRegistry* metrics) {
#ifndef DDT_OBS_DISABLED
  std::unique_lock<std::mutex> lock(mu_);
  if (metrics == nullptr) {
    append_ms_ = nullptr;
    appends_ = nullptr;
    return;
  }
  append_ms_ = metrics->histogram("journal.append_ms", obs::Histogram::LatencyBucketsMs());
  appends_ = metrics->counter("journal.appends");
#endif
}

Status CampaignJournal::Append(const CampaignPassRecord& record) {
  obs::ScopedSpan obs_span("journal.append");
  std::string frame;
  Status framed = AppendRecord(&frame, EncodeCampaignPassRecord(record));
  if (!framed.ok()) {
    return Status::Error(StrFormat("cannot append to campaign journal '%s': %s", path_.c_str(),
                                   framed.message().c_str()));
  }
  std::unique_lock<std::mutex> lock(mu_);
  std::chrono::steady_clock::time_point start;
  if (append_ms_ != nullptr) {
    start = std::chrono::steady_clock::now();
  }
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size() ||
      std::fflush(file_) != 0) {
    return Status::Error(StrFormat("cannot append to campaign journal '%s'", path_.c_str()));
  }
  if (append_ms_ != nullptr) {
    append_ms_->Observe(std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count());
    appends_->Add(1);
  }
  return Status::Ok();
}

}  // namespace ddt
