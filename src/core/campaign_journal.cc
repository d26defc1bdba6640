#include "src/core/campaign_journal.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string_view>
#include <utility>

#include "src/core/bug_io.h"
#include "src/obs/trace_events.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace {

// ---------------------------------------------------------------------------
// Flat JSON: one object, string keys, values that are strings or numbers.
// This is the whole grammar the journal needs; writer and parser live side by
// side so they cannot drift.
// ---------------------------------------------------------------------------

void AppendJsonString(std::string* out, std::string_view text) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += StrFormat("\\u%04X", c);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

class JsonWriter {
 public:
  JsonWriter() : out_("{") {}

  void Str(const char* key, std::string_view value) {
    Key(key);
    AppendJsonString(&out_, value);
  }
  void U64(const char* key, uint64_t value) {
    Key(key);
    out_ += StrFormat("%llu", static_cast<unsigned long long>(value));
  }
  // %.17g round-trips every double exactly through strtod.
  void Dbl(const char* key, double value) {
    Key(key);
    out_ += StrFormat("%.17g", value);
  }

  std::string Finish() { return out_ + "}"; }

 private:
  void Key(const char* key) {
    if (out_.size() > 1) {
      out_.push_back(',');
    }
    AppendJsonString(&out_, key);
    out_.push_back(':');
  }
  std::string out_;
};

// Parses one flat object into key -> decoded value. Strings are unescaped;
// numbers kept as their raw token (callers strtoull/strtod them). Returns
// false on any malformed input — the caller treats the record as a torn tail.
bool ParseFlatJson(std::string_view text, std::map<std::string, std::string>* out) {
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < text.size() && (text[pos] == ' ' || text[pos] == '\t')) {
      ++pos;
    }
  };
  auto parse_string = [&](std::string* value) -> bool {
    if (pos >= text.size() || text[pos] != '"') {
      return false;
    }
    ++pos;
    value->clear();
    while (pos < text.size()) {
      char c = text[pos++];
      if (c == '"') {
        return true;
      }
      if (c != '\\') {
        value->push_back(c);
        continue;
      }
      if (pos >= text.size()) {
        return false;
      }
      char esc = text[pos++];
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          value->push_back(esc);
          break;
        case 'n':
          value->push_back('\n');
          break;
        case 'r':
          value->push_back('\r');
          break;
        case 't':
          value->push_back('\t');
          break;
        case 'b':
          value->push_back('\b');
          break;
        case 'f':
          value->push_back('\f');
          break;
        case 'u': {
          if (pos + 4 > text.size()) {
            return false;
          }
          char* end = nullptr;
          char hex[5] = {text[pos], text[pos + 1], text[pos + 2], text[pos + 3], 0};
          unsigned long code = std::strtoul(hex, &end, 16);
          if (end != hex + 4 || code > 0xFF) {
            return false;  // writer only emits control chars this way
          }
          value->push_back(static_cast<char>(code));
          pos += 4;
          break;
        }
        default:
          return false;
      }
    }
    return false;  // unterminated
  };

  skip_ws();
  if (pos >= text.size() || text[pos] != '{') {
    return false;
  }
  ++pos;
  skip_ws();
  if (pos < text.size() && text[pos] == '}') {
    ++pos;
  } else {
    for (;;) {
      skip_ws();
      std::string key;
      if (!parse_string(&key)) {
        return false;
      }
      skip_ws();
      if (pos >= text.size() || text[pos] != ':') {
        return false;
      }
      ++pos;
      skip_ws();
      std::string value;
      if (pos < text.size() && text[pos] == '"') {
        if (!parse_string(&value)) {
          return false;
        }
      } else {
        size_t start = pos;
        while (pos < text.size() && (std::isdigit(static_cast<unsigned char>(text[pos])) != 0 ||
                                     text[pos] == '-' || text[pos] == '+' || text[pos] == '.' ||
                                     text[pos] == 'e' || text[pos] == 'E')) {
          ++pos;
        }
        if (pos == start) {
          return false;
        }
        value.assign(text.substr(start, pos - start));
      }
      (*out)[key] = std::move(value);
      skip_ws();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      if (pos < text.size() && text[pos] == '}') {
        ++pos;
        break;
      }
      return false;
    }
  }
  skip_ws();
  return pos == text.size();
}

uint64_t GetU64(const std::map<std::string, std::string>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0 : std::strtoull(it->second.c_str(), nullptr, 10);
}

double GetDbl(const std::map<std::string, std::string>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? 0.0 : std::strtod(it->second.c_str(), nullptr);
}

std::string GetStr(const std::map<std::string, std::string>& m, const char* key) {
  auto it = m.find(key);
  return it == m.end() ? std::string() : it->second;
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

constexpr char kFormatName[] = "ddt-campaign-journal";
constexpr int kFormatVersion = 2;

std::string PointsToString(const std::vector<FaultPoint>& points) {
  std::string out;
  for (const FaultPoint& p : points) {
    if (!out.empty()) {
      out.push_back(' ');
    }
    out += StrFormat("%d#%u", static_cast<int>(p.cls), p.occurrence);
  }
  return out;
}

bool PointsFromString(const std::string& text, std::vector<FaultPoint>* out) {
  for (std::string_view piece : SplitAny(text, " ")) {
    size_t hash = piece.find('#');
    if (hash == std::string_view::npos) {
      return false;
    }
    int64_t cls = 0;
    int64_t occurrence = 0;
    if (!ParseInt(piece.substr(0, hash), &cls) || !ParseInt(piece.substr(hash + 1), &occurrence) ||
        cls < 0 || cls >= static_cast<int64_t>(kNumFaultClasses) || occurrence < 0) {
      return false;
    }
    out->push_back(FaultPoint{static_cast<FaultClass>(cls), static_cast<uint32_t>(occurrence)});
  }
  return true;
}

std::string HwPointsToString(const std::vector<HwFaultPoint>& points) {
  std::string out;
  for (const HwFaultPoint& p : points) {
    if (!out.empty()) {
      out.push_back(' ');
    }
    out += StrFormat("%d#%u", static_cast<int>(p.kind), p.index);
  }
  return out;
}

bool HwPointsFromString(const std::string& text, std::vector<HwFaultPoint>* out) {
  for (std::string_view piece : SplitAny(text, " ")) {
    size_t hash = piece.find('#');
    if (hash == std::string_view::npos) {
      return false;
    }
    int64_t kind = 0;
    int64_t index = 0;
    if (!ParseInt(piece.substr(0, hash), &kind) || !ParseInt(piece.substr(hash + 1), &index) ||
        kind < 0 || kind >= static_cast<int64_t>(kNumHwFaultKinds) || index < 0) {
      return false;
    }
    out->push_back(HwFaultPoint{static_cast<HwFaultKind>(kind), static_cast<uint32_t>(index)});
  }
  return true;
}

std::string EncodeRecord(const CampaignPassRecord& rec) {
  JsonWriter w;
  w.U64("i", rec.index);
  w.Str("label", rec.label);
  w.Str("points", PointsToString(rec.points));
  w.Str("hw_points", HwPointsToString(rec.hw_points));
  w.U64("retries", rec.retries);
  w.U64("q", rec.quarantined ? 1 : 0);
  w.Str("failure", rec.failure);
  if (rec.has_profile) {
    std::string profile;
    for (size_t i = 0; i < kNumFaultClasses; ++i) {
      if (i != 0) {
        profile.push_back(' ');
      }
      profile += StrFormat("%u", rec.profile.max_occurrences[i]);
    }
    w.Str("profile", profile);
    // Hardware-plane counterpart: the five extent counters hw plan
    // generation derives from.
    w.Str("hw_profile", StrFormat("%u %u %u %u %u", rec.hw_profile.max_mmio_accesses,
                                  rec.hw_profile.max_mmio_reads, rec.hw_profile.max_mmio_writes,
                                  rec.hw_profile.max_crossings, rec.hw_profile.max_interrupts));
  }
  const EngineStats& e = rec.stats;
  // Counter keys are DDT_ENGINE_COUNTERS' journal column. Keys absent in
  // older journals decode to 0; keys of retired counters are ignored.
  for (const auto& row : kEngineCounters) {
    w.U64(row.journal_key, e.*row.field);
  }
  {
    std::string rule_kills;
    for (size_t i = 0; i < e.edge_rule_kills.size(); ++i) {
      if (i != 0) {
        rule_kills.push_back(' ');
      }
      rule_kills += StrFormat("%llu", static_cast<unsigned long long>(e.edge_rule_kills[i]));
    }
    w.Str("e_edge_rule_kills", rule_kills);
  }
  w.Str("e_fork_sites", EncodeForkSiteTable(e.fork_sites));
  w.Dbl("e_wall_ms", e.wall_ms);
  const SolverStats& s = rec.solver_stats;
  for (const auto& row : kSolverCounters) {
    w.U64(row.journal_key, s.*row.field);
  }
  w.Dbl("s_max_query_wall_ms", s.max_query_wall_ms);
  w.Str("bugs", SerializeBugs(rec.bugs));
  return w.Finish();
}

bool DecodeRecord(const std::map<std::string, std::string>& m, CampaignPassRecord* rec) {
  rec->index = GetU64(m, "i");
  rec->label = GetStr(m, "label");
  if (!PointsFromString(GetStr(m, "points"), &rec->points)) {
    return false;
  }
  if (!HwPointsFromString(GetStr(m, "hw_points"), &rec->hw_points)) {
    return false;
  }
  rec->retries = static_cast<uint32_t>(GetU64(m, "retries"));
  rec->quarantined = GetU64(m, "q") != 0;
  rec->failure = GetStr(m, "failure");
  auto profile_it = m.find("profile");
  if (profile_it != m.end()) {
    std::vector<std::string_view> pieces = SplitAny(profile_it->second, " ");
    if (pieces.size() != kNumFaultClasses) {
      return false;
    }
    for (size_t i = 0; i < kNumFaultClasses; ++i) {
      int64_t v = 0;
      if (!ParseInt(pieces[i], &v) || v < 0) {
        return false;
      }
      rec->profile.max_occurrences[i] = static_cast<uint32_t>(v);
    }
    rec->has_profile = true;
    auto hw_it = m.find("hw_profile");
    if (hw_it != m.end()) {
      std::vector<std::string_view> hw_pieces = SplitAny(hw_it->second, " ");
      if (hw_pieces.size() != 5) {
        return false;
      }
      uint32_t* fields[5] = {&rec->hw_profile.max_mmio_accesses, &rec->hw_profile.max_mmio_reads,
                             &rec->hw_profile.max_mmio_writes, &rec->hw_profile.max_crossings,
                             &rec->hw_profile.max_interrupts};
      for (size_t i = 0; i < 5; ++i) {
        int64_t v = 0;
        if (!ParseInt(hw_pieces[i], &v) || v < 0) {
          return false;
        }
        *fields[i] = static_cast<uint32_t>(v);
      }
    }
  }
  EngineStats& e = rec->stats;
  for (const auto& row : kEngineCounters) {
    e.*row.field = GetU64(m, row.journal_key);
  }
  {
    std::string rule_kills = GetStr(m, "e_edge_rule_kills");
    if (!rule_kills.empty()) {
      for (std::string_view piece : SplitAny(rule_kills, " ")) {
        int64_t v = 0;
        if (!ParseInt(piece, &v) || v < 0) {
          return false;
        }
        e.edge_rule_kills.push_back(static_cast<uint64_t>(v));
      }
    }
  }
  e.fork_sites = DecodeForkSiteTable(GetStr(m, "e_fork_sites"));
  e.wall_ms = GetDbl(m, "e_wall_ms");
  SolverStats& s = rec->solver_stats;
  for (const auto& row : kSolverCounters) {
    s.*row.field = GetU64(m, row.journal_key);
  }
  s.max_query_wall_ms = GetDbl(m, "s_max_query_wall_ms");
  Result<std::vector<Bug>> bugs = DeserializeBugs(GetStr(m, "bugs"));
  if (!bugs.ok()) {
    return false;
  }
  rec->bugs = bugs.take();
  return true;
}

std::string EncodeHeader(const std::string& driver, uint64_t fingerprint) {
  JsonWriter w;
  w.Str("format", kFormatName);
  w.U64("v", kFormatVersion);
  w.Str("driver", driver);
  w.Str("fp", StrFormat("%016llX", static_cast<unsigned long long>(fingerprint)));
  return w.Finish();
}

// Validates a journal's header record against (driver, fingerprint). On
// success leaves `*pos` just past it.
Status ValidateHeader(std::string_view bytes, const std::string& path, const std::string& driver,
                      uint64_t fingerprint, size_t* pos) {
  if (bytes.empty()) {
    return Status::Error(StrFormat("cannot resume: journal '%s' is empty", path.c_str()));
  }
  std::string_view payload;
  std::map<std::string, std::string> header;
  if (ReadRecord(bytes, pos, &payload) != RecordRead::kRecord ||
      !ParseFlatJson(payload, &header) || GetStr(header, "format") != kFormatName) {
    return Status::Error(
        StrFormat("'%s' is not a DDT campaign journal", path.c_str()));
  }
  if (GetU64(header, "v") != kFormatVersion) {
    return Status::Error(StrFormat("journal '%s' has unsupported version %llu", path.c_str(),
                                   static_cast<unsigned long long>(GetU64(header, "v"))));
  }
  if (GetStr(header, "driver") != driver) {
    return Status::Error(StrFormat("journal '%s' belongs to driver '%s', not '%s'", path.c_str(),
                                   GetStr(header, "driver").c_str(), driver.c_str()));
  }
  std::string expected_fp = StrFormat("%016llX", static_cast<unsigned long long>(fingerprint));
  if (GetStr(header, "fp") != expected_fp) {
    return Status::Error(StrFormat(
        "journal '%s' was written by a campaign with a different configuration or driver image "
        "(fingerprint %s, expected %s)",
        path.c_str(), GetStr(header, "fp").c_str(), expected_fp.c_str()));
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

std::string EncodeCampaignPassRecord(const CampaignPassRecord& record) {
  return EncodeRecord(record);
}

bool DecodeCampaignPassRecord(std::string_view payload, CampaignPassRecord* record) {
  std::map<std::string, std::string> fields;
  return ParseFlatJson(payload, &fields) && DecodeRecord(fields, record);
}

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
  Status framed = AppendRecord(&frame, EncodeRecord(record));
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
