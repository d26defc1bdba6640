#include "src/core/campaign_journal.h"

#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>
#include <utility>

#include "src/core/bug_io.h"
#include "src/obs/trace_events.h"
#include "src/support/crc32.h"
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
// false on any malformed input — the caller treats the line as a torn tail.
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
constexpr int kFormatVersion = 1;

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
  w.U64("e_instructions", e.instructions);
  w.U64("e_forks", e.forks);
  w.U64("e_dropped_forks", e.dropped_forks);
  w.U64("e_states_created", e.states_created);
  w.U64("e_states_terminated", e.states_terminated);
  w.U64("e_max_live_states", e.max_live_states);
  w.U64("e_kernel_calls", e.kernel_calls);
  w.U64("e_interrupts_injected", e.interrupts_injected);
  w.U64("e_entry_invocations", e.entry_invocations);
  w.U64("e_concretizations", e.concretizations);
  w.U64("e_concretization_backtracks", e.concretization_backtracks);
  w.U64("e_faults_injected", e.faults_injected);
  // Hardware fault plane counters (absent in older journals; GetU64 defaults
  // them to 0).
  w.U64("e_hw_faults", e.hw_faults_injected);
  w.U64("e_hw_removals", e.hw_removals);
  w.U64("e_hw_sticky", e.hw_sticky_faults);
  w.U64("e_hw_storms", e.hw_irq_storms);
  w.U64("e_hw_suppressed", e.hw_irq_suppressed);
  w.U64("e_hw_doorbells_dropped", e.hw_doorbells_dropped);
  w.U64("e_hw_reads_floated", e.hw_reads_floated);
  w.U64("e_hw_writes_dropped", e.hw_writes_dropped);
  w.U64("e_hw_removal_events", e.hw_removal_events);
  w.U64("e_states_evicted", e.states_evicted);
  w.U64("e_peak_state_bytes", e.peak_state_bytes);
  w.U64("e_blocks_decoded", e.blocks_decoded);
  w.U64("e_block_cache_hits", e.block_cache_hits);
  // Absent in older journals (GetU64 defaults it to 0). Volatile-report
  // only, but a fleet worker's RESULT is the coordinator's sole window into
  // its pass, so it rides along. Keys of retired counters in older records
  // are ignored on decode.
  w.U64("e_bc_fallback_fetches", e.block_cache_fallback_fetches);
  // Path-explosion control counters + fork-profiler table (absent in older
  // journals; GetU64/GetStr default to 0/empty).
  w.U64("e_states_merged", e.states_merged);
  w.U64("e_loop_kills", e.loop_kills);
  w.U64("e_edge_kills", e.edge_kills);
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
  w.U64("s_queries", s.queries);
  w.U64("s_quick_decides", s.quick_decides);
  w.U64("s_cache_hits", s.cache_hits);
  w.U64("s_sat_calls", s.sat_calls);
  w.U64("s_sat_results", s.sat_results);
  w.U64("s_unsat_results", s.unsat_results);
  w.U64("s_unknown_results", s.unknown_results);
  w.U64("s_query_timeouts", s.query_timeouts);
  w.U64("s_aborted_queries", s.aborted_queries);
  w.U64("s_total_conflicts", s.total_conflicts);
  w.U64("s_total_sat_vars", s.total_sat_vars);
  w.U64("s_total_sat_clauses", s.total_sat_clauses);
  w.U64("s_model_reuse_hits", s.model_reuse_hits);
  // Shared-cache counters (absent in v1 journals; GetU64 defaults them to 0).
  // Volatile-report only, but a fleet worker's RESULT is the coordinator's
  // sole window into its pass, so they ride along.
  w.U64("s_sc_hits", s.shared_cache_hits);
  w.U64("s_sc_fastpath", s.shared_cache_fastpath_hits);
  w.U64("s_sc_misses", s.shared_cache_misses);
  w.U64("s_sc_stores", s.shared_cache_stores);
  w.U64("s_sc_verify_failures", s.shared_cache_verify_failures);
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
  e.instructions = GetU64(m, "e_instructions");
  e.forks = GetU64(m, "e_forks");
  e.dropped_forks = GetU64(m, "e_dropped_forks");
  e.states_created = GetU64(m, "e_states_created");
  e.states_terminated = GetU64(m, "e_states_terminated");
  e.max_live_states = GetU64(m, "e_max_live_states");
  e.kernel_calls = GetU64(m, "e_kernel_calls");
  e.interrupts_injected = GetU64(m, "e_interrupts_injected");
  e.entry_invocations = GetU64(m, "e_entry_invocations");
  e.concretizations = GetU64(m, "e_concretizations");
  e.concretization_backtracks = GetU64(m, "e_concretization_backtracks");
  e.faults_injected = GetU64(m, "e_faults_injected");
  e.hw_faults_injected = GetU64(m, "e_hw_faults");
  e.hw_removals = GetU64(m, "e_hw_removals");
  e.hw_sticky_faults = GetU64(m, "e_hw_sticky");
  e.hw_irq_storms = GetU64(m, "e_hw_storms");
  e.hw_irq_suppressed = GetU64(m, "e_hw_suppressed");
  e.hw_doorbells_dropped = GetU64(m, "e_hw_doorbells_dropped");
  e.hw_reads_floated = GetU64(m, "e_hw_reads_floated");
  e.hw_writes_dropped = GetU64(m, "e_hw_writes_dropped");
  e.hw_removal_events = GetU64(m, "e_hw_removal_events");
  e.states_evicted = GetU64(m, "e_states_evicted");
  e.peak_state_bytes = GetU64(m, "e_peak_state_bytes");
  e.blocks_decoded = GetU64(m, "e_blocks_decoded");
  e.block_cache_hits = GetU64(m, "e_block_cache_hits");
  e.block_cache_fallback_fetches = GetU64(m, "e_bc_fallback_fetches");
  e.states_merged = GetU64(m, "e_states_merged");
  e.loop_kills = GetU64(m, "e_loop_kills");
  e.edge_kills = GetU64(m, "e_edge_kills");
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
  s.queries = GetU64(m, "s_queries");
  s.quick_decides = GetU64(m, "s_quick_decides");
  s.cache_hits = GetU64(m, "s_cache_hits");
  s.sat_calls = GetU64(m, "s_sat_calls");
  s.sat_results = GetU64(m, "s_sat_results");
  s.unsat_results = GetU64(m, "s_unsat_results");
  s.unknown_results = GetU64(m, "s_unknown_results");
  s.query_timeouts = GetU64(m, "s_query_timeouts");
  s.aborted_queries = GetU64(m, "s_aborted_queries");
  s.total_conflicts = GetU64(m, "s_total_conflicts");
  s.total_sat_vars = GetU64(m, "s_total_sat_vars");
  s.total_sat_clauses = GetU64(m, "s_total_sat_clauses");
  s.model_reuse_hits = GetU64(m, "s_model_reuse_hits");
  s.shared_cache_hits = GetU64(m, "s_sc_hits");
  s.shared_cache_fastpath_hits = GetU64(m, "s_sc_fastpath");
  s.shared_cache_misses = GetU64(m, "s_sc_misses");
  s.shared_cache_stores = GetU64(m, "s_sc_stores");
  s.shared_cache_verify_failures = GetU64(m, "s_sc_verify_failures");
  s.max_query_wall_ms = GetDbl(m, "s_max_query_wall_ms");
  Result<std::vector<Bug>> bugs = DeserializeBugs(GetStr(m, "bugs"));
  if (!bugs.ok()) {
    return false;
  }
  rec->bugs = bugs.take();
  return true;
}

// Wraps a record payload into one journal line; the CRC covers exactly the
// payload text, so any torn write or bit flip is detected.
std::string WrapLine(const std::string& payload) {
  return StrFormat("{\"crc\":\"%08X\",\"record\":", Crc32(payload)) + payload + "}\n";
}

// Inverse of WrapLine (without the trailing newline). Returns false unless
// the wrapper parses and the CRC matches.
bool UnwrapLine(std::string_view line, std::string_view* payload) {
  constexpr std::string_view kPrefix = "{\"crc\":\"";
  constexpr size_t kCrcDigits = 8;
  constexpr std::string_view kMid = "\",\"record\":";
  size_t header_len = kPrefix.size() + kCrcDigits + kMid.size();
  if (line.size() < header_len + 2 || line.substr(0, kPrefix.size()) != kPrefix ||
      line.substr(kPrefix.size() + kCrcDigits, kMid.size()) != kMid || line.back() != '}') {
    return false;
  }
  char hex[kCrcDigits + 1] = {};
  std::memcpy(hex, line.data() + kPrefix.size(), kCrcDigits);
  char* end = nullptr;
  uint32_t crc = static_cast<uint32_t>(std::strtoul(hex, &end, 16));
  if (end != hex + kCrcDigits) {
    return false;
  }
  *payload = line.substr(header_len, line.size() - header_len - 1);
  return Crc32(*payload) == crc;
}

std::string EncodeHeader(const std::string& driver, uint64_t fingerprint) {
  JsonWriter w;
  w.Str("format", kFormatName);
  w.U64("v", kFormatVersion);
  w.Str("driver", driver);
  w.Str("fp", StrFormat("%016llX", static_cast<unsigned long long>(fingerprint)));
  return w.Finish() + "\n";
}

// Validates a journal's header line against (driver, fingerprint). On success
// leaves `in` positioned at the first record line.
Status ValidateHeader(std::ifstream& in, const std::string& path, const std::string& driver,
                      uint64_t fingerprint, size_t* header_bytes) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::Error(StrFormat("cannot resume: journal '%s' is empty", path.c_str()));
  }
  std::map<std::string, std::string> header;
  if (!ParseFlatJson(line, &header) || GetStr(header, "format") != kFormatName) {
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
  *header_bytes = line.size() + 1;
  return Status::Ok();
}

// Reads the valid record prefix: every intact record extends it; the first
// torn, corrupt, or undecodable line ends it — a crash mid-append is
// expected, not fatal. Returns the byte offset just past the last valid line.
size_t ReadValidRecords(std::ifstream& in, size_t header_bytes,
                        std::vector<CampaignPassRecord>* records) {
  size_t valid_end = header_bytes;
  std::string line;
  while (std::getline(in, line)) {
    bool complete = !in.eof();  // a final line without '\n' is a torn write
    std::string_view payload;
    std::map<std::string, std::string> fields;
    CampaignPassRecord rec;
    if (!complete || !UnwrapLine(line, &payload) || !ParseFlatJson(payload, &fields) ||
        !DecodeRecord(fields, &rec)) {
      break;
    }
    records->push_back(std::move(rec));
    valid_end += line.size() + 1;
  }
  return valid_end;
}

}  // namespace

std::string EncodeCampaignPassRecord(const CampaignPassRecord& record) {
  return EncodeRecord(record);
}

bool DecodeCampaignPassRecord(const std::string& payload, CampaignPassRecord* record) {
  std::map<std::string, std::string> fields;
  return ParseFlatJson(payload, &fields) && DecodeRecord(fields, record);
}

Result<std::vector<CampaignPassRecord>> LoadCampaignJournalRecords(const std::string& path,
                                                                   const std::string& driver,
                                                                   uint64_t fingerprint) {
  std::vector<CampaignPassRecord> records;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return records;  // no shard journal yet — the worker died before pass 1
  }
  size_t header_bytes = 0;
  Status st = ValidateHeader(in, path, driver, fingerprint, &header_bytes);
  if (!st.ok()) {
    return st;
  }
  ReadValidRecords(in, header_bytes, &records);
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
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::Error(
        StrFormat("cannot open campaign journal '%s' for writing: %s", path.c_str(),
                  std::strerror(errno)));
  }
  std::string header = EncodeHeader(driver, fingerprint);
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Error(StrFormat(
        "cannot resume: campaign journal '%s' does not exist or is unreadable", path.c_str()));
  }
  size_t header_bytes = 0;
  Status st = ValidateHeader(in, path, driver, fingerprint, &header_bytes);
  if (!st.ok()) {
    return st;
  }
  records->clear();
  size_t valid_end = ReadValidRecords(in, header_bytes, records);
  in.close();

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
  std::string line = WrapLine(EncodeRecord(record));
  std::unique_lock<std::mutex> lock(mu_);
  std::chrono::steady_clock::time_point start;
  if (append_ms_ != nullptr) {
    start = std::chrono::steady_clock::now();
  }
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size() || std::fflush(file_) != 0) {
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
