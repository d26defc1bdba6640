// Campaign checkpoint journal units: the record payload pinned byte for byte,
// full record round-trip (every counter row, stats, bugs, profile,
// quarantine metadata), counters keyed by metric name, a decoder that refuses
// malformed payloads, crash-tolerant resume (torn and corrupt trailing
// records discarded, valid prefix preserved and appendable), and header
// validation (wrong driver / fingerprint / format / version rejected).
#include "src/core/campaign_journal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/support/crc32.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace {

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// Byte offset just past the first `n` records of a journal file.
size_t RecordsEnd(const std::string& bytes, size_t n) {
  size_t pos = 0;
  std::string_view payload;
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kRecord) << "record " << i;
  }
  return pos;
}

CampaignPassRecord SampleRecord(uint64_t index) {
  CampaignPassRecord rec;
  rec.index = index;
  rec.plan.label = StrFormat("allocation#%llu", static_cast<unsigned long long>(index));
  rec.plan.points.push_back(FaultPoint{FaultClass::kAllocation, static_cast<uint32_t>(index)});
  rec.plan.points.push_back(FaultPoint{FaultClass::kMapIoSpace, 0});
  rec.retries = 1;
  rec.stats.instructions = 123456 + index;
  rec.stats.forks = 7;
  rec.stats.faults_injected = 3;
  rec.stats.peak_state_bytes = 1 << 20;
  rec.stats.wall_ms = 123.45678901234567;  // exercises the exact double round-trip
  rec.solver_stats.queries = 42;
  rec.solver_stats.sat_calls = 9;
  rec.solver_stats.aborted_queries = 2;
  rec.solver_stats.max_query_wall_ms = 0.125;
  Bug bug;
  bug.type = BugType::kResourceLeak;
  bug.title = "rx ring never freed on \"weird\" path\nwith a newline";
  bug.details = "escaping stress: backslash \\ tab \t quote \"";
  bug.driver = "toy";
  bug.checker = "cleanup";
  bug.fault_plan = rec.plan;
  rec.bugs.push_back(bug);
  return rec;
}

// A record in which every counter, both doubles, the per-rule kills and two
// fork-site rows hold distinct values.
CampaignPassRecord GoldenRecord() {
  CampaignPassRecord rec;
  rec.index = 3;
  rec.plan.label = "allocation#1";
  rec.plan.points.push_back(FaultPoint{FaultClass::kAllocation, 1});
  rec.plan.hw_points.push_back(HwFaultPoint{HwFaultKind::kDoorbellDrop, 12});
  rec.retries = 2;
  rec.has_profile = true;
  rec.profile.max_occurrences = {4, 1, 0, 2};
  rec.hw_profile = HwSiteProfile{5, 3, 2, 7, 1};
  uint64_t value = 101;
  for (const auto& row : kEngineCounters) {
    rec.stats.*row.field = value++;
  }
  value = 201;
  for (const auto& row : kSolverCounters) {
    rec.solver_stats.*row.field = value++;
  }
  rec.stats.edge_rule_kills = {3, 0, 5};
  rec.stats.fork_sites[{0x00401230u, "allocation#1"}] = ForkSiteStats{11, 12, 13, 14, 15, 16};
  rec.stats.fork_sites[{0x00401230u, "-"}] = ForkSiteStats{21, 22, 23, 24, 25, 26};
  rec.stats.wall_ms = 123.45678901234567;
  rec.solver_stats.max_query_wall_ms = 7.0625;
  return rec;
}

// One fork-site table row as the payload holds it.
std::string ForkSiteBytes(uint32_t pc, const char* label, uint64_t first) {
  ByteWriter w;
  w.U32(pc);
  w.Str(label);
  for (uint64_t v = first; v < first + 6; ++v) {
    w.U64(v);
  }
  return w.Take();
}

// The payload is an on-disk format: fleet workers ship it over the wire and
// shard journals keep it. The writer below spells out every field, every
// counter key and every encoding, in order; the size and CRC pin the bytes
// independently of ByteWriter.
TEST(CampaignJournalTest, PayloadMatchesThePinnedFormat) {
  const char* engine_keys[] = {
      "engine.instructions", "engine.forks", "engine.dropped_forks", "engine.states_created",
      "engine.states_terminated", "engine.max_live_states", "engine.kernel_calls",
      "engine.interrupts_injected", "engine.entry_invocations", "engine.concretizations",
      "engine.concretization_backtracks", "engine.faults_injected", "hw.faults_injected",
      "hw.removals", "hw.sticky_faults", "hw.irq_storms", "hw.irq_suppressed",
      "hw.doorbells_dropped", "hw.reads_floated", "hw.writes_dropped", "hw.removal_events",
      "engine.states_evicted", "engine.peak_state_bytes", "vm.block_cache.blocks_decoded",
      "vm.block_cache.hits", "vm.block_cache.fallback_fetches", "search.states_merged",
      "search.loop_kills", "search.edge_kills"};
  const char* solver_keys[] = {
      "solver.queries", "solver.quick_decides", "solver.cache_hits", "solver.sat_calls",
      "solver.sat_results", "solver.unsat_results", "solver.unknown_results", "solver.timeouts",
      "solver.aborted_queries", "solver.total_conflicts", "solver.total_sat_vars",
      "solver.total_sat_clauses", "solver.model_reuse_hits", "solver.shared_cache.hits",
      "solver.shared_cache.fastpath_hits", "solver.shared_cache.misses",
      "solver.shared_cache.stores", "solver.shared_cache.verify_failures"};
  ByteWriter w;
  w.U64(3);               // index
  w.Str("allocation#1");  // plan: label,
  w.U32(1);               // one point, allocation#1,
  w.U32(0);
  w.U32(1);
  w.U32(1);               // one hw point, doorbell-drop#12
  w.U32(5);
  w.U32(12);
  w.U32(2);               // retries
  w.U8(0);                // not quarantined
  w.Str("");              // failure
  w.U8(1);                // has a profile: four classes, five hw extents
  for (uint32_t v : {4, 1, 0, 2, 5, 3, 2, 7, 1}) {
    w.U32(v);
  }
  w.U32(std::size(engine_keys));
  for (size_t i = 0; i < std::size(engine_keys); ++i) {
    w.Str(engine_keys[i]);
    w.U64(101 + i);
  }
  w.U32(std::size(solver_keys));
  for (size_t i = 0; i < std::size(solver_keys); ++i) {
    w.Str(solver_keys[i]);
    w.U64(201 + i);
  }
  w.U32(3);  // per-rule kills
  for (uint64_t v : {3, 0, 5}) {
    w.U64(v);
  }
  std::string fork_sites = ForkSiteBytes(0x00401230u, "-", 21) +
                           ForkSiteBytes(0x00401230u, "allocation#1", 11);
  w.U32(2);  // fork sites, in key order
  std::string pinned = w.Take() + fork_sites;
  ByteWriter tail;
  tail.U64(0x405EDD3C07FB4C98ull);  // 123.45678901234567, IEEE bits
  tail.U64(0x401C400000000000ull);  // 7.0625
  tail.Str("ddt-bug-report v1\n");
  pinned += tail.bytes();

  const std::string payload = EncodeCampaignPassRecord(GoldenRecord());
  EXPECT_EQ(payload, pinned);
  EXPECT_EQ(payload.size(), 1844u);
  EXPECT_EQ(Crc32(payload), 0x80CA535Au);
}

TEST(CampaignJournalTest, EveryCounterRowRoundTrips) {
  const CampaignPassRecord want = GoldenRecord();
  CampaignPassRecord got;
  ASSERT_TRUE(DecodeCampaignPassRecord(EncodeCampaignPassRecord(want), &got));
  for (const auto& row : kEngineCounters) {
    EXPECT_EQ(got.stats.*row.field, want.stats.*row.field) << row.name;
  }
  for (const auto& row : kSolverCounters) {
    EXPECT_EQ(got.solver_stats.*row.field, want.solver_stats.*row.field) << row.name;
  }
  EXPECT_EQ(got.stats.edge_rule_kills, want.stats.edge_rule_kills);
  EXPECT_EQ(got.stats.fork_sites, want.stats.fork_sites);
  EXPECT_EQ(got.stats.wall_ms, want.stats.wall_ms);
  EXPECT_EQ(got.solver_stats.max_query_wall_ms, want.solver_stats.max_query_wall_ms);
}

// Two rows sharing a metric name would overwrite each other, in a metrics
// snapshot and in a journal record alike.
TEST(CampaignJournalTest, CounterRowsHaveDistinctMetricNames) {
  std::set<std::string> metrics;
  size_t rows = 0;
  auto collect = [&](const auto& table) {
    for (const auto& row : table) {
      metrics.insert(row.metric);
      ++rows;
    }
  };
  collect(kEngineCounters);
  collect(kSolverCounters);
  EXPECT_EQ(metrics.size(), rows);
}

TEST(CampaignJournalTest, RoundTripsRecordsExactly) {
  std::string path = TempPath("journal_roundtrip.journal");
  {
    Result<std::unique_ptr<CampaignJournal>> journal =
        CampaignJournal::Create(path, "toy", 0xABCDEF0123456789ull);
    ASSERT_TRUE(journal.ok()) << journal.error();
    CampaignPassRecord baseline = SampleRecord(0);
    baseline.plan = FaultPlan();
    baseline.retries = 0;
    baseline.has_profile = true;
    baseline.profile.max_occurrences = {4, 1, 0, 2};
    ASSERT_TRUE(journal.value()->Append(baseline).ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(1)).ok());
    CampaignPassRecord quarantined = SampleRecord(2);
    quarantined.quarantined = true;
    quarantined.failure = "watchdog: pass exceeded its wall budget";
    quarantined.bugs.clear();
    ASSERT_TRUE(journal.value()->Append(quarantined).ok());
  }

  std::vector<CampaignPassRecord> records;
  Result<std::unique_ptr<CampaignJournal>> reopened =
      CampaignJournal::OpenForResume(path, "toy", 0xABCDEF0123456789ull, &records);
  ASSERT_TRUE(reopened.ok()) << reopened.error();
  ASSERT_EQ(records.size(), 3u);

  EXPECT_EQ(records[0].index, 0u);
  EXPECT_TRUE(records[0].has_profile);
  EXPECT_EQ(records[0].profile.max_occurrences[0], 4u);
  EXPECT_EQ(records[0].profile.max_occurrences[3], 2u);
  EXPECT_TRUE(records[0].plan.points.empty());

  const CampaignPassRecord& rec = records[1];
  CampaignPassRecord want = SampleRecord(1);
  EXPECT_EQ(rec.index, 1u);
  EXPECT_EQ(rec.plan.label, want.plan.label);
  ASSERT_EQ(rec.plan.points.size(), 2u);
  EXPECT_TRUE(rec.plan.points[0] == want.plan.points[0]);
  EXPECT_TRUE(rec.plan.points[1] == want.plan.points[1]);
  EXPECT_EQ(rec.retries, 1u);
  EXPECT_FALSE(rec.quarantined);
  EXPECT_FALSE(rec.has_profile);
  EXPECT_EQ(rec.stats.instructions, want.stats.instructions);
  EXPECT_EQ(rec.stats.peak_state_bytes, want.stats.peak_state_bytes);
  EXPECT_EQ(rec.stats.wall_ms, want.stats.wall_ms);  // exact double round-trip
  EXPECT_EQ(rec.solver_stats.queries, want.solver_stats.queries);
  EXPECT_EQ(rec.solver_stats.aborted_queries, want.solver_stats.aborted_queries);
  EXPECT_EQ(rec.solver_stats.max_query_wall_ms, want.solver_stats.max_query_wall_ms);
  ASSERT_EQ(rec.bugs.size(), 1u);
  EXPECT_EQ(rec.bugs[0].type, BugType::kResourceLeak);
  EXPECT_EQ(rec.bugs[0].title, want.bugs[0].title);
  EXPECT_EQ(rec.bugs[0].driver, "toy");
  EXPECT_EQ(rec.bugs[0].fault_plan.ToString(), want.bugs[0].fault_plan.ToString());

  EXPECT_TRUE(records[2].quarantined);
  EXPECT_EQ(records[2].failure, "watchdog: pass exceeded its wall budget");
  EXPECT_TRUE(records[2].bugs.empty());
}

// Counters travel keyed by metric name. A name this build does not know
// (a retired counter's) is skipped, and a row the record lacks reads 0.
TEST(CampaignJournalTest, CountersAreKeyedByMetricName) {
  CampaignPassRecord record = SampleRecord(1);
  record.stats.blocks_decoded = 40;
  const std::string payload = EncodeCampaignPassRecord(record);
  // The engine counters' count sits just before the first key.
  ByteWriter first_key;
  first_key.Str("engine.instructions");
  const size_t keys = payload.find(first_key.bytes());
  ASSERT_NE(keys, std::string::npos);
  const size_t count_at = keys - 4;
  ByteReader count_reader(std::string_view(payload).substr(count_at, 4));
  const uint32_t count = count_reader.U32();
  auto with_count = [&](uint32_t n, const std::string& pairs_prefix, size_t skip) {
    ByteWriter w;
    w.U32(n);
    return payload.substr(0, count_at) + w.bytes() + pairs_prefix + payload.substr(keys + skip);
  };

  ByteWriter retired;
  for (const char* name : {"vm.block_cache.hot_blocks", "vm.superblock.compiled"}) {
    retired.Str(name);
    retired.U64(7);
  }
  CampaignPassRecord extended;
  ASSERT_TRUE(DecodeCampaignPassRecord(with_count(count + 2, retired.bytes(), 0), &extended));
  EXPECT_EQ(EncodeCampaignPassRecord(extended), payload);

  // Drop the first pair (engine.instructions): it reads 0, the rest as written.
  CampaignPassRecord missing;
  const size_t pair_bytes = first_key.bytes().size() + 8;
  ASSERT_TRUE(DecodeCampaignPassRecord(with_count(count - 1, "", pair_bytes), &missing));
  EXPECT_EQ(missing.stats.instructions, 0u);
  EXPECT_EQ(missing.stats.blocks_decoded, 40u);
  EXPECT_EQ(missing.solver_stats.queries, record.solver_stats.queries);
}

// The decoder refuses what the text codecs it replaced accepted or skipped:
// out-of-range enums, flags other than 0/1, a fork-site table out of key
// order or with a repeated key, truncation and trailing bytes.
TEST(CampaignJournalTest, DecoderRefusesMalformedPayloads) {
  const CampaignPassRecord golden = GoldenRecord();
  const std::string payload = EncodeCampaignPassRecord(golden);
  CampaignPassRecord out;
  ASSERT_TRUE(DecodeCampaignPassRecord(payload, &out));
  for (size_t n = 0; n < payload.size(); ++n) {
    CampaignPassRecord torn;
    EXPECT_FALSE(DecodeCampaignPassRecord(std::string_view(payload).substr(0, n), &torn)) << n;
  }
  CampaignPassRecord trailing;
  EXPECT_FALSE(DecodeCampaignPassRecord(payload + '\0', &trailing));

  CampaignPassRecord bad_class = golden;
  bad_class.plan.points[0].cls = static_cast<FaultClass>(kNumFaultClasses);
  CampaignPassRecord bad_kind = golden;
  bad_kind.plan.hw_points[0].kind = static_cast<HwFaultKind>(kNumHwFaultKinds);
  for (const CampaignPassRecord& rec : {bad_class, bad_kind}) {
    CampaignPassRecord decoded;
    EXPECT_FALSE(DecodeCampaignPassRecord(EncodeCampaignPassRecord(rec), &decoded));
  }

  // The quarantined flag follows the index, the plan and the retries.
  ByteWriter plan;
  EncodeFaultPlan(golden.plan, &plan);
  std::string bad_flag = payload;
  bad_flag[8 + plan.bytes().size() + 4] = 2;
  CampaignPassRecord flagged;
  EXPECT_FALSE(DecodeCampaignPassRecord(bad_flag, &flagged));

  const std::string lower = ForkSiteBytes(0x00401230u, "-", 21);
  const std::string upper = ForkSiteBytes(0x00401230u, "allocation#1", 11);
  const size_t at = payload.find(lower + upper);
  ASSERT_NE(at, std::string::npos);
  for (const std::string& rows : {upper + lower, lower + lower}) {
    std::string swapped = payload;
    swapped.replace(at, lower.size() + upper.size(), rows);
    CampaignPassRecord decoded;
    EXPECT_FALSE(DecodeCampaignPassRecord(swapped, &decoded));
  }
}

TEST(CampaignJournalTest, DiscardsTornTailAndStaysAppendable) {
  std::string path = TempPath("journal_torn.journal");
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(0)).ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(1)).ok());
  }
  std::string intact = ReadFile(path);
  // Simulate a kill mid-append: the first half of the next record.
  std::string next;
  ASSERT_TRUE(AppendRecord(&next, EncodeCampaignPassRecord(SampleRecord(2))).ok());
  WriteFile(path, intact + next.substr(0, next.size() / 2));

  std::vector<CampaignPassRecord> records;
  {
    Result<std::unique_ptr<CampaignJournal>> resumed =
        CampaignJournal::OpenForResume(path, "toy", 7, &records);
    ASSERT_TRUE(resumed.ok()) << resumed.error();
    ASSERT_EQ(records.size(), 2u);
    // The torn tail was truncated away; appending must produce a valid file.
    ASSERT_TRUE(resumed.value()->Append(SampleRecord(2)).ok());
  }
  records.clear();
  Result<std::unique_ptr<CampaignJournal>> again =
      CampaignJournal::OpenForResume(path, "toy", 7, &records);
  ASSERT_TRUE(again.ok()) << again.error();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].index, 2u);
}

TEST(CampaignJournalTest, DiscardsCorruptTrailingRecord) {
  std::string path = TempPath("journal_corrupt.journal");
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(0)).ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(1)).ok());
  }
  // Flip one payload byte inside the final (complete) record: CRC must catch
  // it. Records: the header, pass 0, pass 1.
  std::string content = ReadFile(path);
  content[RecordsEnd(content, 2) + kRecordHeaderBytes + 40] ^= 0x20;
  WriteFile(path, content);

  std::vector<CampaignPassRecord> records;
  Result<std::unique_ptr<CampaignJournal>> resumed =
      CampaignJournal::OpenForResume(path, "toy", 7, &records);
  ASSERT_TRUE(resumed.ok()) << resumed.error();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 0u);
}

TEST(CampaignJournalTest, RejectsMismatchedOrInvalidJournals) {
  std::string path = TempPath("journal_validate.journal");
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    ASSERT_TRUE(journal.ok());
  }
  std::vector<CampaignPassRecord> records;

  Result<std::unique_ptr<CampaignJournal>> wrong_driver =
      CampaignJournal::OpenForResume(path, "other", 7, &records);
  ASSERT_FALSE(wrong_driver.ok());
  EXPECT_NE(wrong_driver.error().find("belongs to driver"), std::string::npos);

  Result<std::unique_ptr<CampaignJournal>> wrong_fp =
      CampaignJournal::OpenForResume(path, "toy", 8, &records);
  ASSERT_FALSE(wrong_fp.ok());
  EXPECT_NE(wrong_fp.error().find("different configuration"), std::string::npos);

  Result<std::unique_ptr<CampaignJournal>> missing =
      CampaignJournal::OpenForResume(TempPath("nope.journal"), "toy", 7, &records);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("does not exist"), std::string::npos);

  std::string not_journal = TempPath("journal_notajournal.txt");
  WriteFile(not_journal, "hello world\n");
  Result<std::unique_ptr<CampaignJournal>> bad =
      CampaignJournal::OpenForResume(not_journal, "toy", 7, &records);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("not a DDT campaign journal"), std::string::npos);

  // A header in this layout with another version number.
  ByteWriter later;
  later.Str("ddt-campaign-journal");
  later.U32(4);
  later.Str("toy");
  later.U64(7);
  std::string later_bytes;
  ASSERT_TRUE(AppendRecord(&later_bytes, later.bytes()).ok());
  std::string later_path = TempPath("journal_later.journal");
  WriteFile(later_path, later_bytes);
  Result<std::unique_ptr<CampaignJournal>> later_version =
      CampaignJournal::OpenForResume(later_path, "toy", 7, &records);
  ASSERT_FALSE(later_version.ok());
  EXPECT_NE(later_version.error().find("unsupported version 4"), std::string::npos);

  Result<std::unique_ptr<CampaignJournal>> unwritable =
      CampaignJournal::Create("/nonexistent-dir/j.journal", "toy", 7);
  ASSERT_FALSE(unwritable.ok());
  EXPECT_NE(unwritable.error().find("cannot open"), std::string::npos);
}

// A journal written by a format-v2 build (a flat-JSON header and flat-JSON
// pass records in the same CRC framing; these bytes, verbatim) is refused
// with a version error and restores nothing.
TEST(CampaignJournalTest, RefusesAJournalInTheEarlierLayout) {
  const std::string earlier =
      std::string("\x4e\x00\x00\x00\x0a\x49\x81\xbc", 8) +
      R"json({"format":"ddt-campaign-journal","v":2,"driver":"toy","fp":"0000000000000007"})json" +
      std::string("\xa9\x04\x00\x00\x07\xde\xd0\x5c", 8) +
      R"json({"i":0,"label":"","points":"","hw_points":"","retries":0,"q":0,"failure":"","pro)json"
      R"json(file":"1 0 0 0","hw_profile":"0 0 0 0 0","e_instructions":0,"e_forks":0,"e_dropp)json"
      R"json(ed_forks":0,"e_states_created":0,"e_states_terminated":0,"e_max_live_states":0,"e)json"
      R"json(_kernel_calls":0,"e_interrupts_injected":0,"e_entry_invocations":0,"e_concretiza)json"
      R"json(tions":0,"e_concretization_backtracks":0,"e_faults_injected":0,"e_hw_faults":0,"e)json"
      R"json(_hw_removals":0,"e_hw_sticky":0,"e_hw_storms":0,"e_hw_suppressed":0,"e_hw_doorbe)json"
      R"json(lls_dropped":0,"e_hw_reads_floated":0,"e_hw_writes_dropped":0,"e_hw_removal_even)json"
      R"json(ts":0,"e_states_evicted":0,"e_peak_state_bytes":0,"e_blocks_decoded":0,"e_block_)json"
      R"json(cache_hits":0,"e_bc_fallback_fetches":0,"e_states_merged":0,"e_loop_kills":0,"e_)json"
      R"json(edge_kills":0,"e_edge_rule_kills":"","e_fork_sites":"","e_wall_ms":0,"s_queries")json"
      R"json(:0,"s_quick_decides":0,"s_cache_hits":0,"s_sat_calls":0,"s_sat_results":0,"s_uns)json"
      R"json(at_results":0,"s_unknown_results":0,"s_query_timeouts":0,"s_aborted_queries":0,")json"
      R"json(s_total_conflicts":0,"s_total_sat_vars":0,"s_total_sat_clauses":0,"s_model_reuse)json"
      R"json(_hits":0,"s_sc_hits":0,"s_sc_fastpath":0,"s_sc_misses":0,"s_sc_stores":0,"s_sc_v)json"
      R"json(erify_failures":0,"s_max_query_wall_ms":0,"bugs":"ddt-bug-report v1\n"})json";
  std::string path = TempPath("journal_earlier_layout.journal");
  WriteFile(path, earlier);
  std::vector<CampaignPassRecord> records;
  Result<std::unique_ptr<CampaignJournal>> resumed =
      CampaignJournal::OpenForResume(path, "toy", 7, &records);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().find("unsupported version 2"), std::string::npos) << resumed.error();
  EXPECT_TRUE(records.empty());
  Result<std::vector<CampaignPassRecord>> loaded = LoadCampaignJournalRecords(path, "toy", 7);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.error().find("unsupported version 2"), std::string::npos);
  EXPECT_EQ(ReadFile(path), earlier);  // refused, not repaired
}

}  // namespace
}  // namespace ddt
