// Campaign checkpoint journal units: the record payload pinned byte for byte,
// full record round-trip (every counter row, stats, bugs, profile,
// quarantine metadata), crash-tolerant resume (torn and corrupt
// trailing records discarded, valid prefix preserved and appendable), and
// header validation (wrong driver / fingerprint / format rejected).
#include "src/core/campaign_journal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <vector>

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
  rec.label = StrFormat("allocation#%llu", static_cast<unsigned long long>(index));
  rec.points.push_back(FaultPoint{FaultClass::kAllocation, static_cast<uint32_t>(index)});
  rec.points.push_back(FaultPoint{FaultClass::kMapIoSpace, 0});
  rec.retries = 1;
  rec.stats.instructions = 123456 + index;
  rec.stats.forks = 7;
  rec.stats.faults_injected = 3;
  rec.stats.peak_state_bytes = 1 << 20;
  rec.stats.wall_ms = 123.45678901234567;  // exercises %.17g round-trip
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
  bug.fault_plan.label = rec.label;
  bug.fault_plan.points = rec.points;
  rec.bugs.push_back(bug);
  return rec;
}

// A record in which every counter, both doubles, the per-rule kills and one
// fork-site row hold distinct values.
CampaignPassRecord GoldenRecord() {
  CampaignPassRecord rec;
  rec.index = 3;
  rec.label = "allocation#1";
  rec.points.push_back(FaultPoint{FaultClass::kAllocation, 1});
  rec.hw_points.push_back(HwFaultPoint{HwFaultKind::kDoorbellDrop, 12});
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
  rec.stats.wall_ms = 123.45678901234567;
  rec.solver_stats.max_query_wall_ms = 7.0625;
  return rec;
}

// The payload is an on-disk format: journals and fleet shard journals written
// by older builds must keep resuming, and fleet workers ship it over the
// wire. The literal pins every key, its position and its encoding.
TEST(CampaignJournalTest, PayloadMatchesThePinnedFormat) {
  const std::string pinned =
      R"json({"i":3,"label":"allocation#1","points":"0#1","hw_points":"5#12","retries":2)json"
      R"json(,"q":0,"failure":"","profile":"4 1 0 2","hw_profile":"5 3 2 7 1")json"
      R"json(,"e_instructions":101,"e_forks":102,"e_dropped_forks":103,"e_states_created":104)json"
      R"json(,"e_states_terminated":105,"e_max_live_states":106,"e_kernel_calls":107)json"
      R"json(,"e_interrupts_injected":108,"e_entry_invocations":109,"e_concretizations":110)json"
      R"json(,"e_concretization_backtracks":111,"e_faults_injected":112,"e_hw_faults":113)json"
      R"json(,"e_hw_removals":114,"e_hw_sticky":115,"e_hw_storms":116,"e_hw_suppressed":117)json"
      R"json(,"e_hw_doorbells_dropped":118,"e_hw_reads_floated":119,"e_hw_writes_dropped":120)json"
      R"json(,"e_hw_removal_events":121,"e_states_evicted":122,"e_peak_state_bytes":123)json"
      R"json(,"e_blocks_decoded":124,"e_block_cache_hits":125,"e_bc_fallback_fetches":126)json"
      R"json(,"e_states_merged":127,"e_loop_kills":128,"e_edge_kills":129)json"
      R"json(,"e_edge_rule_kills":"3 0 5")json"
      R"json(,"e_fork_sites":"00401230:allocation#1:11:12:13:14:15:16")json"
      R"json(,"e_wall_ms":123.45678901234567,"s_queries":201,"s_quick_decides":202)json"
      R"json(,"s_cache_hits":203,"s_sat_calls":204,"s_sat_results":205,"s_unsat_results":206)json"
      R"json(,"s_unknown_results":207,"s_query_timeouts":208,"s_aborted_queries":209)json"
      R"json(,"s_total_conflicts":210,"s_total_sat_vars":211,"s_total_sat_clauses":212)json"
      R"json(,"s_model_reuse_hits":213,"s_sc_hits":214,"s_sc_fastpath":215,"s_sc_misses":216)json"
      R"json(,"s_sc_stores":217,"s_sc_verify_failures":218,"s_max_query_wall_ms":7.0625)json"
      R"json(,"bugs":"ddt-bug-report v1\n"})json";
  EXPECT_EQ(EncodeCampaignPassRecord(GoldenRecord()), pinned);
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

// Two rows sharing a journal key or a metric name would overwrite each other.
TEST(CampaignJournalTest, CounterRowsHaveDistinctKeysAndMetrics) {
  std::set<std::string> keys;
  std::set<std::string> metrics;
  size_t rows = 0;
  auto collect = [&](const auto& table) {
    for (const auto& row : table) {
      keys.insert(row.journal_key);
      metrics.insert(row.metric);
      ++rows;
    }
  };
  collect(kEngineCounters);
  collect(kSolverCounters);
  EXPECT_EQ(keys.size(), rows);
  EXPECT_EQ(metrics.size(), rows);
}

TEST(CampaignJournalTest, RoundTripsRecordsExactly) {
  std::string path = TempPath("journal_roundtrip.journal");
  {
    Result<std::unique_ptr<CampaignJournal>> journal =
        CampaignJournal::Create(path, "toy", 0xABCDEF0123456789ull);
    ASSERT_TRUE(journal.ok()) << journal.error();
    CampaignPassRecord baseline = SampleRecord(0);
    baseline.label.clear();
    baseline.points.clear();
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
  EXPECT_TRUE(records[0].points.empty());

  const CampaignPassRecord& rec = records[1];
  CampaignPassRecord want = SampleRecord(1);
  EXPECT_EQ(rec.index, 1u);
  EXPECT_EQ(rec.label, want.label);
  ASSERT_EQ(rec.points.size(), 2u);
  EXPECT_TRUE(rec.points[0] == want.points[0]);
  EXPECT_TRUE(rec.points[1] == want.points[1]);
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

// Journals and fleet shard journals written before the tier-2 execution
// counters were retired still carry their keys, right after
// e_bc_fallback_fetches. Decoding ignores them, so those journals resume.
TEST(CampaignJournalTest, RetiredCounterKeysDecodeToTheSameRecord) {
  CampaignPassRecord record = SampleRecord(1);
  record.stats.blocks_decoded = 40;
  record.stats.block_cache_fallback_fetches = 2;
  const std::string payload = EncodeCampaignPassRecord(record);
  const std::string anchor = "\"e_bc_fallback_fetches\":2";
  size_t at = payload.find(anchor);
  ASSERT_NE(at, std::string::npos) << payload;
  at += anchor.size();
  const std::string legacy = payload.substr(0, at) +
                             ",\"e_bc_hot_blocks\":3,\"e_sb_compiled\":4,"
                             "\"e_sb_ops_lowered\":50,\"e_sb_entries\":60,"
                             "\"e_sb_chains\":7,\"e_sb_side_exits\":8,"
                             "\"e_sb_instructions\":900" +
                             payload.substr(at);

  CampaignPassRecord current;
  CampaignPassRecord old;
  ASSERT_TRUE(DecodeCampaignPassRecord(payload, &current));
  ASSERT_TRUE(DecodeCampaignPassRecord(legacy, &old)) << legacy;
  EXPECT_EQ(EncodeCampaignPassRecord(old), EncodeCampaignPassRecord(current));
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

  Result<std::unique_ptr<CampaignJournal>> unwritable =
      CampaignJournal::Create("/nonexistent-dir/j.journal", "toy", 7);
  ASSERT_FALSE(unwritable.ok());
  EXPECT_NE(unwritable.error().find("cannot open"), std::string::npos);
}

// A journal written before the record layout — one JSON line per record
// (these bytes, verbatim) — is refused with an error and restores nothing.
TEST(CampaignJournalTest, RefusesAJournalInTheEarlierLayout) {
  const std::string earlier =
      R"json({"format":"ddt-campaign-journal","v":1,"driver":"toy","fp":"0000000000000007"}
)json"
      R"json({"crc":"5CD0DE07","record":{"i":0,"label":"","points":"","hw_points":"","retries)json"
      R"json(":0,"q":0,"failure":"","profile":"1 0 0 0","hw_profile":"0 0 0 0 0","e_instructi)json"
      R"json(ons":0,"e_forks":0,"e_dropped_forks":0,"e_states_created":0,"e_states_terminated)json"
      R"json(":0,"e_max_live_states":0,"e_kernel_calls":0,"e_interrupts_injected":0,"e_entry_)json"
      R"json(invocations":0,"e_concretizations":0,"e_concretization_backtracks":0,"e_faults_i)json"
      R"json(njected":0,"e_hw_faults":0,"e_hw_removals":0,"e_hw_sticky":0,"e_hw_storms":0,"e_)json"
      R"json(hw_suppressed":0,"e_hw_doorbells_dropped":0,"e_hw_reads_floated":0,"e_hw_writes_)json"
      R"json(dropped":0,"e_hw_removal_events":0,"e_states_evicted":0,"e_peak_state_bytes":0,")json"
      R"json(e_blocks_decoded":0,"e_block_cache_hits":0,"e_bc_fallback_fetches":0,"e_states_m)json"
      R"json(erged":0,"e_loop_kills":0,"e_edge_kills":0,"e_edge_rule_kills":"","e_fork_sites")json"
      R"json(:"","e_wall_ms":0,"s_queries":0,"s_quick_decides":0,"s_cache_hits":0,"s_sat_call)json"
      R"json(s":0,"s_sat_results":0,"s_unsat_results":0,"s_unknown_results":0,"s_query_timeou)json"
      R"json(ts":0,"s_aborted_queries":0,"s_total_conflicts":0,"s_total_sat_vars":0,"s_total_)json"
      R"json(sat_clauses":0,"s_model_reuse_hits":0,"s_sc_hits":0,"s_sc_fastpath":0,"s_sc_miss)json"
      R"json(es":0,"s_sc_stores":0,"s_sc_verify_failures":0,"s_max_query_wall_ms":0,"bugs":"d)json"
      R"json(dt-bug-report v1\n"}}
)json";
  std::string path = TempPath("journal_earlier_layout.jsonl");
  WriteFile(path, earlier);
  std::vector<CampaignPassRecord> records;
  Result<std::unique_ptr<CampaignJournal>> resumed =
      CampaignJournal::OpenForResume(path, "toy", 7, &records);
  ASSERT_FALSE(resumed.ok());
  EXPECT_NE(resumed.error().find("not a DDT campaign journal"), std::string::npos);
  EXPECT_TRUE(records.empty());
  EXPECT_FALSE(LoadCampaignJournalRecords(path, "toy", 7).ok());
  EXPECT_EQ(ReadFile(path), earlier);  // refused, not repaired
}

}  // namespace
}  // namespace ddt
