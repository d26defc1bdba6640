// Campaign checkpoint journal units: full record round-trip (stats, bugs,
// profile, quarantine metadata), crash-tolerant resume (torn and corrupt
// trailing records discarded, valid prefix preserved and appendable), and
// header validation (wrong driver / fingerprint / format rejected).
#include "src/core/campaign_journal.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <string>
#include <vector>

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

TEST(CampaignJournalTest, RoundTripsRecordsExactly) {
  std::string path = TempPath("journal_roundtrip.jsonl");
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
  std::string path = TempPath("journal_torn.jsonl");
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(0)).ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(1)).ok());
  }
  std::string intact = ReadFile(path);
  // Simulate a kill mid-append: half a record, no trailing newline.
  WriteFile(path, intact + "{\"crc\":\"DEADBEEF\",\"record\":{\"i\":2,\"labe");

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
  std::string path = TempPath("journal_corrupt.jsonl");
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    ASSERT_TRUE(journal.ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(0)).ok());
    ASSERT_TRUE(journal.value()->Append(SampleRecord(1)).ok());
  }
  // Flip one payload byte inside the final (complete) line: CRC must catch it.
  std::string content = ReadFile(path);
  size_t last_line_start = content.rfind('\n', content.size() - 2) + 1;
  content[last_line_start + 40] ^= 0x20;
  WriteFile(path, content);

  std::vector<CampaignPassRecord> records;
  Result<std::unique_ptr<CampaignJournal>> resumed =
      CampaignJournal::OpenForResume(path, "toy", 7, &records);
  ASSERT_TRUE(resumed.ok()) << resumed.error();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].index, 0u);
}

TEST(CampaignJournalTest, RejectsMismatchedOrInvalidJournals) {
  std::string path = TempPath("journal_validate.jsonl");
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
      CampaignJournal::OpenForResume(TempPath("nope.jsonl"), "toy", 7, &records);
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.error().find("does not exist"), std::string::npos);

  std::string not_journal = TempPath("journal_notajournal.txt");
  WriteFile(not_journal, "hello world\n");
  Result<std::unique_ptr<CampaignJournal>> bad =
      CampaignJournal::OpenForResume(not_journal, "toy", 7, &records);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().find("not a DDT campaign journal"), std::string::npos);

  Result<std::unique_ptr<CampaignJournal>> unwritable =
      CampaignJournal::Create("/nonexistent-dir/j.jsonl", "toy", 7);
  ASSERT_FALSE(unwritable.ok());
  EXPECT_NE(unwritable.error().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace ddt
