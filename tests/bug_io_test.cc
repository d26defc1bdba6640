// Bug-report serialization tests, ending with the headline property: a bug
// found in one process, saved to disk, loaded back, still replays.
#include "src/core/bug_io.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/drivers/corpus.h"

namespace ddt {
namespace {

Bug MakeBug() {
  Bug bug;
  bug.type = BugType::kRaceCondition;
  bug.title = "BSOD 0xDE: timer never initialized";
  bug.details = "line one\nline two with \\backslash";
  bug.driver = "rtl8029";
  bug.checker = "engine";
  bug.pc = 0x10450;
  bug.state_id = 42;
  bug.context = ExecContextKind::kIsr;
  SolvedInput input;
  input.var_name = "hw_rtl8029_0_0";
  input.origin.source = VarOrigin::Source::kHardwareRead;
  input.origin.label = "rtl8029";
  input.origin.aux = 0;
  input.origin.seq = 0;
  input.width = 32;
  input.value = 1;
  input.proximate = true;
  bug.inputs.push_back(input);
  bug.interrupt_schedule = {14};
  bug.alternatives.emplace_back(3, "MosAllocatePool-fails");
  bug.workload_trail = {0};
  return bug;
}

TEST(BugIoTest, RoundTripPreservesReplayFields) {
  std::vector<Bug> bugs = {MakeBug()};
  std::string text = SerializeBugs(bugs);
  Result<std::vector<Bug>> loaded = DeserializeBugs(text);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), 1u);
  const Bug& bug = loaded.value()[0];
  EXPECT_EQ(bug.type, BugType::kRaceCondition);
  EXPECT_EQ(bug.title, "BSOD 0xDE: timer never initialized");
  EXPECT_EQ(bug.driver, "rtl8029");
  EXPECT_EQ(bug.pc, 0x10450u);
  EXPECT_EQ(bug.context, ExecContextKind::kIsr);
  ASSERT_EQ(bug.inputs.size(), 1u);
  EXPECT_EQ(bug.inputs[0].var_name, "hw_rtl8029_0_0");
  EXPECT_EQ(bug.inputs[0].origin.source, VarOrigin::Source::kHardwareRead);
  EXPECT_EQ(bug.inputs[0].origin.label, "rtl8029");
  EXPECT_EQ(bug.inputs[0].value, 1u);
  EXPECT_TRUE(bug.inputs[0].proximate);
  ASSERT_EQ(bug.interrupt_schedule.size(), 1u);
  EXPECT_EQ(bug.interrupt_schedule[0], 14u);
  ASSERT_EQ(bug.alternatives.size(), 1u);
  EXPECT_EQ(bug.alternatives[0].first, 3u);
  EXPECT_EQ(bug.alternatives[0].second, "MosAllocatePool-fails");
  ASSERT_EQ(bug.workload_trail.size(), 1u);
}

TEST(BugIoTest, MultipleBugs) {
  std::vector<Bug> bugs = {MakeBug(), MakeBug(), MakeBug()};
  bugs[1].title = "second";
  bugs[2].title = "third";
  Result<std::vector<Bug>> loaded = DeserializeBugs(SerializeBugs(bugs));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  EXPECT_EQ(loaded.value()[1].title, "second");
  EXPECT_EQ(loaded.value()[2].title, "third");
}

TEST(BugIoTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeBugs("not a report").ok());
  EXPECT_FALSE(DeserializeBugs("ddt-bug-report v1\nbug\n").ok());  // truncated
}

TEST(BugIoTest, EscapingSurvivesNewlinesAndBackslashes) {
  std::vector<Bug> bugs = {MakeBug()};
  Result<std::vector<Bug>> loaded = DeserializeBugs(SerializeBugs(bugs));
  ASSERT_TRUE(loaded.ok());
  EXPECT_NE(loaded.value()[0].details.find("line one\nline two"), std::string::npos);
}

// Evidence crosses process boundaries more than once: a fleet pass's bugs go
// worker -> coordinator -> journal, and fuzz bugs ride the corpus file. From
// the second serialization on, a round trip must reproduce the text byte for
// byte, or every trip grows it.
TEST(BugIoTest, SecondRoundTripIsAFixedPoint) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_states = 512;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().bugs.empty());

  Result<std::vector<Bug>> once = DeserializeBugs(SerializeBugs(result.value().bugs));
  ASSERT_TRUE(once.ok()) << once.error();
  std::string second = SerializeBugs(once.value());
  Result<std::vector<Bug>> twice = DeserializeBugs(second);
  ASSERT_TRUE(twice.ok()) << twice.error();
  EXPECT_EQ(SerializeBugs(twice.value()), second);
  ASSERT_EQ(twice.value().size(), result.value().bugs.size());
  for (size_t i = 0; i < twice.value().size(); ++i) {
    EXPECT_EQ(twice.value()[i].Row(), result.value().bugs[i].Row());
    EXPECT_EQ(twice.value()[i].details, once.value()[i].details);
  }
}

TEST(BugIoTest, SavedBugStillReplaysAfterLoad) {
  // Find the rtl8029 bugs, save the report, load it back, replay every bug
  // from the deserialized evidence alone.
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_states = 512;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().bugs.empty());

  std::string path = "/tmp/ddt_bug_io_test.report";
  ASSERT_TRUE(SaveBugsFile(path, result.value().bugs).ok());
  Result<std::vector<Bug>> loaded = LoadBugsFile(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error();
  ASSERT_EQ(loaded.value().size(), result.value().bugs.size());

  for (const Bug& bug : loaded.value()) {
    ReplayResult replay = ReplayBug(driver.image, driver.pci, bug, config);
    EXPECT_TRUE(replay.reproduced)
        << "loaded bug failed to replay: " << bug.Row() << " — " << replay.detail;
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddt
