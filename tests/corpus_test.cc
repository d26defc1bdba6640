// Corpus-level integration tests: DDT must find exactly the seeded Table-2
// bugs in each of the six drivers — the 14 bugs, with no extra warnings
// (the paper reports zero false positives) — and every found bug must
// replay.
#include "src/drivers/corpus.h"

#include <gtest/gtest.h>

#include <set>

#include "src/core/bug_io.h"
#include "src/core/ddt.h"
#include "src/core/replay.h"
#include "src/support/crc32.h"

namespace ddt {
namespace {

DdtConfig CorpusConfig() {
  DdtConfig config;
  config.engine.max_instructions = 2'000'000;
  config.engine.max_wall_ms = 120'000;
  config.engine.max_states = 512;
  return config;
}

// Greedily pairs expected bugs with distinct found bugs by (type, keyword).
// Returns the unmatched expected bugs.
std::vector<const ExpectedBug*> MatchBugs(const std::vector<ExpectedBug>& expected,
                                          const std::vector<Bug>& found,
                                          std::set<size_t>* used) {
  std::vector<const ExpectedBug*> missing;
  for (const ExpectedBug& want : expected) {
    bool matched = false;
    for (size_t i = 0; i < found.size(); ++i) {
      if (used->count(i) != 0) {
        continue;
      }
      if (found[i].type == want.type &&
          found[i].title.find(want.keyword) != std::string::npos) {
        used->insert(i);
        matched = true;
        break;
      }
    }
    if (!matched) {
      missing.push_back(&want);
    }
  }
  return missing;
}

// Each driver's evidence at CorpusConfig(), pinned so that a change to the
// solver or the engine that alters a single saved trace, solved input,
// covered block or executed instruction fails here, not only in a diff of
// two runs of the same build. `bugs_crc` is the CRC32 of SerializeBugs over
// the run's bugs (the bytes `ddt_cli test` saves).
struct PinnedEvidence {
  const char* driver;
  uint32_t bugs_crc;
  size_t covered_blocks;
  uint64_t instructions;
};

constexpr PinnedEvidence kPinnedEvidence[] = {
    {"rtl8029", 0xdf781fb9u, 178, 22692},   {"pcnet", 0x8813f04bu, 371, 29816},
    {"pro1000", 0x26e15eaeu, 4218, 33787},  {"pro100", 0x320a6e69u, 1322, 42734},
    {"audiopci", 0x340f70d2u, 1062, 14707}, {"ac97", 0xe9f70a98u, 1223, 19573},
};

class CorpusTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CorpusTest, FindsExactlyTheSeededBugs) {
  const CorpusDriver& driver = CorpusDriverByName(GetParam());
  Ddt ddt(CorpusConfig());
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok()) << result.status().message();
  const DdtResult& r = result.value();

  std::set<size_t> used;
  std::vector<const ExpectedBug*> missing = MatchBugs(driver.expected, r.bugs, &used);
  std::string report = r.FormatReport(driver.name);
  for (const Bug& bug : r.bugs) {
    report += bug.Format(12);
  }
  for (const ExpectedBug* want : missing) {
    ADD_FAILURE() << driver.name << ": missing expected bug [" << BugTypeName(want->type)
                  << " ~ '" << want->keyword << "']: " << want->description << "\n"
                  << report;
  }
  // Zero false positives: every found bug must correspond to a seeded one.
  for (size_t i = 0; i < r.bugs.size(); ++i) {
    if (used.count(i) == 0) {
      ADD_FAILURE() << driver.name << ": unexpected bug (false positive?): "
                    << r.bugs[i].Format(12);
    }
  }

  const PinnedEvidence* pinned = nullptr;
  for (const PinnedEvidence& p : kPinnedEvidence) {
    if (driver.name == p.driver) {
      pinned = &p;
    }
  }
  ASSERT_NE(pinned, nullptr) << driver.name << ": no pinned evidence";
  uint32_t bugs_crc = Crc32(SerializeBugs(r.bugs));
  EXPECT_EQ(bugs_crc, pinned->bugs_crc)
      << driver.name << ": saved bug evidence changed (crc 0x" << std::hex << bugs_crc << ")";
  EXPECT_EQ(r.covered_blocks, pinned->covered_blocks) << driver.name;
  EXPECT_EQ(r.stats.instructions, pinned->instructions) << driver.name;
}

TEST_P(CorpusTest, EveryBugReplays) {
  const CorpusDriver& driver = CorpusDriverByName(GetParam());
  DdtConfig config = CorpusConfig();
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(driver.image, driver.pci);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result.value().bugs.empty());
  for (const Bug& bug : result.value().bugs) {
    ReplayResult replay = ReplayBug(driver.image, driver.pci, bug, config);
    EXPECT_TRUE(replay.reproduced)
        << driver.name << ": bug failed to replay: " << bug.Row() << "\n  " << replay.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(AllDrivers, CorpusTest,
                         ::testing::Values("rtl8029", "pcnet", "pro1000", "pro100", "audiopci",
                                           "ac97"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

TEST(CorpusStructureTest, FourteenBugsAcrossSixDrivers) {
  size_t total = 0;
  for (const CorpusDriver& driver : Corpus()) {
    total += driver.expected.size();
  }
  EXPECT_EQ(total, 14u);
  EXPECT_EQ(Corpus().size(), 6u);
}

TEST(CorpusStructureTest, Table1OrderingsHold) {
  auto size_of = [](const char* name) {
    return CorpusDriverByName(name).image.BinaryFileSize();
  };
  auto funcs_of = [](const char* name) {
    return CorpusDriverByName(name).assembled.functions.size();
  };
  auto imports_of = [](const char* name) {
    return CorpusDriverByName(name).image.imports.size();
  };
  // Binary size: Pro/1000 > Pro/100 > AC97 > AudioPCI > PCNet > RTL8029.
  EXPECT_GT(size_of("pro1000"), size_of("pro100"));
  EXPECT_GT(size_of("pro100"), size_of("ac97"));
  EXPECT_GT(size_of("ac97"), size_of("audiopci"));
  EXPECT_GT(size_of("audiopci"), size_of("pcnet"));
  EXPECT_GT(size_of("pcnet"), size_of("rtl8029"));
  // Function count: Pro/1000 > AudioPCI > AC97 > Pro/100 > PCNet > RTL8029.
  EXPECT_GT(funcs_of("pro1000"), funcs_of("audiopci"));
  EXPECT_GT(funcs_of("audiopci"), funcs_of("ac97"));
  EXPECT_GT(funcs_of("ac97"), funcs_of("pro100"));
  EXPECT_GT(funcs_of("pro100"), funcs_of("pcnet"));
  EXPECT_GT(funcs_of("pcnet"), funcs_of("rtl8029"));
  // Imported kernel functions: Pro/1000 > Pro/100 > AudioPCI > PCNet >
  // RTL8029 > AC97.
  EXPECT_GT(imports_of("pro1000"), imports_of("pro100"));
  EXPECT_GT(imports_of("pro100"), imports_of("audiopci"));
  EXPECT_GT(imports_of("audiopci"), imports_of("pcnet"));
  EXPECT_GT(imports_of("pcnet"), imports_of("rtl8029"));
  EXPECT_GT(imports_of("rtl8029"), imports_of("ac97"));
}

}  // namespace
}  // namespace ddt
