// Searcher policy units: selection order for the FIFO-style BFS policy and
// the coverage-starved policy (src/engine/pathctl.h's scheduling leg), plus
// the determinism property the pathctl contract rests on — identical inputs
// produce the identical selection sequence, and coverage-starved consults no
// RNG at all. Also the engine's block counts the coverage searchers consult,
// against a brute-force search of the CFG.
#include "src/engine/searcher.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/engine/engine.h"
#include "src/engine/execution_state.h"

namespace ddt {
namespace {

class FakeOracle : public BlockCountOracle {
 public:
  uint64_t BlockCountAt(uint32_t pc) const override {
    auto it = counts_.find(pc);
    return it == counts_.end() ? 0 : it->second;
  }
  void Set(uint32_t pc, uint64_t count) { counts_[pc] = count; }

 private:
  std::map<uint32_t, uint64_t> counts_;
};

std::vector<std::unique_ptr<ExecutionState>> MakeStates(
    const std::vector<uint32_t>& pcs) {
  std::vector<std::unique_ptr<ExecutionState>> states;
  for (size_t i = 0; i < pcs.size(); ++i) {
    auto st = std::make_unique<ExecutionState>();
    st->id = i + 1;
    st->pc = pcs[i];
    states.push_back(std::move(st));
  }
  return states;
}

std::vector<ExecutionState*> Raw(
    const std::vector<std::unique_ptr<ExecutionState>>& states) {
  std::vector<ExecutionState*> raw;
  for (const auto& st : states) {
    raw.push_back(st.get());
  }
  return raw;
}

TEST(SearcherTest, NamesRoundTripThroughParse) {
  for (SearchStrategy s : {SearchStrategy::kCoverageGreedy, SearchStrategy::kDfs,
                           SearchStrategy::kBfs, SearchStrategy::kRandom,
                           SearchStrategy::kCoverageStarved}) {
    SearchStrategy parsed = SearchStrategy::kRandom;
    ASSERT_TRUE(ParseSearchStrategy(SearchStrategyName(s), &parsed))
        << SearchStrategyName(s);
    EXPECT_EQ(parsed, s);
  }
  SearchStrategy out;
  EXPECT_FALSE(ParseSearchStrategy("coverage", &out));
  EXPECT_FALSE(ParseSearchStrategy("", &out));
  EXPECT_FALSE(ParseSearchStrategy("COVERAGE-STARVED", &out));
}

TEST(SearcherTest, BfsIsFifoDfsIsLifo) {
  auto states = MakeStates({0x100, 0x200, 0x300});
  std::vector<ExecutionState*> raw = Raw(states);
  std::unique_ptr<Searcher> bfs = MakeSearcher(SearchStrategy::kBfs, nullptr, 1);
  std::unique_ptr<Searcher> dfs = MakeSearcher(SearchStrategy::kDfs, nullptr, 1);
  EXPECT_EQ(bfs->Select(raw), 0u);  // oldest state first
  EXPECT_EQ(dfs->Select(raw), 2u);  // newest state first
}

TEST(SearcherTest, CoverageStarvedPrefersUncoveredBlocks) {
  FakeOracle oracle;
  oracle.Set(0x100, 50);  // hot polling loop
  oracle.Set(0x200, 3);
  // 0x300 never executed -> count 0.
  auto states = MakeStates({0x100, 0x200, 0x300});
  std::unique_ptr<Searcher> searcher =
      MakeSearcher(SearchStrategy::kCoverageStarved, &oracle, 1);
  EXPECT_EQ(searcher->Select(Raw(states)), 2u);

  // Once every candidate's next block is covered, the least-executed wins;
  // the polling-loop state (largest count) is selected last of all.
  oracle.Set(0x300, 7);
  EXPECT_EQ(searcher->Select(Raw(states)), 1u);
  oracle.Set(0x200, 80);
  oracle.Set(0x300, 90);
  EXPECT_EQ(searcher->Select(Raw(states)), 0u);
}

TEST(SearcherTest, CoverageStarvedBreaksTiesByStateOrder) {
  FakeOracle oracle;
  oracle.Set(0x100, 5);
  oracle.Set(0x200, 5);
  oracle.Set(0x300, 5);
  auto states = MakeStates({0x100, 0x200, 0x300});
  std::unique_ptr<Searcher> searcher =
      MakeSearcher(SearchStrategy::kCoverageStarved, &oracle, 1);
  // All tied: the first index wins, deterministically, every time.
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(searcher->Select(Raw(states)), 0u);
  }
}

TEST(SearcherTest, IdenticalInputsProduceIdenticalSelectionSequences) {
  FakeOracle oracle;
  oracle.Set(0x100, 2);
  oracle.Set(0x200, 9);
  oracle.Set(0x300, 1);
  oracle.Set(0x400, 9);
  auto states = MakeStates({0x100, 0x200, 0x300, 0x400});
  std::vector<ExecutionState*> raw = Raw(states);
  for (SearchStrategy s : {SearchStrategy::kCoverageGreedy, SearchStrategy::kDfs,
                           SearchStrategy::kBfs, SearchStrategy::kRandom,
                           SearchStrategy::kCoverageStarved}) {
    std::unique_ptr<Searcher> a = MakeSearcher(s, &oracle, 42);
    std::unique_ptr<Searcher> b = MakeSearcher(s, &oracle, 42);
    for (int step = 0; step < 32; ++step) {
      ASSERT_EQ(a->Select(raw), b->Select(raw))
          << SearchStrategyName(s) << " diverged at step " << step;
    }
  }
}

// Two *separately constructed* coverage-starved searchers agree even when
// consulted in interleaved orders: selection is a pure function of (states,
// coverage), with no per-instance mutable state.
TEST(SearcherTest, CoverageStarvedIsStateless) {
  FakeOracle oracle;
  oracle.Set(0x100, 4);
  oracle.Set(0x200, 2);
  auto states = MakeStates({0x100, 0x200});
  std::vector<ExecutionState*> raw = Raw(states);
  std::unique_ptr<Searcher> a =
      MakeSearcher(SearchStrategy::kCoverageStarved, &oracle, 1);
  std::unique_ptr<Searcher> b =
      MakeSearcher(SearchStrategy::kCoverageStarved, &oracle, 999);
  EXPECT_EQ(a->Select(raw), 1u);
  oracle.Set(0x200, 40);
  EXPECT_EQ(b->Select(raw), 0u);
  EXPECT_EQ(a->Select(raw), 0u);  // a saw b's world change; no hidden history
}

// After a real run, every pc of the code window (misaligned ones included)
// and a margin on both sides of it: BlockCountAt is the count of the block a
// linear search of the CFG puts the pc in, and 0 where no block holds it. A
// leader's count is nonzero exactly when the coverage bitmap has its block.
TEST(BlockCountOracleTest, EngineCountsMatchBruteForceOverTheCfg) {
  for (const char* name : {"rtl8029", "pro1000"}) {
    SCOPED_TRACE(name);
    const CorpusDriver& driver = CorpusDriverByName(name);
    Ddt ddt{DdtConfig()};
    ASSERT_TRUE(ddt.TestDriver(driver.image, driver.pci).ok());
    const Engine& engine = ddt.engine();
    const LoadedDriver& loaded = engine.loaded_driver();
    CoverageBitmap covered = engine.CoverageSnapshot();
    size_t ran_blocks = 0;
    for (const auto& [leader, block] : engine.cfg().blocks) {
      bool ran = engine.BlockCountAt(leader) > 0;
      ran_blocks += ran;
      EXPECT_EQ(ran, covered.Test((leader - loaded.code_begin) / kInstructionSize)) << leader;
    }
    EXPECT_GT(ran_blocks, 10u);
    for (uint32_t pc = loaded.code_begin - 64; pc < loaded.code_end + 64; ++pc) {
      const BasicBlock* home = nullptr;
      for (const auto& [leader, block] : engine.cfg().blocks) {
        if (pc >= block.begin && pc < block.end) {
          home = &block;
          break;
        }
      }
      uint64_t expected = home == nullptr ? 0 : engine.BlockCountAt(home->begin);
      ASSERT_EQ(engine.BlockCountAt(pc), expected) << "pc " << pc;
    }
  }
}

}  // namespace
}  // namespace ddt
