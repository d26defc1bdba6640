// Translation-cache tests: decode parity against the byte-wise path, block
// structure, the engine write barrier, and the full-corpus differential run
// (cached execution must be instruction-for-instruction identical to the
// original interpreter).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/vm/assembler.h"
#include "src/vm/block_cache.h"

namespace ddt {
namespace {

PciDescriptor TestPci() {
  PciDescriptor pci;
  pci.vendor_id = 1;
  pci.device_id = 1;
  pci.bars.push_back(PciBar{0x100});
  return pci;
}

// --- decode parity ---------------------------------------------------------

TEST(BlockCacheTest, LookupMatchesByteWiseDecodeAcrossCorpus) {
  for (const CorpusDriver& driver : Corpus()) {
    const std::vector<uint8_t>& code = driver.image.code;
    const uint32_t base = 0x10000;
    BlockCache cache(code.data(), code.size(), base);
    size_t slots = code.size() / kInstructionSize;
    for (size_t i = 0; i < slots; ++i) {
      uint32_t pc = base + static_cast<uint32_t>(i * kInstructionSize);
      std::optional<Instruction> reference =
          DecodeInstruction(code.data() + i * kInstructionSize);
      const Instruction* cached = cache.Lookup(pc);
      if (!reference.has_value()) {
        EXPECT_EQ(cached, nullptr) << driver.name << " slot " << i;
        continue;
      }
      ASSERT_NE(cached, nullptr) << driver.name << " slot " << i;
      EXPECT_EQ(cached->opcode, reference->opcode);
      EXPECT_EQ(cached->rd, reference->rd);
      EXPECT_EQ(cached->ra, reference->ra);
      EXPECT_EQ(cached->rb, reference->rb);
      EXPECT_EQ(cached->imm, reference->imm);
    }
    // Every decoded instruction is accounted to exactly one block.
    EXPECT_GT(cache.stats().blocks_decoded, 0u);
  }
}

TEST(BlockCacheTest, RejectsMisalignedAndOutOfRangePcs) {
  // mov r0, r0 (any decodable instruction works).
  std::vector<uint8_t> code(4 * kInstructionSize, 0);
  BlockCache probe(code.data(), code.size(), 0x1000);
  // Offset 0 decodes or not depending on the zero encoding; the point here is
  // range/alignment handling, which must not read memory at all.
  EXPECT_EQ(probe.Lookup(0x0FFC), nullptr);              // below base
  EXPECT_EQ(probe.Lookup(0x1004), nullptr);              // misaligned
  EXPECT_EQ(probe.Lookup(0x1000 + 4 * 8), nullptr);      // one past the end
  EXPECT_EQ(probe.Lookup(0xFFFFFFF8), nullptr);          // far out of range
}

TEST(BlockCacheTest, BlockBoundariesFollowTerminators) {
  Result<AssembledDriver> assembled = Assemble(R"(
  .driver "blocks_toy"
  .entry driver_entry
  .code
  .func driver_entry
    movi r1, 1
    movi r2, 2
    bz r1, skip
    movi r3, 3
  skip:
    ret
)");
  ASSERT_TRUE(assembled.ok()) << assembled.error();
  const std::vector<uint8_t>& code = assembled.value().image.code;
  const uint32_t base = assembled.value().load_base;
  BlockCache cache(code.data(), code.size(), base);

  // Entry block: movi, movi, bz — decoding the first entry stops at the
  // branch terminator.
  ASSERT_NE(cache.Lookup(base), nullptr);
  EXPECT_EQ(cache.stats().blocks_decoded, 1u);
  EXPECT_EQ(cache.stats().instructions_decoded, 3u);
  const Instruction* branch = cache.Lookup(base + 2 * kInstructionSize);
  ASSERT_NE(branch, nullptr);
  EXPECT_EQ(branch->opcode, Opcode::kBz);
  EXPECT_EQ(cache.stats().blocks_decoded, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);

  // Fall-through block: movi r3 then straight-line decode runs on to the ret
  // (a terminator), since `skip:` is only a label, not a barrier. The branch
  // target inside it is then a hit, not a third block.
  const uint32_t fall = base + 3 * kInstructionSize;
  ASSERT_NE(cache.Lookup(fall), nullptr);
  EXPECT_EQ(cache.stats().blocks_decoded, 2u);
  EXPECT_EQ(cache.stats().instructions_decoded, 5u);
  ASSERT_EQ(branch->imm, assembled.value().symbols.at("skip"));
  const Instruction* ret = cache.Lookup(branch->imm);
  ASSERT_NE(ret, nullptr);
  EXPECT_EQ(ret->opcode, Opcode::kRet);
  EXPECT_EQ(cache.stats().blocks_decoded, 2u);
  EXPECT_EQ(cache.stats().hits, 2u);

  // A block entered above an already-decoded region stops where that region
  // begins: entering mid-block first leaves only the leading slot to decode.
  BlockCache mid(code.data(), code.size(), base);
  ASSERT_NE(mid.Lookup(base + kInstructionSize), nullptr);
  EXPECT_EQ(mid.stats().instructions_decoded, 2u);
  ASSERT_NE(mid.Lookup(base), nullptr);
  EXPECT_EQ(mid.stats().blocks_decoded, 2u);
  EXPECT_EQ(mid.stats().instructions_decoded, 3u);
  EXPECT_EQ(mid.stats().hits, 0u);
}

TEST(BlockCacheTest, FallbackFetchesCountUnservableProbes) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  const std::vector<uint8_t>& code = driver.image.code;
  BlockCache cache(code.data(), code.size(), 0x1000);

  ASSERT_NE(cache.Lookup(0x1000), nullptr);
  EXPECT_EQ(cache.stats().fallback_fetches, 0u);

  EXPECT_EQ(cache.Lookup(0x1004), nullptr);  // misaligned
  EXPECT_EQ(cache.stats().fallback_fetches, 1u);
  EXPECT_EQ(cache.Lookup(0x0FF8), nullptr);  // below base
  EXPECT_EQ(cache.stats().fallback_fetches, 2u);

  // An undecodable slot is also a fallback, every time it is probed.
  std::vector<uint8_t> junk(2 * kInstructionSize, 0xFF);
  BlockCache bad(junk.data(), junk.size(), 0);
  EXPECT_EQ(bad.Lookup(0), nullptr);
  EXPECT_EQ(bad.Lookup(0), nullptr);
  EXPECT_EQ(bad.stats().fallback_fetches, 2u);
}

TEST(BlockCacheTest, HitCountingAndIdempotentLookups) {
  const CorpusDriver& driver = CorpusDriverByName("rtl8029");
  const std::vector<uint8_t>& code = driver.image.code;
  BlockCache cache(code.data(), code.size(), 0);
  const Instruction* first = cache.Lookup(0);
  ASSERT_NE(first, nullptr);
  uint64_t decoded = cache.stats().instructions_decoded;
  const Instruction* again = cache.Lookup(0);
  EXPECT_EQ(first, again);  // dense storage: stable addresses
  EXPECT_EQ(cache.stats().instructions_decoded, decoded);  // no re-decode
  EXPECT_GE(cache.stats().hits, 1u);
}

// --- write barrier ---------------------------------------------------------

DdtResult RunBarrierToy(bool enable_cache, bool default_checkers) {
  std::string source = R"(
  .driver "barrier_toy"
  .entry driver_entry
  .code
  .func driver_entry
    la r0, entry_table
    kcall MosRegisterDriver
    ret
  .func ep_init
    la r1, ep_init
    movi r2, 0x90
    st32 [r1+0], r2        ; overwrite own code
    movi r0, 0
    ret
  .data
  entry_table:
    .word ep_init
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
    .word 0
)";
  Result<AssembledDriver> assembled = Assemble(source);
  EXPECT_TRUE(assembled.ok()) << assembled.error();
  DdtConfig config;
  config.engine.max_instructions = 200000;
  config.engine.enable_block_cache = enable_cache;
  config.use_default_checkers = default_checkers;
  Ddt ddt(config);
  Result<DdtResult> result = ddt.TestDriver(assembled.value().image, TestPci());
  EXPECT_TRUE(result.ok()) << result.status().message();
  return result.take();
}

TEST(WriteBarrierTest, CodeWriteReportedEvenWithoutCheckers) {
  // The memory checker normally reports driver code writes; the barrier must
  // hold on its own so the decode-once invariant never depends on checker
  // configuration.
  for (bool enable_cache : {false, true}) {
    DdtResult result = RunBarrierToy(enable_cache, /*default_checkers=*/false);
    bool found = false;
    for (const Bug& bug : result.bugs) {
      if (bug.type == BugType::kMemoryCorruption &&
          bug.title.find("immutable driver code") != std::string::npos) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "cache=" << enable_cache;
  }
}

TEST(WriteBarrierTest, CheckerStillReportsFirstWithDefaultCheckers) {
  DdtResult result = RunBarrierToy(/*enable_cache=*/true, /*default_checkers=*/true);
  bool checker_bug = false;
  for (const Bug& bug : result.bugs) {
    if (bug.title.find("code segment") != std::string::npos) {
      checker_bug = true;
    }
  }
  EXPECT_TRUE(checker_bug);
}

// --- full-corpus differential run ------------------------------------------

// Strips expression pointers (context-specific) so traces compare by value.
struct FlatEvent {
  TraceEvent::Kind kind;
  uint32_t pc, addr, value, a, b;
  uint8_t size;
  bool value_symbolic;
  bool operator==(const FlatEvent& o) const {
    return kind == o.kind && pc == o.pc && addr == o.addr && value == o.value &&
           a == o.a && b == o.b && size == o.size && value_symbolic == o.value_symbolic;
  }
};

std::vector<FlatEvent> Flatten(const std::vector<TraceEvent>& events) {
  std::vector<FlatEvent> out;
  out.reserve(events.size());
  for (const TraceEvent& e : events) {
    out.push_back(FlatEvent{e.kind, e.pc, e.addr, e.value, e.a, e.b, e.size, e.value_symbolic});
  }
  return out;
}

TEST(BlockCacheDifferentialTest, CachedExecutionIdenticalAcrossCorpus) {
  for (const CorpusDriver& driver : Corpus()) {
    DdtResult results[2];
    std::unique_ptr<Ddt> ddts[2];  // bugs reference engine-owned expr storage
    for (int cached = 0; cached < 2; ++cached) {
      DdtConfig config;
      config.engine.max_instructions = 60000;
      config.engine.max_wall_ms = 3'600'000;  // never hit: budget cuts are instruction-determined
      config.engine.enable_block_cache = cached == 1;
      ddts[cached] = std::make_unique<Ddt>(config);
      Result<DdtResult> r = ddts[cached]->TestDriver(driver.image, driver.pci);
      ASSERT_TRUE(r.ok()) << driver.name << ": " << r.status().message();
      results[cached] = r.take();
    }
    const DdtResult& plain = results[0];
    const DdtResult& fast = results[1];

    EXPECT_EQ(plain.stats.instructions, fast.stats.instructions) << driver.name;
    EXPECT_EQ(plain.stats.forks, fast.stats.forks) << driver.name;
    EXPECT_EQ(plain.covered_blocks, fast.covered_blocks) << driver.name;
    ASSERT_EQ(plain.bugs.size(), fast.bugs.size()) << driver.name;
    for (size_t i = 0; i < plain.bugs.size(); ++i) {
      EXPECT_EQ(plain.bugs[i].Row(), fast.bugs[i].Row()) << driver.name;
      EXPECT_EQ(plain.bugs[i].pc, fast.bugs[i].pc);
      EXPECT_TRUE(Flatten(plain.bugs[i].trace) == Flatten(fast.bugs[i].trace))
          << driver.name << " bug " << i << ": traces diverge";
    }
    // The cached run actually used the cache.
    EXPECT_GT(fast.stats.blocks_decoded, 0u) << driver.name;
    EXPECT_GT(fast.stats.block_cache_hits, 0u) << driver.name;
    EXPECT_EQ(plain.stats.blocks_decoded, 0u) << driver.name;
  }
}

TEST(EngineStatsTest, AccumulateSumsCountersAndMaxesHighWater) {
  // kMax is for high-water marks only; every other counter is an event count.
  std::set<std::string> max_rows;
  for (const auto& row : kEngineCounters) {
    if (row.merge == obs::CounterMerge::kMax) {
      max_rows.insert(row.name);
    }
  }
  EXPECT_EQ(max_rows, (std::set<std::string>{"max_live_states", "peak_state_bytes"}));

  EngineStats total;
  EngineStats big;
  EngineStats small;
  for (const auto& row : kEngineCounters) {
    total.*row.field = 40;
    big.*row.field = 100;
    small.*row.field = 1;
  }
  big.edge_rule_kills = {1, 2};
  small.edge_rule_kills = {3};
  big.wall_ms = 10;
  small.wall_ms = 5;
  total.Accumulate(big);
  total.Accumulate(small);
  for (const auto& row : kEngineCounters) {
    EXPECT_EQ(total.*row.field, row.merge == obs::CounterMerge::kMax ? 100u : 141u) << row.name;
  }
  EXPECT_EQ(total.edge_rule_kills, (std::vector<uint64_t>{4, 2}));
  EXPECT_DOUBLE_EQ(total.wall_ms, 15.0);
}

}  // namespace
}  // namespace ddt
