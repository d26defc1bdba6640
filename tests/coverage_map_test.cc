// CoverageBitmap: the stable novelty API the fuzz corpus and promotion
// scoring are built on. Units for the set algebra (snapshot, diff, popcount,
// fingerprint, word codec round-trip), plus an engine-level check that bitmaps
// snapshotted from forked symbolic exploration and from a single guided
// replay of one of its paths diff the way a corpus manager relies on: the
// replayed path is a strict subset of the exploration that derived it.
#include "src/vm/coverage_map.h"

#include <gtest/gtest.h>

#include <string>

#include "src/core/ddt.h"
#include "src/drivers/corpus.h"

namespace ddt {
namespace {

TEST(CoverageBitmapTest, SetTestAndPopcount) {
  CoverageBitmap map(128);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.Popcount(), 0u);

  EXPECT_TRUE(map.Set(0));
  EXPECT_TRUE(map.Set(63));
  EXPECT_TRUE(map.Set(64));
  EXPECT_TRUE(map.Set(127));
  EXPECT_FALSE(map.Set(64));  // already set
  EXPECT_EQ(map.Popcount(), 4u);
  EXPECT_TRUE(map.Test(0));
  EXPECT_TRUE(map.Test(127));
  EXPECT_FALSE(map.Test(1));
  EXPECT_FALSE(map.Test(1000));  // out of range reads as clear
}

TEST(CoverageBitmapTest, SetGrowsOutOfRangeSlots) {
  CoverageBitmap map(8);
  EXPECT_TRUE(map.Set(500));
  EXPECT_TRUE(map.Test(500));
  EXPECT_GE(map.num_slots(), 501u);
  EXPECT_EQ(map.Popcount(), 1u);
}

TEST(CoverageBitmapTest, OrWithReturnsFreshCountAndUnions) {
  CoverageBitmap a(256);
  a.Set(1);
  a.Set(2);
  a.Set(200);
  CoverageBitmap b(64);  // differently sized snapshots must stay comparable
  b.Set(2);
  b.Set(3);

  EXPECT_EQ(a.OrWith(b), 1u);  // only slot 3 was new
  EXPECT_EQ(a.Popcount(), 4u);
  EXPECT_TRUE(a.Test(3));
  EXPECT_EQ(a.OrWith(b), 0u);  // idempotent
}

TEST(CoverageBitmapTest, NewlyCoveredDiffsWithoutMutating) {
  CoverageBitmap cumulative(128);
  cumulative.Set(10);
  cumulative.Set(20);
  CoverageBitmap fresh(128);
  fresh.Set(20);
  fresh.Set(21);
  fresh.Set(22);

  EXPECT_EQ(cumulative.NewlyCovered(fresh), 2u);
  EXPECT_EQ(fresh.NewlyCovered(cumulative), 1u);
  EXPECT_EQ(cumulative.Popcount(), 2u);  // unchanged
  EXPECT_EQ(fresh.Popcount(), 3u);
  EXPECT_EQ(cumulative.NewlyCovered(cumulative), 0u);
}

TEST(CoverageBitmapTest, FingerprintIgnoresAllocatedSize) {
  CoverageBitmap small(8);
  small.Set(5);
  CoverageBitmap large(4096);
  large.Set(5);
  EXPECT_EQ(small.Fingerprint(), large.Fingerprint());
  EXPECT_TRUE(small == large);

  large.Set(6);
  EXPECT_NE(small.Fingerprint(), large.Fingerprint());
  EXPECT_FALSE(small == large);

  // The empty bitmap has a stable fingerprint too.
  EXPECT_EQ(CoverageBitmap().Fingerprint(), CoverageBitmap(512).Fingerprint());
}

TEST(CoverageBitmapTest, WordsRoundTrip) {
  CoverageBitmap map(200);
  map.Set(0);
  map.Set(65);
  map.Set(199);
  ByteWriter w;
  map.Encode(&w);
  EXPECT_EQ(w.bytes().size(), 4u + 4 * 8);  // a count, then whole words

  ByteReader r(w.bytes());
  CoverageBitmap back;
  ASSERT_TRUE(CoverageBitmap::Decode(&r, &back));
  EXPECT_TRUE(r.Done());
  EXPECT_TRUE(back == map);
  EXPECT_TRUE(back.Test(0));
  EXPECT_TRUE(back.Test(65));
  EXPECT_TRUE(back.Test(199));

  // Trailing zero words are not significant: a grown bitmap encodes alike.
  CoverageBitmap grown = map;
  grown.Resize(4096);
  ByteWriter grown_w;
  grown.Encode(&grown_w);
  EXPECT_EQ(grown_w.bytes(), w.bytes());

  ByteWriter empty_w;
  CoverageBitmap().Encode(&empty_w);
  ByteReader empty_r(empty_w.bytes());
  CoverageBitmap empty_back;
  ASSERT_TRUE(CoverageBitmap::Decode(&empty_r, &empty_back));
  EXPECT_TRUE(empty_back.empty());
}

TEST(CoverageBitmapTest, DecodeRejectsMalformedWords) {
  auto decodes = [](const std::string& bytes) {
    ByteReader r(bytes);
    CoverageBitmap out;
    return CoverageBitmap::Decode(&r, &out);
  };
  ByteWriter torn;  // claims two words, holds one and a half
  torn.U32(2);
  torn.U64(1);
  torn.U32(1);
  EXPECT_FALSE(decodes(torn.bytes()));
  ByteWriter lying;  // a count far past the bytes
  lying.U32(0xFFFFFFFFu);
  lying.U64(1);
  EXPECT_FALSE(decodes(lying.bytes()));
  ByteWriter zero_tail;  // Encode never writes a trailing zero word
  zero_tail.U32(2);
  zero_tail.U64(1);
  zero_tail.U64(0);
  EXPECT_FALSE(decodes(zero_tail.bytes()));
}

// Forked-path diffing: a full symbolic exploration of rtl8029 forks into many
// paths; a guided replay of one derived path model walks exactly one of them.
// The replay's bitmap must be non-empty, contribute nothing new to the
// exploration's bitmap, and be strictly smaller — the subset relation every
// corpus-admission decision builds on.
TEST(CoverageBitmapTest, GuidedReplayCoversSubsetOfForkedExploration) {
  const CorpusDriver& rtl = CorpusDriverByName("rtl8029");

  DdtConfig config;
  config.engine.max_path_seeds = 4;
  Ddt explore(config);
  Result<DdtResult> run = explore.TestDriver(rtl.image, rtl.pci);
  ASSERT_TRUE(run.ok()) << run.status().message();
  ASSERT_FALSE(run.value().path_seeds.empty());
  CoverageBitmap explored = explore.engine().CoverageSnapshot();
  ASSERT_GT(explored.Popcount(), 0u);

  const PathSeed& seed = run.value().path_seeds.front();
  DdtConfig replay = config;
  replay.engine.max_path_seeds = 0;
  replay.engine.guided = true;
  replay.engine.enable_symbolic_interrupts = false;
  replay.engine.forced_interrupt_schedule = seed.interrupt_schedule;
  replay.engine.forced_alternatives = seed.alternatives;
  for (const SolvedInput& input : seed.inputs) {
    replay.engine.guided_inputs[OriginKeyString(input.origin)] = input.value;
  }
  replay.engine.max_states = 4;
  replay.engine.stop_after_first_bug = false;
  Ddt replayer(replay);
  ASSERT_TRUE(replayer.TestDriver(rtl.image, rtl.pci).ok());
  CoverageBitmap path = replayer.engine().CoverageSnapshot();

  EXPECT_GT(path.Popcount(), 0u);
  EXPECT_LT(path.Popcount(), explored.Popcount());
  EXPECT_EQ(explored.NewlyCovered(path), 0u);   // subset: nothing novel
  EXPECT_GT(path.NewlyCovered(explored), 0u);   // proper subset: diff nonzero
  CoverageBitmap merged = path;
  EXPECT_GT(merged.OrWith(explored), 0u);
  EXPECT_TRUE(merged == explored);
}

}  // namespace
}  // namespace ddt
