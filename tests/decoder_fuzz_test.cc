// One deterministic mutation harness over every decoder of untrusted bytes:
// the record reader; the campaign journal (resume and read-only load) and its
// pass payload; the shared solver cache file; the fuzz corpus file; the fleet
// frame decoder and its six body decoders; bug reports; fuzz inputs; driver
// images.
//
// Mutants are SplitMix64-seeded bit flips, truncations, splices of two valid
// inputs, and length or count fields overwritten with huge or off-by-one
// values. Each is applied raw, and again with every record's CRC re-sealed so
// it gets past the framing into the payload decoders. Every decoder must
// return cleanly — no crash, no throw, no sanitizer report — and:
//   - a raw mutant of a journal or corpus loads only a prefix of records,
//     each equal to the original's (or, for a splice, to one of its two
//     sources' records);
//   - a body the wire decoders accept re-encodes to the same bytes;
//   - accepted bug text is a round-trip fixed point.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/core/bug_io.h"
#include "src/core/campaign_journal.h"
#include "src/core/ddt.h"
#include "src/drivers/corpus.h"
#include "src/fleet/wire.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/input.h"
#include "src/solver/shared_cache.h"
#include "src/support/crc32.h"
#include "src/support/log.h"
#include "src/support/record.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace ddt {
namespace {

constexpr int kMutantsPerInput = 300;

std::string TempPath(const std::string& name) { return testing::TempDir() + name; }

uint32_t LoadU32(const std::string& bytes, size_t at) {
  ByteReader r(std::string_view(bytes).substr(at, 4));
  return r.U32();
}

void StoreU32(std::string* bytes, size_t at, uint32_t v) {
  ByteWriter w;
  w.U32(v);
  bytes->replace(at, 4, w.bytes());
}

// Offsets of every record header in an intact record stream.
std::vector<size_t> RecordOffsets(const std::string& bytes) {
  std::vector<size_t> offsets;
  std::string_view payload;
  for (size_t pos = 0; pos < bytes.size();) {
    offsets.push_back(pos);
    if (ReadRecord(bytes, &pos, &payload) != RecordRead::kRecord) {
      break;
    }
  }
  return offsets;
}

// Recomputes the CRC of every record whose length still fits, so a mutant
// reaches the payload decoder instead of stopping at the framing.
std::string Reseal(std::string bytes) {
  size_t pos = 0;
  while (bytes.size() - pos >= kRecordHeaderBytes) {
    uint32_t len = LoadU32(bytes, pos);
    if (len > kMaxRecordBytes || bytes.size() - pos - kRecordHeaderBytes < len) {
      break;
    }
    StoreU32(&bytes, pos + 4, Crc32(std::string_view(bytes).substr(pos + kRecordHeaderBytes, len)));
    pos += kRecordHeaderBytes + len;
  }
  return bytes;
}

struct Mutant {
  std::string bytes;
  bool spliced = false;
};

// Deterministic mutant source over two valid inputs `a` and `b` of one
// format. `fields` are offsets of u32 length or count fields in `a`.
class MutantSource {
 public:
  MutantSource(uint64_t seed, std::string a, std::string b, std::vector<size_t> fields)
      : rng_(seed), a_(std::move(a)), b_(std::move(b)), fields_(std::move(fields)) {}

  Mutant Next() {
    Mutant m{a_, false};
    switch (rng_.NextBelow(4)) {
      case 0: {  // bit flips
        for (uint64_t flips = 1 + rng_.NextBelow(4); flips > 0 && !m.bytes.empty(); --flips) {
          m.bytes[rng_.NextBelow(m.bytes.size())] ^= static_cast<char>(1u << rng_.NextBelow(8));
        }
        break;
      }
      case 1:  // truncation
        m.bytes.resize(rng_.NextBelow(m.bytes.size() + 1));
        break;
      case 2:  // splice: a prefix of one input, a suffix of the other
        m.bytes = a_.substr(0, rng_.NextBelow(a_.size() + 1)) +
                  b_.substr(rng_.NextBelow(b_.size() + 1));
        m.spliced = true;
        break;
      default: {  // a length or count field lies
        if (m.bytes.size() < 4) {
          break;
        }
        size_t at = !fields_.empty() && rng_.NextBelow(4) != 0
                        ? fields_[rng_.NextBelow(fields_.size())]
                        : rng_.NextBelow(m.bytes.size() - 3);
        uint32_t old = LoadU32(m.bytes, at);
        const uint32_t lies[] = {0xFFFFFFFFu, 0x80000000u, kMaxRecordBytes + 1,
                                 old + 1,     old - 1,     static_cast<uint32_t>(m.bytes.size())};
        StoreU32(&m.bytes, at, lies[rng_.NextBelow(std::size(lies))]);
        break;
      }
    }
    return m;
  }

 private:
  SplitMix64 rng_;
  std::string a_;
  std::string b_;
  std::vector<size_t> fields_;
};

// Runs `check` over kMutantsPerInput mutants, each raw and re-sealed.
template <typename Check>
void ForEachMutant(uint64_t seed, const std::string& a, const std::string& b,
                   std::vector<size_t> fields, bool records, Check check) {
  MutantSource source(seed, a, b, std::move(fields));
  for (int i = 0; i < kMutantsPerInput; ++i) {
    Mutant m = source.Next();
    check(m, /*raw=*/true);
    if (records) {
      m.bytes = Reseal(std::move(m.bytes));
      check(m, /*raw=*/false);
    }
  }
}

// The length field of every record, plus every offset inside a payload that
// holds a small u32 — where binary payloads keep their lengths and counts.
std::vector<size_t> RecordFields(const std::string& bytes) {
  std::vector<size_t> fields = RecordOffsets(bytes);
  size_t headers = fields.size();
  for (size_t r = 0; r < headers; ++r) {
    size_t end = r + 1 < headers ? fields[r + 1] : bytes.size();
    for (size_t at = fields[r] + kRecordHeaderBytes; at + 4 <= end; ++at) {
      if (LoadU32(bytes, at) < (1u << 16)) {
        fields.push_back(at);
      }
    }
  }
  return fields;
}

void WriteFile(const std::string& path, const std::string& bytes) {
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
}

// Bugs a real run finds on rtl8029, computed once.
const std::vector<Bug>& LiveBugs() {
  static const std::vector<Bug>* bugs = [] {
    const CorpusDriver& driver = CorpusDriverByName("rtl8029");
    DdtConfig config;
    config.engine.max_instructions = 2'000'000;
    config.engine.max_states = 512;
    Ddt ddt(config);
    Result<DdtResult> run = ddt.TestDriver(driver.image, driver.pci);
    EXPECT_TRUE(run.ok());
    EXPECT_FALSE(run.value().bugs.empty());
    // One bug_io round trip detaches them from the engine that found them.
    return new std::vector<Bug>(DeserializeBugs(SerializeBugs(run.value().bugs)).take());
  }();
  return *bugs;
}

// --- Framing ----------------------------------------------------------------

TEST(DecoderFuzzTest, RecordReaderStaysInBounds) {
  std::string a;
  std::string b;
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        AppendRecord(&a, std::string(static_cast<size_t>(i * 7), static_cast<char>('a' + i)))
            .ok());
    ASSERT_TRUE(AppendRecord(&b, StrFormat("record %d", i)).ok());
  }
  ForEachMutant(1, a, b, RecordOffsets(a), /*records=*/true, [](const Mutant& m, bool raw) {
    std::string_view payload;
    size_t pos = 0;
    while (ReadRecord(m.bytes, &pos, &payload) == RecordRead::kRecord) {
      ASSERT_LE(pos, m.bytes.size());
      ASSERT_GE(payload.data(), m.bytes.data());
      ASSERT_LE(payload.data() + payload.size(), m.bytes.data() + pos);
    }
  });
}

// --- Campaign journal -------------------------------------------------------

CampaignPassRecord JournalRecord(uint64_t index, const std::vector<Bug>& bugs) {
  CampaignPassRecord rec;
  rec.index = index;
  rec.label =
      index == 0 ? "" : StrFormat("allocation#%llu", static_cast<unsigned long long>(index));
  if (index == 0) {
    rec.has_profile = true;
    rec.profile.max_occurrences = {3, 1, 0, 2};
  } else {
    rec.points.push_back(FaultPoint{FaultClass::kAllocation, static_cast<uint32_t>(index)});
  }
  rec.stats.instructions = 1000 + index;
  rec.solver_stats.queries = 10 + index;
  rec.bugs = bugs;
  return rec;
}

std::string JournalBytes(const std::string& name, const std::vector<CampaignPassRecord>& recs) {
  std::string path = TempPath(name);
  {
    Result<std::unique_ptr<CampaignJournal>> journal = CampaignJournal::Create(path, "toy", 7);
    EXPECT_TRUE(journal.ok());
    for (const CampaignPassRecord& rec : recs) {
      EXPECT_TRUE(journal.value()->Append(rec).ok());
    }
  }
  Result<std::string> bytes = ReadWholeFile(path);
  std::remove(path.c_str());
  return bytes.take();
}

// The encodings a journal's records load as (bugs already round-tripped).
std::vector<std::string> LoadedEncodings(const std::string& bytes) {
  std::string path = TempPath("decoder_fuzz_reference.journal");
  WriteFile(path, bytes);
  Result<std::vector<CampaignPassRecord>> records = LoadCampaignJournalRecords(path, "toy", 7);
  EXPECT_TRUE(records.ok());
  std::vector<std::string> out;
  for (const CampaignPassRecord& rec : records.value()) {
    out.push_back(EncodeCampaignPassRecord(rec));
  }
  std::remove(path.c_str());
  return out;
}

TEST(DecoderFuzzTest, JournalLoadsOnlyAnOriginalPrefix) {
  const std::vector<Bug>& bugs = LiveBugs();
  std::string a = JournalBytes(
      "decoder_fuzz_a.journal",
      {JournalRecord(0, bugs), JournalRecord(1, {}), JournalRecord(2, {bugs[0]})});
  std::string b = JournalBytes(
      "decoder_fuzz_b.journal",
      {JournalRecord(0, {}), JournalRecord(3, bugs), JournalRecord(4, {})});
  std::vector<std::string> original = LoadedEncodings(a);
  ASSERT_EQ(original.size(), 3u);
  std::set<std::string> either(original.begin(), original.end());
  for (const std::string& enc : LoadedEncodings(b)) {
    either.insert(enc);
  }

  std::string path = TempPath("decoder_fuzz_mutant.journal");
  size_t resumed = 0;
  ForEachMutant(2, a, b, RecordFields(a), /*records=*/true, [&](const Mutant& m, bool raw) {
    auto check = [&](const std::vector<CampaignPassRecord>& records) {
      if (!raw) {
        return;
      }
      if (!m.spliced) {
        ASSERT_LE(records.size(), original.size());
      }
      for (size_t i = 0; i < records.size(); ++i) {
        std::string enc = EncodeCampaignPassRecord(records[i]);
        if (m.spliced) {
          EXPECT_EQ(either.count(enc), 1u) << "record " << i;
        } else {
          EXPECT_EQ(enc, original[i]) << "record " << i;
        }
      }
    };
    WriteFile(path, m.bytes);
    Result<std::vector<CampaignPassRecord>> loaded = LoadCampaignJournalRecords(path, "toy", 7);
    if (loaded.ok()) {
      check(loaded.value());
    }
    std::vector<CampaignPassRecord> records;
    Result<std::unique_ptr<CampaignJournal>> journal =
        CampaignJournal::OpenForResume(path, "toy", 7, &records);
    if (journal.ok()) {
      ++resumed;
      check(records);
      // The repaired journal stays appendable.
      EXPECT_TRUE(journal.value()->Append(JournalRecord(9, {})).ok());
    } else {
      EXPECT_TRUE(records.empty());
    }
  });
  EXPECT_GT(resumed, 0u);
  std::remove(path.c_str());
}

TEST(DecoderFuzzTest, PassPayloadDecoderNeverMisbehaves) {
  std::string a = EncodeCampaignPassRecord(JournalRecord(0, LiveBugs()));
  std::string b = EncodeCampaignPassRecord(JournalRecord(5, {}));
  ForEachMutant(3, a, b, {}, /*records=*/false, [](const Mutant& m, bool) {
    CampaignPassRecord rec;
    if (DecodeCampaignPassRecord(m.bytes, &rec)) {
      CampaignPassRecord again;
      EXPECT_TRUE(DecodeCampaignPassRecord(EncodeCampaignPassRecord(rec), &again));
    }
  });
}

// --- Shared solver cache ----------------------------------------------------

std::string CacheBytes(const std::string& name, uint64_t salt) {
  ExprContext ctx;
  ExprRef x = ctx.Var(32, "x");
  ExprRef y = ctx.Var(16, "y");
  QueryCanonicalizer canon;
  SharedQueryCache cache;
  for (uint64_t i = 0; i < 4; ++i) {
    cache.Store(canon.Canonicalize({ctx.Eq(x, ctx.Const(i + salt, 32))}), true, {{0, i + salt}});
  }
  cache.Store(canon.Canonicalize({ctx.Ult(ctx.ZExt(y, 32), x), ctx.Eq(x, ctx.Const(0, 32))}),
              false, {});
  std::string path = TempPath(name);
  EXPECT_TRUE(cache.SaveToFile(path).ok());
  Result<std::string> bytes = ReadWholeFile(path);
  std::remove(path.c_str());
  std::remove((path + ".lock").c_str());
  return bytes.take();
}

TEST(DecoderFuzzTest, CacheFileLoadsAllOrNothing) {
  std::string a = CacheBytes("decoder_fuzz_a.cache", 0);
  std::string b = CacheBytes("decoder_fuzz_b.cache", 100);
  std::string path = TempPath("decoder_fuzz_mutant.cache");
  LogLevel log_level = GetLogLevel();
  SetLogLevel(LogLevel::kError);  // every rejected file warns
  ForEachMutant(4, a, b, RecordFields(a), /*records=*/true, [&](const Mutant& m, bool raw) {
    WriteFile(path, m.bytes);
    SharedQueryCache cache;
    size_t loaded = cache.LoadFromFile(path);
    SharedQueryCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.entries, loaded);
    EXPECT_EQ(loaded == 0 ? 1u : 0u, stats.load_errors) << "loaded " << loaded;
    if (raw && !m.spliced) {
      EXPECT_TRUE(loaded == 0 || loaded == 5) << loaded;
    }
  });
  SetLogLevel(log_level);
  std::remove(path.c_str());
}

// --- Fuzz corpus ------------------------------------------------------------

fuzz::FuzzInput CorpusInput(const std::string& label, uint64_t value) {
  fuzz::FuzzInput input;
  input.label = label;
  fuzz::FuzzField field;
  field.origin.source = VarOrigin::Source::kRegistry;
  field.origin.label = "NetworkAddress";
  field.width = 32;
  field.value = value;
  field.var_name = "registry:NetworkAddress";
  input.fields.push_back(field);
  input.interrupt_schedule = {static_cast<uint32_t>(value % 7)};
  input.fault_plan.points.push_back(FaultPoint{FaultClass::kAllocation, 0});
  return input;
}

std::string CorpusBytes(const std::string& name, uint64_t salt, const std::vector<Bug>& bugs) {
  fuzz::FuzzCorpus corpus;
  for (uint64_t i = 0; i < 3; ++i) {
    CoverageBitmap coverage(128);
    coverage.Set(salt + i * 9);
    coverage.Set(salt + i * 9 + 1);
    corpus.Offer(CorpusInput(StrFormat("fuzz b1#%llu", static_cast<unsigned long long>(i)),
                             salt + i),
                 coverage, static_cast<uint32_t>(i), 16);
  }
  corpus.set_batches_done(2);
  fuzz::FuzzLoopState loop;
  loop.execs = 16 + salt;
  loop.mutations = {1, 2, 3, 4, 5, 6};
  loop.bugs = bugs;
  loop.bug_origins.assign(bugs.size(), "fuzz b1#0");
  std::string path = TempPath(name);
  EXPECT_TRUE(corpus.SaveToFile(path, 0x5EED, loop).ok());
  Result<std::string> bytes = ReadWholeFile(path);
  std::remove(path.c_str());
  return bytes.take();
}

std::string EntryKey(const fuzz::CorpusEntry& entry) {
  return StrFormat("%zu %u %s\n", entry.novel_blocks, entry.batch, entry.coverage.ToHex().c_str()) +
         fuzz::SerializeFuzzInput(entry.input);
}

TEST(DecoderFuzzTest, CorpusLoadsOnlyAnOriginalPrefix) {
  const std::vector<Bug>& bugs = LiveBugs();
  std::string a = CorpusBytes("decoder_fuzz_a.corpus", 0, {bugs[0], bugs[1]});
  std::string b = CorpusBytes("decoder_fuzz_b.corpus", 40, {});
  std::string path = TempPath("decoder_fuzz_mutant.corpus");
  auto entry_keys = [&](const std::string& bytes) {
    WriteFile(path, bytes);
    fuzz::FuzzCorpus corpus;
    fuzz::FuzzLoopState loop;
    EXPECT_TRUE(corpus.LoadFromFile(path, 0x5EED, nullptr, &loop).ok());
    std::vector<std::string> keys;
    for (const fuzz::CorpusEntry& entry : corpus.entries()) {
      keys.push_back(EntryKey(entry));
    }
    return std::make_pair(keys, SerializeBugs(loop.bugs));
  };
  auto [original, original_bugs] = entry_keys(a);
  ASSERT_EQ(original.size(), 3u);
  std::vector<std::string> other = entry_keys(b).first;
  std::set<std::string> either(original.begin(), original.end());
  either.insert(other.begin(), other.end());

  size_t accepted = 0;
  ForEachMutant(5, a, b, RecordFields(a), /*records=*/true, [&](const Mutant& m, bool raw) {
    WriteFile(path, m.bytes);
    fuzz::FuzzCorpus corpus;
    fuzz::FuzzLoopState loop;
    size_t load_errors = 0;
    Status loaded = corpus.LoadFromFile(path, 0x5EED, &load_errors, &loop);
    if (!loaded.ok()) {
      EXPECT_EQ(corpus.size(), 0u);
      EXPECT_EQ(corpus.batches_done(), 0u);
      EXPECT_EQ(loop.execs, 0u);
      EXPECT_TRUE(loop.bugs.empty());
      return;
    }
    ++accepted;
    EXPECT_EQ(loop.bugs.size(), loop.bug_origins.size());
    if (!raw) {
      return;
    }
    if (!m.spliced) {
      ASSERT_LE(corpus.size(), original.size());
    }
    for (size_t i = 0; i < corpus.size(); ++i) {
      std::string key = EntryKey(corpus.entries()[i]);
      if (m.spliced) {
        EXPECT_EQ(either.count(key), 1u) << "entry " << i;
      } else {
        EXPECT_EQ(key, original[i]) << "entry " << i;
      }
    }
    if (!m.spliced) {
      EXPECT_EQ(SerializeBugs(loop.bugs), original_bugs);
    }
  });
  EXPECT_GT(accepted, 0u);
  std::remove(path.c_str());
}

// --- Fleet wire ---------------------------------------------------------------

// Feeds `body` to all six body decoders; whatever one accepts must re-encode
// to exactly `body`.
void DecodeEveryBody(const std::string& body) {
  fleet::HelloBody hello;
  if (fleet::DecodeHello(body, &hello)) {
    EXPECT_EQ(fleet::EncodeHello(hello), body);
  }
  fleet::LeaseBody lease;
  if (fleet::DecodeLease(body, &lease)) {
    EXPECT_EQ(fleet::EncodeLease(lease), body);
  }
  uint64_t seq = 0;
  if (fleet::DecodeHeartbeat(body, &seq)) {
    EXPECT_EQ(fleet::EncodeHeartbeat(seq), body);
  }
  fleet::ByeBody bye;
  if (fleet::DecodeBye(body, &bye)) {
    EXPECT_EQ(fleet::EncodeBye(bye), body);
  }
  fleet::FuzzExecLease exec_lease;
  if (fleet::DecodeFuzzExecLease(body, &exec_lease)) {
    EXPECT_EQ(fleet::EncodeFuzzExecLease(exec_lease), body);
  }
  fleet::FuzzExecResultBody exec_result;
  if (fleet::DecodeFuzzExecResult(body, &exec_result)) {
    EXPECT_EQ(fleet::EncodeFuzzExecResult(exec_result), body);
  }
}

TEST(DecoderFuzzTest, FrameDecoderAndBodyDecodersNeverMisbehave) {
  using namespace fleet;
  LeaseBody lease;
  lease.index = 4;
  lease.plan.label = "allocation#1 + map-io-space#0";
  lease.plan.points = {FaultPoint{FaultClass::kAllocation, 1}};
  lease.plan.hw_points = {HwFaultPoint{HwFaultKind::kIrqStorm, 3}};
  FuzzExecResultBody result;
  result.index = 2;
  result.ok = 1;
  result.coverage_hex = "ff00ff";
  result.instructions = 777;
  result.bugs_text = SerializeBugs({LiveBugs()[0]});
  std::vector<std::string> frames = {
      EncodeFrame(FrameType::kHello, EncodeHello(HelloBody{0xFEEDull, 42})).value(),
      EncodeFrame(FrameType::kLease, EncodeLease(lease)).value(),
      EncodeFrame(FrameType::kHeartbeat, EncodeHeartbeat(9)).value(),
      EncodeFrame(FrameType::kResult, EncodeCampaignPassRecord(JournalRecord(1, {}))).value(),
      EncodeFrame(FrameType::kFuzzExec, EncodeFuzzExecLease(FuzzExecLease{5, "label x\nend\n"}))
          .value(),
      EncodeFrame(FrameType::kFuzzExec, EncodeFuzzExecResult(result)).value(),
      EncodeFrame(FrameType::kBye, EncodeBye(ByeBody{kByeDrain, "cache-0-1.bin"})).value(),
  };
  std::string a;
  for (const std::string& frame : frames) {
    a += frame;
  }
  std::string b;
  for (auto it = frames.rbegin(); it != frames.rend(); ++it) {
    b += *it;
  }
  SplitMix64 chunks(6);
  ForEachMutant(6, a, b, RecordFields(a), /*records=*/true, [&](const Mutant& m, bool raw) {
    FrameDecoder decoder;
    Frame frame;
    size_t popped = 0;
    size_t fed = 0;
    FrameDecoder::Next next = FrameDecoder::Next::kNeedMore;
    while (next != FrameDecoder::Next::kCorrupt) {
      next = decoder.Pop(&frame);
      if (next == FrameDecoder::Next::kFrame) {
        if (raw && !m.spliced) {
          ASSERT_LT(popped, frames.size());
          EXPECT_EQ(EncodeFrame(frame.type, frame.body).value(), frames[popped]);
        }
        ++popped;
        DecodeEveryBody(frame.body);
      } else if (next == FrameDecoder::Next::kNeedMore) {
        if (fed == m.bytes.size()) {
          break;
        }
        size_t n = std::min<size_t>(m.bytes.size() - fed, 1 + chunks.NextBelow(64));
        decoder.Feed(m.bytes.data() + fed, n);
        fed += n;
      }
    }
    // The mutated bytes straight into every body decoder, too.
    DecodeEveryBody(m.bytes.size() > kRecordHeaderBytes + 1 ? m.bytes.substr(kRecordHeaderBytes + 1)
                                                             : m.bytes);
  });
}

// --- Text formats and images -------------------------------------------------

TEST(DecoderFuzzTest, AcceptedBugTextIsARoundTripFixedPoint) {
  const std::vector<Bug>& bugs = LiveBugs();
  std::string a = SerializeBugs(bugs);
  std::string b = SerializeBugs({bugs.back()});
  size_t accepted = 0;
  ForEachMutant(7, a, b, {}, /*records=*/false, [&](const Mutant& m, bool) {
    Result<std::vector<Bug>> once = DeserializeBugs(m.bytes);
    if (!once.ok()) {
      return;
    }
    ++accepted;
    for (const Bug& bug : once.value()) {
      EXPECT_FALSE(bug.Format().empty());  // what a report renders from it
    }
    std::string text = SerializeBugs(once.value());
    Result<std::vector<Bug>> twice = DeserializeBugs(text);
    ASSERT_TRUE(twice.ok()) << twice.error();
    EXPECT_EQ(SerializeBugs(twice.value()), text);
  });
  EXPECT_GT(accepted, 0u);
}

TEST(DecoderFuzzTest, FuzzInputParserNeverMisbehaves) {
  fuzz::FuzzInput rich = CorpusInput("seed#0", 0xC0FFEE);
  rich.alternatives = {{4, "fail-once"}};
  rich.fault_plan.label = "alloc#0";
  rich.fault_plan.hw_points.push_back(HwFaultPoint{HwFaultKind::kDoorbellDrop, 2});
  std::string a = fuzz::SerializeFuzzInput(rich);
  std::string b = fuzz::SerializeFuzzInput(CorpusInput("fuzz b2#17", 7));
  ForEachMutant(8, a, b, {}, /*records=*/false, [](const Mutant& m, bool) {
    Result<fuzz::FuzzInput> parsed = fuzz::ParseFuzzInput(m.bytes);
    if (parsed.ok()) {
      EXPECT_TRUE(fuzz::ParseFuzzInput(fuzz::SerializeFuzzInput(parsed.value())).ok());
    }
  });
}

TEST(DecoderFuzzTest, ImageParserNeverMisbehaves) {
  std::vector<uint8_t> rtl = CorpusDriverByName("rtl8029").image.Serialize();
  std::vector<uint8_t> pcnet = CorpusDriverByName("pcnet").image.Serialize();
  std::string a(rtl.begin(), rtl.end());
  std::string b(pcnet.begin(), pcnet.end());
  std::vector<size_t> header_fields = {4, 8, 12, 16, 20};
  ForEachMutant(9, a, b, header_fields, /*records=*/false, [](const Mutant& m, bool) {
    Result<DriverImage> parsed =
        DriverImage::Parse(std::vector<uint8_t>(m.bytes.begin(), m.bytes.end()));
    if (parsed.ok()) {
      EXPECT_LE(parsed.value().code.size() + parsed.value().data.size(), m.bytes.size());
      EXPECT_LT(parsed.value().entry_offset, parsed.value().code.size());
    }
  });
}

}  // namespace
}  // namespace ddt
