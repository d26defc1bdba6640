// Unit tests for the support layer: string helpers, integer parsing, the
// deterministic PRNG, Status/Result semantics, the DDT_CHECK trap the
// campaign supervisor uses to survive engine invariant failures, and the
// CRC-framed record primitive with its byte codec and file helpers.
#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <limits>
#include <set>
#include <string>

#include "src/support/check.h"
#include "src/support/record.h"
#include "src/support/rng.h"
#include "src/support/status.h"
#include "src/support/strings.h"

namespace ddt {
namespace {

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d", 42), "x=42");
  EXPECT_EQ(StrFormat("%s/%s", "a", "b"), "a/b");
  EXPECT_EQ(StrFormat("%08x", 0x1234), "00001234");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, StrFormatLongOutput) {
  std::string big(5000, 'y');
  EXPECT_EQ(StrFormat("%s", big.c_str()).size(), 5000u);
}

TEST(StringsTest, SplitAny) {
  auto pieces = SplitAny("a, b\tc  d", ", \t");
  ASSERT_EQ(pieces.size(), 4u);
  EXPECT_EQ(pieces[0], "a");
  EXPECT_EQ(pieces[3], "d");
  EXPECT_TRUE(SplitAny("", ",").empty());
  EXPECT_TRUE(SplitAny(",,,", ",").empty());
}

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  hi  "), "hi");
  EXPECT_EQ(StripWhitespace("\t\n"), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, ParseIntFormats) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt("123", &v));
  EXPECT_EQ(v, 123);
  EXPECT_TRUE(ParseInt("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_TRUE(ParseInt("0x1F", &v));
  EXPECT_EQ(v, 31);
  EXPECT_TRUE(ParseInt("0b101", &v));
  EXPECT_EQ(v, 5);
  EXPECT_TRUE(ParseInt("1_000", &v));
  EXPECT_EQ(v, 1000);
}

TEST(StringsTest, ParseIntRejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt("", &v));
  EXPECT_FALSE(ParseInt("abc", &v));
  EXPECT_FALSE(ParseInt("12x", &v));
  EXPECT_FALSE(ParseInt("-", &v));
  EXPECT_FALSE(ParseInt("0x", &v));
  EXPECT_FALSE(ParseInt("99999999999999999999999", &v));  // overflow
}

TEST(StringsTest, HexBytes) {
  uint8_t data[] = {0xDE, 0xAD, 0x01};
  EXPECT_EQ(HexBytes(data, 3), "de ad 01");
  EXPECT_EQ(HexBytes(data, 0), "");
}

TEST(RngTest, DeterministicPerSeed) {
  Rng a(7);
  Rng b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(8);
  EXPECT_NE(Rng(7).Next(), c.Next());
}

TEST(RngTest, BoundsRespected) {
  Rng rng(123);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
    uint64_t r = rng.NextInRange(5, 9);
    EXPECT_GE(r, 5u);
    EXPECT_LE(r, 9u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ReasonableSpread) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    seen.insert(rng.NextBelow(1u << 20));
  }
  EXPECT_GT(seen.size(), 60u);  // essentially no collisions
}

TEST(StatusTest, OkAndError) {
  EXPECT_TRUE(Status::Ok().ok());
  Status err = Status::Error("boom");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.message(), "boom");
}

TEST(ResultTest, ValueAndError) {
  Result<int> good(41);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 41);
  Result<int> bad(Status::Error("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_FALSE(bad.status().ok());
}

TEST(ResultTest, TakeMoves) {
  Result<std::string> r(std::string("payload"));
  std::string taken = r.take();
  EXPECT_EQ(taken, "payload");
}

TEST(CheckTrapTest, TrapTurnsCheckFailureIntoException) {
  bool threw = false;
  try {
    ScopedCheckTrap trap;
    DDT_CHECK_MSG(1 == 2, "intentional support-test failure");
  } catch (const CheckFailureError& e) {
    threw = true;
    std::string what = e.what();
    // The exception carries the same file:line:expr(msg) text the abort
    // path prints.
    EXPECT_NE(what.find("1 == 2"), std::string::npos) << what;
    EXPECT_NE(what.find("intentional support-test failure"), std::string::npos) << what;
    EXPECT_NE(what.find("support_test.cc"), std::string::npos) << what;
  }
  EXPECT_TRUE(threw);
}

TEST(CheckTrapTest, TrapsNestAsADepthCounter) {
  ScopedCheckTrap outer;
  {
    ScopedCheckTrap inner;
    EXPECT_THROW(DDT_CHECK(false), CheckFailureError);
  }
  // The inner trap's exit must not disarm the outer one (depth, not flag):
  // an untrapped DDT_CHECK failure here would abort the test binary.
  EXPECT_THROW(DDT_CHECK(false), CheckFailureError);
}

// --- Records ----------------------------------------------------------------

TEST(RecordTest, ReadsBackEveryAppendedRecordThenReportsTheEnd) {
  std::string bytes;
  ASSERT_TRUE(AppendRecord(&bytes, "first").ok());
  ASSERT_TRUE(AppendRecord(&bytes, "").ok());
  ASSERT_TRUE(AppendRecord(&bytes, std::string("bin\0ary", 7)).ok());
  size_t pos = 0;
  std::string_view payload;
  ASSERT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kRecord);
  EXPECT_EQ(payload, "first");
  ASSERT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kRecord);
  EXPECT_EQ(payload, "");
  ASSERT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kRecord);
  EXPECT_EQ(payload, std::string_view("bin\0ary", 7));
  EXPECT_EQ(pos, bytes.size());
  EXPECT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kIncomplete);
}

TEST(RecordTest, EveryCutIsIncompleteAndEveryFlipIsCorrupt) {
  std::string bytes;
  ASSERT_TRUE(AppendRecord(&bytes, "payload bytes").ok());
  std::string_view payload;
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    size_t pos = 0;
    EXPECT_EQ(ReadRecord(std::string_view(bytes).substr(0, cut), &pos, &payload),
              RecordRead::kIncomplete)
        << cut;
    EXPECT_EQ(pos, 0u);
  }
  // Flips in the CRC or the payload fail the CRC.
  for (size_t i = 4; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] ^= 0x10;
    size_t pos = 0;
    EXPECT_EQ(ReadRecord(flipped, &pos, &payload), RecordRead::kCorrupt) << i;
    EXPECT_EQ(pos, 0u);
  }
  // A length over the cap is corrupt at once, before its bytes could arrive.
  std::string huge(kRecordHeaderBytes, '\xFF');
  size_t pos = 0;
  EXPECT_EQ(ReadRecord(huge, &pos, &payload), RecordRead::kCorrupt);
}

// The writer keeps the reader's cap: a payload ReadRecord would call corrupt
// is refused at append, and the bytes already framed stay as they were.
TEST(RecordTest, AppendRefusesAPayloadOverTheCap) {
  std::string bytes;
  ASSERT_TRUE(AppendRecord(&bytes, "kept").ok());
  std::string oversized(size_t{kMaxRecordBytes} + 1, 'x');
  Status refused = AppendRecord(&bytes, oversized);
  EXPECT_FALSE(refused.ok());
  EXPECT_NE(refused.message().find("cap"), std::string::npos) << refused.message();
  size_t pos = 0;
  std::string_view payload;
  ASSERT_EQ(ReadRecord(bytes, &pos, &payload), RecordRead::kRecord);
  EXPECT_EQ(payload, "kept");
  EXPECT_EQ(pos, bytes.size());
}

TEST(ByteCodecTest, RoundTripsLittleEndianFields) {
  ByteWriter w;
  w.U8(0xAB);
  w.U32(0x01020304u);
  w.U64(0x1122334455667788ull);
  w.Str("text");
  EXPECT_EQ(w.bytes().substr(0, 5), std::string("\xAB\x04\x03\x02\x01", 5));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xAB);
  EXPECT_EQ(r.U32(), 0x01020304u);
  EXPECT_EQ(r.U64(), 0x1122334455667788ull);
  EXPECT_EQ(r.Str(), "text");
  EXPECT_TRUE(r.Done());
  EXPECT_EQ(r.U8(), 0);  // past the end: poisoned, not an over-read
  EXPECT_FALSE(r.ok());
}

// Doubles travel as their IEEE bits: every value, the sign of zero and a
// NaN's payload come back exactly.
TEST(ByteCodecTest, DoublesRoundTripBitForBit) {
  const double values[] = {0.0, -0.0, 123.45678901234567, 4.9e-324,
                           std::numeric_limits<double>::infinity(),
                           std::bit_cast<double>(0x7FF8000000000123ull)};
  ByteWriter w;
  for (double v : values) {
    w.F64(v);
  }
  w.F64(1.0);
  EXPECT_EQ(w.bytes().substr(8 * std::size(values)),
            std::string("\x00\x00\x00\x00\x00\x00\xF0\x3F", 8));
  ByteReader r(w.bytes());
  for (double v : values) {
    EXPECT_EQ(std::bit_cast<uint64_t>(r.F64()), std::bit_cast<uint64_t>(v));
  }
  EXPECT_EQ(r.F64(), 1.0);
  EXPECT_TRUE(r.Done());
}

TEST(ByteCodecTest, CountsMayNotClaimMoreThanTheBytesLeft) {
  ByteWriter w;
  w.U32(3);
  w.U64(1);
  w.U64(2);
  w.U64(3);
  ByteReader fits(w.bytes());
  EXPECT_EQ(fits.Count(8), 3u);
  EXPECT_TRUE(fits.ok());

  ByteReader too_many(w.bytes());
  EXPECT_EQ(too_many.Count(12), 0u);  // 3 x 12 bytes do not fit in 24
  EXPECT_FALSE(too_many.ok());

  ByteWriter lying;
  lying.U32(0xFFFFFFFFu);
  lying.U8('x');
  ByteReader str(lying.bytes());
  EXPECT_EQ(str.Str(), "");
  EXPECT_FALSE(str.ok());
}

TEST(RecordFileTest, AtomicWriteThenWholeFileRead) {
  std::string path = testing::TempDir() + "record_file_test.bin";
  std::string bytes("a\0b\nc", 5);
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  Result<std::string> read = ReadWholeFile(path);
  ASSERT_TRUE(read.ok()) << read.error();
  EXPECT_EQ(read.value(), bytes);
  EXPECT_TRUE(WriteFileAtomic(path, "").ok());
  EXPECT_EQ(ReadWholeFile(path).value(), "");
  std::remove(path.c_str());
  EXPECT_FALSE(ReadWholeFile(path).ok());
  EXPECT_FALSE(WriteFileAtomic("/nonexistent-dir/x.bin", bytes).ok());
}

}  // namespace
}  // namespace ddt
