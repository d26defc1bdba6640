// CRC-framed records, a bounds-checked byte codec, and whole-file I/O.
//
// Every byte format DDT keeps for a later run or hands to another process —
// the campaign journal, the shared solver cache file, the fuzz corpus file
// and the fleet wire protocol — is a sequence of records in one framing:
//
//   record := [u32 len][u32 crc32(payload)][payload]     (little-endian)
//
// A reader walks records from the front and stops at the first one that is
// incomplete (a torn tail, or a stream still in flight) or corrupt (length
// over the cap, or CRC mismatch). What happens then — keep the valid prefix,
// refuse the whole file, drop the connection — is each format's own policy.
// Every payload is written with ByteWriter and read back with ByteReader:
// every read is bounds checked, and an element count may not claim more
// elements than the bytes left can hold, so a lying count can neither
// over-read nor drive an allocation.
#ifndef SRC_SUPPORT_RECORD_H_
#define SRC_SUPPORT_RECORD_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "src/support/status.h"

namespace ddt {

constexpr size_t kRecordHeaderBytes = 8;
// A length beyond this cap means the bytes are garbage, not a big record.
constexpr uint32_t kMaxRecordBytes = 64u << 20;

// Appends one record to `*out`. A payload over kMaxRecordBytes is refused,
// leaving `*out` as it was, since ReadRecord would read it back as corrupt.
Status AppendRecord(std::string* out, std::string_view payload);

enum class RecordRead {
  kRecord,      // *payload views the payload; *pos moved past the record
  kIncomplete,  // the bytes end inside the record
  kCorrupt,     // length over the cap, or CRC mismatch
};

// Reads the record at `*pos` in `bytes`; `*pos` moves only on kRecord.
RecordRead ReadRecord(std::string_view bytes, size_t* pos, std::string_view* payload);

// Little-endian writer; Str is a u32 length followed by the bytes, F64 a
// double's IEEE bits.
class ByteWriter {
 public:
  void U8(uint8_t v) { Put(v, 1); }
  void U32(uint32_t v) { Put(v, 4); }
  void U64(uint64_t v) { Put(v, 8); }
  void F64(double v) { U64(std::bit_cast<uint64_t>(v)); }
  void Str(std::string_view s);

  const std::string& bytes() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  void Put(uint64_t v, size_t n);
  std::string out_;
};

// Reader for ByteWriter's output. Reading past the end poisons it (every
// later read returns zero or empty); callers check ok() or Done() at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  uint8_t U8() { return static_cast<uint8_t>(Get(1)); }
  uint32_t U32() { return static_cast<uint32_t>(Get(4)); }
  uint64_t U64() { return Get(8); }
  double F64() { return std::bit_cast<double>(U64()); }
  std::string Str();
  // A u32 count of elements of at least `min_element_bytes` each; a count the
  // bytes left cannot hold poisons the reader and reads as 0.
  uint32_t Count(size_t min_element_bytes);

  bool ok() const { return ok_; }
  bool Done() const { return ok_ && pos_ == bytes_.size(); }  // all consumed

 private:
  uint64_t Get(size_t n);
  const char* Take(size_t n);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
};

Result<std::string> ReadWholeFile(const std::string& path);

// Writes `path` through a sibling temporary file and a rename, so readers
// see the old file or the new one, never a torn mix. Concurrent writers of
// one path must serialize (the shared cache holds a lock file).
Status WriteFileAtomic(const std::string& path, std::string_view bytes);

// Writes all of `bytes` to `fd`, retrying short writes and EINTR.
Status WriteAll(int fd, std::string_view bytes);

}  // namespace ddt

#endif  // SRC_SUPPORT_RECORD_H_
