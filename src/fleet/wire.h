// Fleet wire protocol: length-prefixed, CRC-protected frames over local pipes.
//
// The coordinator and its worker processes speak a deliberately tiny binary
// protocol — five frame types, fixed little-endian integers, length-prefixed
// strings — over the pipe pair each worker was spawned with:
//
//   frame := [u32 len][u32 crc][u8 type][body]      (len = 1 + body size,
//                                                    crc = CRC-32 over type+body)
//
// that is, one src/support/record.h record whose payload is the type byte and
// the body — the same framing the journal, the shared cache file and the fuzz
// corpus file use on disk. Bodies are built with that header's ByteWriter and
// read back with its bounds-checked ByteReader.
//
//   worker -> coordinator:  HELLO(fingerprint, pid)  once, first
//                           HEARTBEAT(seq)           periodic liveness
//                           RESULT(record payload)   one per completed lease
//                           BYE(code, detail)        drained; detail names the
//                                                    worker's cache-delta file
//   coordinator -> worker:  LEASE(index, plan)       execute this pass
//                           BYE(code, detail)        drain and exit (code 0) or
//                                                    rejected at HELLO (code 1)
//
// The CRC is not paranoia about pipe corruption; it is what lets the
// coordinator treat *any* malformed byte stream from a dying or misbehaving
// worker as a worker loss rather than undefined behavior. A frame that fails
// its CRC, exceeds the record size cap, or truncates at EOF marks the
// connection corrupt, and the coordinator's only response to a corrupt
// connection is the same as to a dead one: kill, salvage the shard journal,
// reassign.
//
// RESULT bodies are EncodeCampaignPassRecord payloads verbatim — the exact
// bytes the worker also appended to its shard journal — so a pass result
// received over the pipe, salvaged from a dead worker's journal, or restored
// from the coordinator's main journal is the same record byte-for-byte.
#ifndef SRC_FLEET_WIRE_H_
#define SRC_FLEET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/engine/fault_injection.h"
#include "src/support/status.h"

namespace ddt {
namespace fleet {

enum class FrameType : uint8_t {
  kHello = 1,
  kLease = 2,
  kHeartbeat = 3,
  kResult = 4,
  kBye = 5,
  // Fuzz-loop sharding (src/fuzz): the same frame type carries a
  // FuzzExecLease coordinator -> worker and a FuzzExecResultBody back —
  // direction disambiguates, exactly as kBye does.
  kFuzzExec = 6,
};

struct Frame {
  FrameType type = FrameType::kHello;
  std::string body;
};

// Fails only for a frame over the record size cap, which no reader accepts.
Result<std::string> EncodeFrame(FrameType type, std::string_view body);

// Incremental decoder for the coordinator's poll loop: feed whatever bytes
// read() delivered, pop complete frames. Once a frame fails validation the
// decoder stays corrupt — there is no way to resynchronize a byte stream.
class FrameDecoder {
 public:
  enum class Next {
    kFrame,     // *out filled
    kNeedMore,  // no complete frame buffered yet
    kCorrupt,   // bad length or CRC; connection is unusable
  };

  void Feed(const char* data, size_t size);
  Next Pop(Frame* out);

 private:
  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted lazily
  bool corrupt_ = false;
};

// Blocking frame I/O for the worker side, the fuzz shards and tests.
// WriteFrame retries short writes and EINTR; callers serialize concurrent
// writers (the worker's heartbeat thread and lease loop share one mutex).
Status WriteFrame(int fd, FrameType type, std::string_view body);

// Blocking reader over one fd. It keeps its decoder across calls, so frames
// that arrive together in one read() are all returned, in order. Next returns
// an error on EOF, I/O failure, or a corrupt frame.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}
  Result<Frame> Next();

 private:
  int fd_;
  FrameDecoder decoder_;
};

// --- Body codecs -----------------------------------------------------------

struct HelloBody {
  uint64_t fingerprint = 0;  // CampaignFingerprint(config, image)
  uint64_t pid = 0;
};
std::string EncodeHello(const HelloBody& hello);
bool DecodeHello(std::string_view body, HelloBody* hello);

struct LeaseBody {
  uint64_t index = 0;  // pass index; 0 = baseline (plan empty)
  FaultPlan plan;
};
std::string EncodeLease(const LeaseBody& lease);
bool DecodeLease(std::string_view body, LeaseBody* lease);

std::string EncodeHeartbeat(uint64_t seq);
bool DecodeHeartbeat(std::string_view body, uint64_t* seq);

// RESULT: the body is an EncodeCampaignPassRecord payload, no extra framing.

struct ByeBody {
  // coordinator -> worker: 0 = drained (work done), 1 = rejected at HELLO.
  // worker -> coordinator: always 0; detail names the cache-delta file ("" if
  // the shared cache is off).
  uint8_t code = 0;
  std::string detail;
};
constexpr uint8_t kByeDrain = 0;
constexpr uint8_t kByeRejected = 1;
std::string EncodeBye(const ByeBody& bye);
bool DecodeBye(std::string_view body, ByeBody* bye);

// FUZZ_EXEC coordinator -> worker: replay this serialized fuzz input
// (src/fuzz/input.h text form — already process-independent, so the wire
// carries it verbatim like RESULT carries pass records).
struct FuzzExecLease {
  uint64_t index = 0;  // exec index within the batch
  std::string input_text;
};
std::string EncodeFuzzExecLease(const FuzzExecLease& lease);
bool DecodeFuzzExecLease(std::string_view body, FuzzExecLease* lease);

// FUZZ_EXEC worker -> coordinator: one execution's outcome. Coverage crosses
// as the bitmap's hex form and bugs as a bug_io report, so a result merged
// from a worker is byte-identical to one executed in-process.
struct FuzzExecResultBody {
  uint64_t index = 0;
  uint8_t ok = 0;
  std::string failure;
  std::string coverage_hex;
  uint64_t instructions = 0;
  std::string bugs_text;
};
std::string EncodeFuzzExecResult(const FuzzExecResultBody& result);
bool DecodeFuzzExecResult(std::string_view body, FuzzExecResultBody* result);

}  // namespace fleet
}  // namespace ddt

#endif  // SRC_FLEET_WIRE_H_
