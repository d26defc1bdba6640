#include "src/fleet/wire.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/support/eintr.h"
#include "src/support/record.h"
#include "src/support/strings.h"

namespace ddt {
namespace fleet {
namespace {

bool ValidFrameType(uint8_t t) {
  return t >= static_cast<uint8_t>(FrameType::kHello) &&
         t <= static_cast<uint8_t>(FrameType::kFuzzExec);
}

}  // namespace

Result<std::string> EncodeFrame(FrameType type, std::string_view body) {
  std::string payload(1, static_cast<char>(type));
  payload += body;
  std::string frame;
  Status framed = AppendRecord(&frame, payload);
  if (!framed.ok()) {
    return Status::Error("fleet frame: " + framed.message());
  }
  return frame;
}

void FrameDecoder::Feed(const char* data, size_t size) { buf_.append(data, size); }

FrameDecoder::Next FrameDecoder::Pop(Frame* out) {
  if (corrupt_) {
    return Next::kCorrupt;
  }
  std::string_view payload;
  switch (ReadRecord(buf_, &pos_, &payload)) {
    case RecordRead::kIncomplete:
      return Next::kNeedMore;
    case RecordRead::kCorrupt:
      corrupt_ = true;
      return Next::kCorrupt;
    case RecordRead::kRecord:
      break;
  }
  if (payload.empty() || !ValidFrameType(static_cast<uint8_t>(payload[0]))) {
    corrupt_ = true;
    return Next::kCorrupt;
  }
  out->type = static_cast<FrameType>(payload[0]);
  out->body.assign(payload.substr(1));
  if (pos_ > (1u << 20) && pos_ * 2 > buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Next::kFrame;
}

Status WriteFrame(int fd, FrameType type, std::string_view body) {
  Result<std::string> frame = EncodeFrame(type, body);
  if (!frame.ok()) {
    return frame.status();
  }
  Status written = WriteAll(fd, frame.value());
  return written.ok() ? written : Status::Error("fleet pipe " + written.message());
}

Result<Frame> FrameReader::Next() {
  Frame frame;
  char chunk[4096];
  for (;;) {
    switch (decoder_.Pop(&frame)) {
      case FrameDecoder::Next::kFrame:
        return frame;
      case FrameDecoder::Next::kCorrupt:
        return Status::Error("fleet pipe frame corrupt");
      case FrameDecoder::Next::kNeedMore:
        break;
    }
    ssize_t n = RetryOnEintr([&] { return ::read(fd_, chunk, sizeof(chunk)); });
    if (n < 0) {
      return Status::Error(StrFormat("fleet pipe read failed: %s", std::strerror(errno)));
    }
    if (n == 0) {
      return Status::Error("fleet pipe closed");
    }
    decoder_.Feed(chunk, static_cast<size_t>(n));
  }
}

std::string EncodeHello(const HelloBody& hello) {
  ByteWriter w;
  w.U64(hello.fingerprint);
  w.U64(hello.pid);
  return w.Take();
}

bool DecodeHello(std::string_view body, HelloBody* hello) {
  ByteReader r(body);
  hello->fingerprint = r.U64();
  hello->pid = r.U64();
  return r.Done();
}

std::string EncodeLease(const LeaseBody& lease) {
  ByteWriter w;
  w.U64(lease.index);
  EncodeFaultPlan(lease.plan, &w);
  return w.Take();
}

bool DecodeLease(std::string_view body, LeaseBody* lease) {
  ByteReader r(body);
  lease->index = r.U64();
  return DecodeFaultPlan(&r, &lease->plan) && r.Done();
}

std::string EncodeHeartbeat(uint64_t seq) {
  ByteWriter w;
  w.U64(seq);
  return w.Take();
}

bool DecodeHeartbeat(std::string_view body, uint64_t* seq) {
  ByteReader r(body);
  *seq = r.U64();
  return r.Done();
}

std::string EncodeBye(const ByeBody& bye) {
  ByteWriter w;
  w.U8(bye.code);
  w.Str(bye.detail);
  return w.Take();
}

bool DecodeBye(std::string_view body, ByeBody* bye) {
  ByteReader r(body);
  bye->code = r.U8();
  bye->detail = r.Str();
  return bye->code <= kByeRejected && r.Done();
}

std::string EncodeFuzzExecLease(const FuzzExecLease& lease) {
  ByteWriter w;
  w.U64(lease.index);
  w.Str(lease.input);
  return w.Take();
}

bool DecodeFuzzExecLease(std::string_view body, FuzzExecLease* lease) {
  ByteReader r(body);
  lease->index = r.U64();
  lease->input = r.Str();
  return r.Done();
}

std::string EncodeFuzzExecResult(const FuzzExecResultBody& result) {
  ByteWriter w;
  w.U64(result.index);
  w.U8(result.ok);
  w.Str(result.failure);
  result.coverage.Encode(&w);
  w.U64(result.instructions);
  w.U32(static_cast<uint32_t>(result.bug_keys.size()));
  for (const std::string& key : result.bug_keys) {
    w.Str(key);
  }
  w.Str(result.bugs_text);
  return w.Take();
}

bool DecodeFuzzExecResult(std::string_view body, FuzzExecResultBody* result) {
  ByteReader r(body);
  result->index = r.U64();
  result->ok = r.U8();
  result->failure = r.Str();
  if (result->ok > 1 || !CoverageBitmap::Decode(&r, &result->coverage)) {
    return false;
  }
  result->instructions = r.U64();
  result->bug_keys.resize(r.Count(4));
  for (std::string& key : result->bug_keys) {
    key = r.Str();
  }
  result->bugs_text = r.Str();
  return r.Done();
}

}  // namespace fleet
}  // namespace ddt
