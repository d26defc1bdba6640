#include "src/support/record.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "src/support/crc32.h"
#include "src/support/eintr.h"
#include "src/support/strings.h"

namespace ddt {

Status AppendRecord(std::string* out, std::string_view payload) {
  if (payload.size() > kMaxRecordBytes) {
    return Status::Error(StrFormat("record of %zu bytes is over the %u-byte cap", payload.size(),
                                   kMaxRecordBytes));
  }
  ByteWriter header;
  header.U32(static_cast<uint32_t>(payload.size()));
  header.U32(Crc32(payload));
  *out += header.bytes();
  *out += payload;
  return Status::Ok();
}

RecordRead ReadRecord(std::string_view bytes, size_t* pos, std::string_view* payload) {
  ByteReader header(bytes.substr(*pos, kRecordHeaderBytes));
  uint32_t len = header.U32();
  uint32_t crc = header.U32();
  if (!header.ok()) {
    return RecordRead::kIncomplete;
  }
  if (len > kMaxRecordBytes) {
    return RecordRead::kCorrupt;
  }
  if (bytes.size() - *pos - kRecordHeaderBytes < len) {
    return RecordRead::kIncomplete;
  }
  std::string_view body = bytes.substr(*pos + kRecordHeaderBytes, len);
  if (Crc32(body) != crc) {
    return RecordRead::kCorrupt;
  }
  *payload = body;
  *pos += kRecordHeaderBytes + len;
  return RecordRead::kRecord;
}

void ByteWriter::Put(uint64_t v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    out_.push_back(static_cast<char>(v >> (8 * i)));
  }
}

void ByteWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  out_ += s;
}

const char* ByteReader::Take(size_t n) {
  if (!ok_ || bytes_.size() - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  pos_ += n;
  return bytes_.data() + pos_ - n;
}

uint64_t ByteReader::Get(size_t n) {
  const char* p = Take(n);
  uint64_t v = 0;
  for (size_t i = n; p != nullptr && i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(p[i]);
  }
  return v;
}

std::string ByteReader::Str() {
  uint32_t n = Count(1);
  const char* p = Take(n);
  return p == nullptr ? std::string() : std::string(p, n);
}

uint32_t ByteReader::Count(size_t min_element_bytes) {
  uint32_t n = U32();
  if (ok_ && n > (bytes_.size() - pos_) / min_element_bytes) {
    ok_ = false;
  }
  return ok_ ? n : 0;
}

Result<std::string> ReadWholeFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::Error(StrFormat("cannot open '%s': %s", path.c_str(), std::strerror(errno)));
  }
  std::string bytes;
  char buf[1 << 16];
  for (size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;) {
    bytes.append(buf, n);
  }
  bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    return Status::Error(StrFormat("cannot read '%s'", path.c_str()));
  }
  return bytes;
}

Status WriteFileAtomic(const std::string& path, std::string_view bytes) {
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::Error(
        StrFormat("cannot open '%s' for writing: %s", tmp.c_str(), std::strerror(errno)));
  }
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  if (std::fclose(f) != 0 || !ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Error(StrFormat("cannot write '%s'", path.c_str()));
  }
  return Status::Ok();
}

Status WriteAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    ssize_t n = RetryOnEintr([&] { return ::write(fd, bytes.data(), bytes.size()); });
    if (n <= 0) {
      return Status::Error(
          StrFormat("write failed: %s", n < 0 ? std::strerror(errno) : "no progress"));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::Ok();
}

}  // namespace ddt
