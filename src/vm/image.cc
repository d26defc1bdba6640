#include "src/vm/image.h"

#include <cstring>
#include <string_view>

#include "src/support/record.h"
#include "src/vm/guest_memory.h"

namespace ddt {

namespace {

struct DdfHeader {
  uint32_t magic;
  uint32_t entry_offset;
  uint32_t code_size;
  uint32_t data_size;
  uint32_t bss_size;
  uint32_t import_count;
  char name[32];
};
static_assert(sizeof(DdfHeader) == 56);

}  // namespace

std::vector<uint8_t> DriverImage::Serialize() const {
  std::vector<uint8_t> out;
  out.reserve(BinaryFileSize());
  ByteWriter header;
  header.U32(kDdfMagic);
  header.U32(entry_offset);
  header.U32(static_cast<uint32_t>(code.size()));
  header.U32(static_cast<uint32_t>(data.size()));
  header.U32(bss_size);
  header.U32(static_cast<uint32_t>(imports.size()));
  out.insert(out.end(), header.bytes().begin(), header.bytes().end());
  char name_field[32] = {};
  std::strncpy(name_field, name.c_str(), sizeof(name_field) - 1);
  out.insert(out.end(), name_field, name_field + sizeof(name_field));
  for (const std::string& import : imports) {
    char field[kImportNameSize] = {};
    std::strncpy(field, import.c_str(), sizeof(field) - 1);
    out.insert(out.end(), field, field + sizeof(field));
  }
  out.insert(out.end(), code.begin(), code.end());
  out.insert(out.end(), data.begin(), data.end());
  return out;
}

Result<DriverImage> DriverImage::Parse(const std::vector<uint8_t>& bytes) {
  constexpr size_t kHeaderSize = 56;
  if (bytes.size() < kHeaderSize) {
    return Status::Error("DDF: truncated header");
  }
  const uint8_t* p = bytes.data();
  ByteReader header(std::string_view(reinterpret_cast<const char*>(p), kHeaderSize));
  if (header.U32() != kDdfMagic) {
    return Status::Error("DDF: bad magic");
  }
  DriverImage image;
  image.entry_offset = header.U32();
  uint32_t code_size = header.U32();
  uint32_t data_size = header.U32();
  image.bss_size = header.U32();
  uint32_t import_count = header.U32();
  char name_field[33] = {};
  std::memcpy(name_field, p + 24, 32);
  image.name = name_field;

  size_t offset = kHeaderSize;
  if (import_count > 4096) {
    return Status::Error("DDF: unreasonable import count");
  }
  for (uint32_t i = 0; i < import_count; ++i) {
    if (offset + kImportNameSize > bytes.size()) {
      return Status::Error("DDF: truncated import table");
    }
    char field[kImportNameSize + 1] = {};
    std::memcpy(field, p + offset, kImportNameSize);
    image.imports.emplace_back(field);
    offset += kImportNameSize;
  }
  if (offset + code_size + data_size > bytes.size()) {
    return Status::Error("DDF: truncated segments");
  }
  if (image.entry_offset >= code_size) {
    return Status::Error("DDF: entry point outside code segment");
  }
  image.code.assign(p + offset, p + offset + code_size);
  offset += code_size;
  image.data.assign(p + offset, p + offset + data_size);
  return image;
}

Status DriverImage::SaveFile(const std::string& path) const {
  std::vector<uint8_t> bytes = Serialize();
  return WriteFileAtomic(
      path, std::string_view(reinterpret_cast<const char*>(bytes.data()), bytes.size()));
}

Result<DriverImage> DriverImage::LoadFile(const std::string& path) {
  Result<std::string> bytes = ReadWholeFile(path);
  if (!bytes.ok()) {
    return bytes.status();
  }
  return Parse(std::vector<uint8_t>(bytes.value().begin(), bytes.value().end()));
}

size_t DriverImage::BinaryFileSize() const {
  return 56 + imports.size() * kImportNameSize + code.size() + data.size();
}

LoadedDriver InstallImage(GuestMemory* mem, const DriverImage& image, uint32_t base) {
  LoadedDriver loaded;
  loaded.name = image.name;
  loaded.base = base;
  loaded.code_begin = base;
  loaded.code_end = base + static_cast<uint32_t>(image.code.size());
  loaded.data_begin = loaded.code_end;
  loaded.data_end = loaded.data_begin + static_cast<uint32_t>(image.data.size()) + image.bss_size;
  loaded.entry_point = base + image.entry_offset;
  loaded.imports = image.imports;
  if (!image.code.empty()) {
    mem->InitWrite(loaded.code_begin, image.code.data(), image.code.size());
  }
  if (!image.data.empty()) {
    mem->InitWrite(loaded.data_begin, image.data.data(), image.data.size());
  }
  // bss is implicitly zero (untouched guest memory reads 0).
  return loaded;
}

}  // namespace ddt
