// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the standard zlib
// CRC. Its one user is the record framing in src/support/record.h, which
// seals every integrity-checked byte stream in the tree: the campaign
// journal, the shared solver cache file, the fuzz corpus file, and the fleet
// wire protocol's frames.
#ifndef SRC_SUPPORT_CRC32_H_
#define SRC_SUPPORT_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace ddt {

uint32_t Crc32(const void* data, size_t size);

inline uint32_t Crc32(std::string_view data) { return Crc32(data.data(), data.size()); }

}  // namespace ddt

#endif  // SRC_SUPPORT_CRC32_H_
