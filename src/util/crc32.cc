#include "util/crc32.h"

#include <array>

namespace bbsmine {
namespace {

constexpr uint32_t kPolynomial = 0xedb88320u;  // reflected IEEE 802.3

// Slicing-by-8: kTables[0] is the classic byte-at-a-time table, and
// kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// lookups fold eight input bytes into the CRC at once.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? (crc >> 1) ^ kPolynomial : crc >> 1;
    }
    tables[0][i] = crc;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

/// Little-endian 32-bit load; compiles to one load on little-endian hosts.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t crc = ~seed;
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = LoadLe32(p) ^ crc;
    uint32_t hi = LoadLe32(p + 4);
    crc = kTables[7][lo & 0xffu] ^ kTables[6][(lo >> 8) & 0xffu] ^
          kTables[5][(lo >> 16) & 0xffu] ^ kTables[4][lo >> 24] ^
          kTables[3][hi & 0xffu] ^ kTables[2][(hi >> 8) & 0xffu] ^
          kTables[1][(hi >> 16) & 0xffu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p) & 0xffu];
  }
  return ~crc;
}

}  // namespace bbsmine
