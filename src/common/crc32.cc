#include "src/common/crc32.h"

#include <array>
#include <bit>
#include <cstring>

namespace smartml {

namespace {

/// Slicing-by-16 tables: tables[0] is the byte-wise table, and tables[k][b]
/// is the CRC of byte b followed by k zero bytes.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 16>;

Crc32Tables BuildTables() {
  Crc32Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (size_t k = 1; k < tables.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      const uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

}  // namespace

uint32_t Crc32(std::string_view data) {
  static const Crc32Tables t = BuildTables();
  uint32_t crc = 0xFFFFFFFFu;
  const char* p = data.data();
  size_t n = data.size();
  // Sixteen bytes per step, one table lookup each: word w's byte j is
  // followed by 15 - 4w - j more bytes of the step. The word loads assume
  // little-endian byte order, so other hosts take the byte-wise loop for
  // everything.
  if constexpr (std::endian::native == std::endian::little) {
    for (; n >= 16; p += 16, n -= 16) {
      uint32_t words[4];
      std::memcpy(words, p, sizeof(words));
      words[0] ^= crc;
      crc = 0;
      for (size_t w = 0; w < 4; ++w) {
        for (size_t j = 0; j < 4; ++j) {
          crc ^= t[15 - 4 * w - j][(words[w] >> (8 * j)) & 0xFFu];
        }
      }
    }
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace smartml
