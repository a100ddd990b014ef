#include "common/checksum.h"

#include <array>
#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ratel {

namespace {

// Reflected CRC-32C slice-by-8 tables: kTables[0] is the classic byte
// table; kTables[k][b] is the CRC of byte b followed by k zero bytes,
// so eight table lookups fold one 64-bit word.
using SliceTables = std::array<std::array<uint32_t, 256>, 8>;

SliceTables BuildTables() {
  SliceTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

const SliceTables& Tables() {
  static const SliceTables tables = BuildTables();
  return tables;
}

// Both backends work on the pre-inverted register `c`.
uint32_t SliceBy8(uint32_t c, const unsigned char* p, size_t size) {
  const SliceTables& t = Tables();
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; p += 8, size -= 8) {
      uint64_t word;
      std::memcpy(&word, p, sizeof(word));
      word ^= c;
      c = t[7][word & 0xFF] ^ t[6][(word >> 8) & 0xFF] ^
          t[5][(word >> 16) & 0xFF] ^ t[4][(word >> 24) & 0xFF] ^
          t[3][(word >> 32) & 0xFF] ^ t[2][(word >> 40) & 0xFF] ^
          t[1][(word >> 48) & 0xFF] ^ t[0][word >> 56];
    }
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) uint32_t Sse42(uint32_t c,
                                                  const unsigned char* p,
                                                  size_t size) {
  uint64_t wide = c;
  for (; size >= 8; p += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
  }
  c = static_cast<uint32_t>(wide);
  for (; size > 0; ++p, --size) c = _mm_crc32_u8(c, *p);
  return c;
}
#endif

}  // namespace

namespace checksum_internal {

bool HostHasCrc32cInstruction() {
#if defined(__x86_64__)
  static const bool has = __builtin_cpu_supports("sse4.2");
  return has;
#else
  return false;
#endif
}

uint32_t Crc32cPortable(const void* data, size_t size, uint32_t crc) {
  return SliceBy8(crc ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                  size) ^
         0xFFFFFFFFu;
}

uint32_t Crc32cHardware(const void* data, size_t size, uint32_t crc) {
#if defined(__x86_64__)
  if (HostHasCrc32cInstruction()) {
    return Sse42(crc ^ 0xFFFFFFFFu, static_cast<const unsigned char*>(data),
                 size) ^
           0xFFFFFFFFu;
  }
#endif
  return Crc32cPortable(data, size, crc);
}

}  // namespace checksum_internal

uint32_t Crc32c(const void* data, size_t size, uint32_t crc) {
  return checksum_internal::Crc32cHardware(data, size, crc);
}

}  // namespace ratel
