// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
// checksum of the on-disk container format (src/storage), the WAL records
// and the ICP1 wire frames (src/net).
//
// The container stores one CRC per section and one per payload, so a reader
// can localize corruption ("offset table damaged" vs "payload 17 damaged")
// instead of reporting a single whole-file mismatch. Every ICP1 request and
// response payload is checksummed too, so the checksum sits on the
// per-query path as well as on container write, open/materialize and WAL
// append/replay.
//
// Software slicing-by-8: eight 256-entry tables let one step fold eight
// input bytes with eight independent lookups instead of a chain of eight
// dependent ones (table k maps a byte to its CRC contribution k bytes
// further back in the stream). The tail (< 8 bytes) uses the classic
// bytewise loop over table 0. Table lookups stay portable; the values are
// the bytewise CRC's exactly.

#ifndef INTCOMP_COMMON_CRC32_H_
#define INTCOMP_COMMON_CRC32_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

namespace intcomp {

namespace crc32_internal {

using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

inline constexpr Tables kTables = MakeTables();

}  // namespace crc32_internal

// Incremental CRC-32 over a byte stream; Value() may be read at any point
// (it finalizes a copy, so Update may continue afterwards). The streaming
// form is what lets IndexWriter checksum a section while writing it, without
// buffering the section in memory.
class Crc32 {
 public:
  void Update(const void* data, size_t n) {
    // The 4-byte loads below read the stream as little-endian words.
    static_assert(std::endian::native == std::endian::little);
    const auto& t = crc32_internal::kTables;
    const uint8_t* p = static_cast<const uint8_t*>(data);
    uint32_t c = state_;
    for (; n >= 8; p += 8, n -= 8) {
      uint32_t lo;
      uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n) {
      c = t[0][(c ^ *p) & 0xffu] ^ (c >> 8);
    }
    state_ = c;
  }
  uint32_t Value() const { return state_ ^ 0xffffffffu; }
  void Reset() { state_ = 0xffffffffu; }

 private:
  uint32_t state_ = 0xffffffffu;
};

// One-shot form.
inline uint32_t Crc32Of(std::span<const uint8_t> bytes) {
  Crc32 crc;
  crc.Update(bytes.data(), bytes.size());
  return crc.Value();
}

}  // namespace intcomp

#endif  // INTCOMP_COMMON_CRC32_H_
