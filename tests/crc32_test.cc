// Known-answer and equivalence tests for the sliced CRC-32 (common/crc32.h).
// Every other suite checks stored checksums against Crc32Of itself; this one
// pins Crc32Of to the IEEE 802.3 value and the sliced Update to the
// textbook bytewise loop for every length, alignment and stream split that
// exercises the 8-byte main loop and its tail.

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/prng.h"

namespace intcomp {
namespace {

// Bytewise reflected CRC-32 computed bit by bit, with no tables.
uint32_t ReferenceCrc32(const uint8_t* p, size_t n) {
  uint32_t c = 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Prng rng(seed);
  std::vector<uint8_t> bytes(n);
  for (uint8_t& b : bytes) b = static_cast<uint8_t>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32Test, KnownAnswers) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(Crc32Of({reinterpret_cast<const uint8_t*>(kCheck.data()),
                     kCheck.size()}),
            0xCBF43926u);
  EXPECT_EQ(Crc32Of({}), 0u);
  const std::vector<uint8_t> zeros(32, 0);
  EXPECT_EQ(Crc32Of(zeros), 0x190A55ADu);
  const std::vector<uint8_t> ones(32, 0xff);
  EXPECT_EQ(Crc32Of(ones), 0xFF6CAB0Bu);
}

TEST(Crc32Test, MatchesBytewiseAtEveryLengthAndOffset) {
  const std::vector<uint8_t> buf = RandomBytes(64 + 8, 32);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      SCOPED_TRACE(testing::Message() << "offset " << offset << " len " << len);
      const uint8_t* p = buf.data() + offset;
      EXPECT_EQ(Crc32Of({p, len}), ReferenceCrc32(p, len));
    }
  }
}

TEST(Crc32Test, EverySplitIntoTwoUpdatesMatchesOneShot) {
  const std::vector<uint8_t> buf = RandomBytes(64 + 8, 33);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 64; ++len) {
      const uint8_t* p = buf.data() + offset;
      const uint32_t want = ReferenceCrc32(p, len);
      for (size_t split = 0; split <= len; ++split) {
        SCOPED_TRACE(testing::Message() << "offset " << offset << " len "
                                        << len << " split " << split);
        Crc32 crc;
        crc.Update(p, split);
        crc.Update(p + split, len - split);
        EXPECT_EQ(crc.Value(), want);
      }
    }
  }
}

TEST(Crc32Test, LongBufferAndResetMatchBytewise) {
  const std::vector<uint8_t> buf = RandomBytes(1 << 16, 34);
  Crc32 crc;
  crc.Update(buf.data(), buf.size());
  EXPECT_EQ(crc.Value(), ReferenceCrc32(buf.data(), buf.size()));
  // Value() finalizes a copy: the stream continues, and Reset restarts it.
  crc.Update(buf.data(), 3);
  crc.Reset();
  crc.Update(buf.data(), 100);
  EXPECT_EQ(crc.Value(), ReferenceCrc32(buf.data(), 100));
}

}  // namespace
}  // namespace intcomp
