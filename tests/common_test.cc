// Unit tests for the common substrate: bit utilities, scalar bit packing,
// SIMD packing, prefix sums, VByte, and the PRNG.

#include <sched.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/bitpack.h"
#include "common/bits.h"
#include "common/prng.h"
#include "common/serialize_util.h"
#include "common/simdpack.h"
#include "common/simdpack256.h"
#include "common/status.h"
#include "common/usable_cpus.h"
#include "common/vbyte_raw.h"
#include "test_util.h"

namespace intcomp {
namespace {

TEST(BitsTest, PopCount) {
  EXPECT_EQ(PopCount32(0u), 0);
  EXPECT_EQ(PopCount32(0xffffffffu), 32);
  EXPECT_EQ(PopCount32(0b1011u), 3);
  EXPECT_EQ(PopCount64(~uint64_t{0}), 64);
}

TEST(BitsTest, CountTrailingZeros) {
  EXPECT_EQ(CountTrailingZeros32(1u), 0);
  EXPECT_EQ(CountTrailingZeros32(0x80000000u), 31);
  EXPECT_EQ(CountTrailingZeros64(uint64_t{1} << 63), 63);
}

TEST(BitsTest, BitWidth) {
  EXPECT_EQ(BitWidth32(0u), 0);
  EXPECT_EQ(BitWidth32(1u), 1);
  EXPECT_EQ(BitWidth32(255u), 8);
  EXPECT_EQ(BitWidth32(256u), 9);
  EXPECT_EQ(BitWidth32(~0u), 32);
}

TEST(BitsTest, LowMask) {
  EXPECT_EQ(LowMask32(0), 0u);
  EXPECT_EQ(LowMask32(5), 31u);
  EXPECT_EQ(LowMask32(32), ~0u);
  EXPECT_EQ(LowMask64(64), ~uint64_t{0});
}

TEST(BitsTest, EmitSetBits) {
  uint32_t out[32];
  uint32_t* end = EmitSetBits32(0b1010010u, 100, out);
  ASSERT_EQ(end - out, 3);
  EXPECT_EQ(out[0], 101u);
  EXPECT_EQ(out[1], 104u);
  EXPECT_EQ(out[2], 106u);
}

class BitPackTest : public ::testing::TestWithParam<int> {};

TEST_P(BitPackTest, RoundTripAllWidths) {
  const int b = GetParam();
  Prng rng(b * 7919);
  std::vector<uint32_t> in(301);
  for (auto& v : in) {
    v = b == 0 ? 0 : static_cast<uint32_t>(rng.Next()) & LowMask32(b);
  }
  std::vector<uint32_t> packed(PackedWords32(in.size(), b) + 1, 0xdeadbeef);
  PackBits(in.data(), in.size(), b, packed.data());
  std::vector<uint32_t> out(in.size());
  UnpackBits(packed.data(), in.size(), b, out.data());
  EXPECT_EQ(out, in);
  // Random access must agree with bulk unpack.
  for (size_t i = 0; i < in.size(); i += 37) {
    EXPECT_EQ(GetPacked(packed.data(), i, b), in[i]) << i;
  }
}

TEST_P(BitPackTest, SetPackedMatchesPackBits) {
  const int b = GetParam();
  if (b == 0) return;
  Prng rng(b * 104729);
  std::vector<uint32_t> in(130);
  for (auto& v : in) v = static_cast<uint32_t>(rng.Next()) & LowMask32(b);
  std::vector<uint32_t> a(PackedWords32(in.size(), b), 0);
  std::vector<uint32_t> c(PackedWords32(in.size(), b), 0);
  PackBits(in.data(), in.size(), b, a.data());
  for (size_t i = 0; i < in.size(); ++i) SetPacked(c.data(), i, b, in[i]);
  EXPECT_EQ(a, c);
}

TEST_P(BitPackTest, SimdRoundTripAllWidths) {
  const int b = GetParam();
  Prng rng(b * 31337);
  uint32_t in[128];
  for (auto& v : in) {
    v = b == 0 ? 0 : static_cast<uint32_t>(rng.Next()) & LowMask32(b);
  }
  uint32_t packed[128 + 1];
  packed[SimdPackedWords(b)] = 0xabadcafe;  // canary
  SimdPack128(in, b, packed);
  uint32_t out[128];
  SimdUnpack128(packed, b, out);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(out[i], in[i]) << i;
  EXPECT_EQ(packed[SimdPackedWords(b)], 0xabadcafe);
}

TEST_P(BitPackTest, Simd256RoundTripAllWidths) {
  const int b = GetParam();
  Prng rng(b * 65537);
  uint32_t in[128];
  for (auto& v : in) {
    v = b == 0 ? 0 : static_cast<uint32_t>(rng.Next()) & LowMask32(b);
  }
  uint32_t packed[129];
  packed[Simd256PackedWords(b)] = 0xabadcafe;  // canary
  Simd256Pack128(in, b, packed);
  uint32_t out[128];
  Simd256Unpack128(packed, b, out);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(out[i], in[i]) << i;
  EXPECT_EQ(packed[Simd256PackedWords(b)], 0xabadcafe);
}

INSTANTIATE_TEST_SUITE_P(Widths, BitPackTest, ::testing::Range(0, 33));

TEST(SimdPackTest, SimdAndScalarDisagreeOnLayoutButAgreeOnValues) {
  // The vertical SIMD layout differs from horizontal scalar packing; both
  // must still round-trip the same values (checked above). Here we pin the
  // vertical property: lane i%4, slot i/4.
  uint32_t in[128];
  for (int i = 0; i < 128; ++i) in[i] = static_cast<uint32_t>(i);
  uint32_t packed[32];  // b = 8 -> 8 vectors = 32 words
  SimdPack128(in, 8, packed);
  // First output vector word 0 packs in[0], in[4], in[8], in[12] (lane 0).
  EXPECT_EQ(packed[0] & 0xff, 0u);
  EXPECT_EQ((packed[0] >> 8) & 0xff, 4u);
  EXPECT_EQ((packed[0] >> 16) & 0xff, 8u);
  EXPECT_EQ((packed[0] >> 24) & 0xff, 12u);
}

TEST(PrefixSumTest, SimdMatchesScalar) {
  Prng rng(42);
  uint32_t a[128], b[128];
  for (int i = 0; i < 128; ++i) a[i] = b[i] = rng.Next() & 0xffff;
  SimdPrefixSum128(a, 1000);
  ScalarPrefixSum(b, 128, 1000);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(a[i], b[i]) << i;
}

TEST(PrefixSumTest, DeltaThenPrefixSumIsIdentity) {
  auto values = RandomSortedList(128, 1u << 30, 99);
  uint32_t buf[128];
  std::copy(values.begin(), values.end(), buf);
  SimdDelta128(buf, 500);
  // First delta is relative to the base.
  EXPECT_EQ(buf[0], values[0] - 500);
  SimdPrefixSum128(buf, 500);
  for (int i = 0; i < 128; ++i) EXPECT_EQ(buf[i], values[i]) << i;
}

TEST(PrefixSumTest, ScalarDeltaRoundTrip) {
  auto values = RandomSortedList(77, 1u << 20, 7);
  std::vector<uint32_t> buf = values;
  ScalarDelta(buf.data(), buf.size(), 3);
  ScalarPrefixSum(buf.data(), buf.size(), 3);
  EXPECT_EQ(buf, values);
}

TEST(VByteRawTest, PaperExample16385) {
  // §3.1: 16385 encodes as 10000001 10000000 00000001.
  std::vector<uint8_t> out;
  VByteEncode(16385, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0], 0b10000001);
  EXPECT_EQ(out[1], 0b10000000);
  EXPECT_EQ(out[2], 0b00000001);
  size_t pos = 0;
  EXPECT_EQ(VByteDecode(out.data(), &pos), 16385u);
  EXPECT_EQ(pos, 3u);
}

TEST(VByteRawTest, RoundTripBoundaries) {
  std::vector<uint8_t> buf;
  std::vector<uint32_t> values = {0,       1,        127,        128,
                                  16383,   16384,    2097151,    2097152,
                                  1u << 28, (1u << 28) - 1, ~0u};
  for (uint32_t v : values) {
    buf.clear();
    VByteEncode(v, &buf);
    EXPECT_EQ(buf.size(), static_cast<size_t>(VByteLength(v))) << v;
    size_t pos = 0;
    EXPECT_EQ(VByteDecode(buf.data(), &pos), v);
  }
}

TEST(SerializeUtilTest, RoundTripsVectors) {
  std::vector<uint32_t> v32 = {1, 2, 100000, 0xffffffffu};
  std::vector<uint8_t> buf;
  WriteVector(v32, &buf);
  ByteReader reader(buf.data(), buf.size());
  std::vector<uint32_t> back;
  ASSERT_TRUE(ReadVector(&reader, &back));
  EXPECT_EQ(back, v32);
  EXPECT_EQ(reader.Remaining(), 0u);
}

TEST(SerializeUtilTest, ReadVectorRejectsOverflowingElementCount) {
  // Regression: a 16-byte buffer whose length prefix claims 2^61 8-byte
  // elements. 2^61 * 8 wraps a 64-bit size_t to 0, so a naive byte-count
  // check passes and resize(2^61) aborts; the checked form must reject
  // before allocating.
  std::vector<uint8_t> buf(16, 0);
  const uint64_t huge = uint64_t{1} << 61;
  std::memcpy(buf.data(), &huge, 8);
  ByteReader reader(buf.data(), buf.size());
  std::vector<uint64_t> out;
  EXPECT_FALSE(ReadVector(&reader, &out));
  EXPECT_TRUE(out.empty());

  // Same shape for 4-byte elements: 2^62 * 4 also wraps to 0.
  std::vector<uint8_t> buf2(16, 0);
  const uint64_t huge2 = uint64_t{1} << 62;
  std::memcpy(buf2.data(), &huge2, 8);
  ByteReader r2(buf2.data(), buf2.size());
  std::vector<uint32_t> out2;
  EXPECT_FALSE(ReadVector(&r2, &out2));

  // A count that merely exceeds the buffer (no wrap) is rejected too.
  std::vector<uint8_t> buf3(16, 0);
  const uint64_t big = 1000;
  std::memcpy(buf3.data(), &big, 8);
  ByteReader r3(buf3.data(), buf3.size());
  std::vector<uint32_t> out3;
  EXPECT_FALSE(ReadVector(&r3, &out3));
}

TEST(StatusTest, CodesFactoriesAndMessages) {
  EXPECT_TRUE(Status::Ok().ok());
  EXPECT_EQ(Status::Ok().ToString(), "OK");
  const Status corrupt = Status::Corrupt("bad header");
  EXPECT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.code(), StatusCode::kCorruptData);
  EXPECT_EQ(corrupt.message(), "bad header");
  EXPECT_EQ(corrupt.ToString(), "CORRUPT_DATA: bad header");
  EXPECT_EQ(Status::DeadlineExceeded("t").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::Cancelled("c").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::InvalidArgument("a").code(),
            StatusCode::kInvalidArgument);
}

TEST(StatusOrTest, CarriesValueOrStatus) {
  StatusOr<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  StatusOr<int> bad(Status::Corrupt("nope"));
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kCorruptData);
}

TEST(CheckedByteReaderTest, ReadsExactlyWhatFits) {
  const uint8_t data[] = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  CheckedByteReader r(data, sizeof(data));
  uint8_t u8 = 0xff;
  uint16_t u16 = 0xffff;
  uint32_t u32 = 0xffffffff;
  ASSERT_TRUE(r.GetU8(&u8));
  EXPECT_EQ(u8, 0x01);
  ASSERT_TRUE(r.GetU16(&u16));
  EXPECT_EQ(u16, 0x0302);
  ASSERT_TRUE(r.GetU32(&u32));
  EXPECT_EQ(u32, 0x07060504u);
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(r.Remaining(), 0u);

  // Past-the-end reads fail, poison the output, and do not advance.
  uint64_t u64 = 0xdeadbeef;
  EXPECT_FALSE(r.GetU64(&u64));
  EXPECT_EQ(u64, 0u);
  EXPECT_EQ(r.Position(), sizeof(data));
}

TEST(CheckedByteReaderTest, ShortBufferFailsWideReadsButCursorHolds) {
  const uint8_t data[] = {0xaa, 0xbb};
  CheckedByteReader r(data, sizeof(data));
  uint64_t u64 = 1;
  uint32_t u32 = 1;
  EXPECT_FALSE(r.GetU64(&u64));
  EXPECT_EQ(u64, 0u);
  EXPECT_FALSE(r.GetU32(&u32));
  EXPECT_EQ(u32, 0u);
  EXPECT_EQ(r.Position(), 0u);  // failed reads never advance
  EXPECT_FALSE(r.Skip(3));
  ASSERT_TRUE(r.Skip(2));
  EXPECT_TRUE(r.AtEnd());
  uint8_t buf[4];
  EXPECT_FALSE(r.GetBytes(buf, 1));
}

TEST(PrngTest, DeterministicAndBounded) {
  Prng a(123), b(123), c(124);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(a.NextBounded(17), 17u);
    double d = a.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, RoughlyUniform) {
  Prng rng(5);
  int buckets[10] = {};
  for (int i = 0; i < 100000; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) {
    EXPECT_GT(b, 9000);
    EXPECT_LT(b, 11000);
  }
}

// UsableCpus follows the affinity mask (what `taskset -c 0` sets), not
// hardware_concurrency(). Pins this thread to its current CPU and back.
TEST(UsableCpusTest, FollowsTheAffinityMask) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof(saved), &saved), 0);
  EXPECT_EQ(UsableCpus(), static_cast<size_t>(CPU_COUNT(&saved)));

  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(sched_getcpu(), &one);
  ASSERT_EQ(sched_setaffinity(0, sizeof(one), &one), 0);
  EXPECT_EQ(UsableCpus(), 1u);
  ASSERT_EQ(sched_setaffinity(0, sizeof(saved), &saved), 0);
}

}  // namespace
}  // namespace intcomp
