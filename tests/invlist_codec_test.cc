// Structural tests for the inverted-list codecs: block formats, selector
// tables, exception machinery, escapes, and PEF container choice.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd_intersect.h"
#include "invlist/blocked_list.h"
#include "invlist/groupvb.h"
#include "invlist/newpfordelta.h"
#include "invlist/optpfordelta.h"
#include "invlist/pef.h"
#include "invlist/pfordelta.h"
#include "invlist/plain_list.h"
#include "invlist/simdbp128.h"
#include "invlist/simdpfordelta.h"
#include "invlist/simple16.h"
#include "invlist/simple8b.h"
#include "invlist/simple9.h"
#include "invlist/vb.h"
#include "test_util.h"

namespace intcomp {
namespace {

template <typename Traits>
std::vector<uint32_t> BlockRoundTrip(const std::vector<uint32_t>& gaps) {
  std::vector<uint8_t> data;
  Traits::EncodeBlock(gaps.data(), gaps.size(), &data);
  data.resize(data.size() + 16);  // slack, as the framework guarantees
  std::vector<uint32_t> out(std::max<size_t>(gaps.size(), 128));
  Traits::DecodeBlock(data.data(), gaps.size(), out.data());
  out.resize(gaps.size());
  return out;
}

std::vector<uint32_t> RandomGaps(size_t n, uint32_t max_gap, uint64_t seed) {
  Prng rng(seed);
  std::vector<uint32_t> gaps(n);
  for (auto& g : gaps) g = 1 + static_cast<uint32_t>(rng.NextBounded(max_gap));
  return gaps;
}

// --- VB / GroupVB -----------------------------------------------------------

TEST(VbBlockTest, MultiByteBoundaries) {
  std::vector<uint32_t> gaps = {1, 127, 128, 16383, 16384, 2097152, ~0u};
  EXPECT_EQ(BlockRoundTrip<VbTraits>(gaps), gaps);
}

TEST(GroupVbBlockTest, HeaderPacksFourLengths) {
  std::vector<uint32_t> gaps = {5, 300, 70000, 16777216};  // 1,2,3,4 bytes
  std::vector<uint8_t> data;
  GroupVbTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
  ASSERT_EQ(data.size(), 1u + 1 + 2 + 3 + 4);
  EXPECT_EQ(data[0], 0b11100100);  // lengths-1 = 0,1,2,3 in 2-bit fields
}

TEST(GroupVbBlockTest, PartialTailGroup) {
  std::vector<uint32_t> gaps = {1, 2, 3, 4, 5, 6};  // 4 + 2 tail
  EXPECT_EQ(BlockRoundTrip<GroupVbTraits>(gaps), gaps);
}

// --- Simple family ----------------------------------------------------------

TEST(Simple9BlockTest, DensePacking) {
  // 28 one-bit values must fit one word (selector 0).
  std::vector<uint32_t> gaps(28, 1);
  std::vector<uint8_t> data;
  Simple9Traits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data.size(), 4u);
  uint32_t word;
  std::memcpy(&word, data.data(), 4);
  EXPECT_EQ(word >> 28, 0u);
}

TEST(Simple9BlockTest, EscapeForHugeValues) {
  std::vector<uint32_t> gaps = {1u << 28, ~0u, 3};
  EXPECT_EQ(BlockRoundTrip<Simple9Traits>(gaps), gaps);
}

TEST(Simple16BlockTest, MixedWidthCases) {
  // 7 two-bit values then 14 one-bit values: selector 1 packs all 21.
  std::vector<uint32_t> gaps;
  for (int i = 0; i < 7; ++i) gaps.push_back(3);
  for (int i = 0; i < 14; ++i) gaps.push_back(1);
  std::vector<uint8_t> data;
  Simple16Traits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data.size(), 4u);
  uint32_t word;
  std::memcpy(&word, data.data(), 4);
  EXPECT_EQ(word >> 28, 1u);
}

TEST(Simple16BlockTest, EscapeIncludesMarkerValueItself) {
  // The escape threshold value must itself be escaped and round-trip.
  std::vector<uint32_t> gaps = {(1u << 28) - 1, (1u << 28), ~0u, 7};
  EXPECT_EQ(BlockRoundTrip<Simple16Traits>(gaps), gaps);
}

TEST(Simple16ArrayTest, MeasureMatchesEncode) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    auto vals = RandomGaps(100, seed == 1 ? 3 : (seed == 2 ? 1000 : ~0u), seed);
    std::vector<uint8_t> enc;
    Simple16EncodeArray(vals.data(), vals.size(), &enc);
    EXPECT_EQ(Simple16MeasureArray(vals.data(), vals.size()), enc.size());
    std::vector<uint32_t> dec(vals.size());
    size_t consumed = Simple16DecodeArray(enc.data(), vals.size(), dec.data());
    EXPECT_EQ(consumed, enc.size());
    EXPECT_EQ(dec, vals);
  }
}

TEST(Simple8bBlockTest, RunOf120OnesUsesRleSelector) {
  std::vector<uint32_t> gaps(120, 1);
  std::vector<uint8_t> data;
  Simple8bTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data.size(), 8u);  // one 64-bit codeword
  uint64_t word;
  std::memcpy(&word, data.data(), 8);
  EXPECT_EQ(word >> 60, 1u);
}

TEST(Simple8bBlockTest, SixtyBitValues) {
  std::vector<uint32_t> gaps = {~0u, 1, ~0u};
  EXPECT_EQ(BlockRoundTrip<Simple8bTraits>(gaps), gaps);
}

// --- PforDelta family --------------------------------------------------------

TEST(PforDeltaBlockTest, NinetyPercentRuleProducesExceptions) {
  // 116 small values (exactly 90%) and 12 large ones: b stays small, the
  // large values become exceptions.
  std::vector<uint32_t> gaps(128, 3);
  for (int i = 0; i < 12; ++i) gaps[i] = 1u << 20;  // adjacent: no forced exc
  std::vector<uint8_t> data;
  PforDeltaTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data[0], 2u);   // b = 2 bits covers the 3s
  EXPECT_EQ(data[1], 12u);  // 12 exceptions
  EXPECT_EQ(BlockRoundTrip<PforDeltaTraits>(gaps), gaps);
}

TEST(PforDeltaBlockTest, ForcedExceptionsWhenLinksOverflow) {
  // Two exceptions 100 slots apart with b = 1: links hold distances up to
  // 2^1, so forced exceptions are inserted between them.
  std::vector<uint32_t> gaps(128, 1);
  gaps[5] = 1u << 25;
  gaps[105] = 1u << 25;
  std::vector<uint8_t> data;
  PforDeltaTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data[0], 1u);
  EXPECT_GT(data[1], 2u);  // forced exceptions added
  EXPECT_EQ(BlockRoundTrip<PforDeltaTraits>(gaps), gaps);
}

TEST(PforDeltaStarBlockTest, NeverHasExceptions) {
  for (uint64_t seed : {10u, 11u, 12u}) {
    auto gaps = RandomGaps(128, ~0u - 1, seed);
    std::vector<uint8_t> data;
    PforDeltaStarTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
    EXPECT_EQ(data[1], 0u) << "PforDelta* must not emit exceptions";
    EXPECT_EQ(BlockRoundTrip<PforDeltaStarTraits>(gaps), gaps);
  }
}

TEST(NewPforDeltaBlockTest, ExceptionArraysRoundTrip) {
  std::vector<uint32_t> gaps(128, 7);
  gaps[0] = ~0u;
  gaps[64] = 1u << 30;
  gaps[127] = 1u << 29;
  EXPECT_EQ(BlockRoundTrip<NewPforDeltaTraits>(gaps), gaps);
}

TEST(OptPforDeltaBlockTest, NeverLargerThanNewPforDelta) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Prng rng(seed);
    std::vector<uint32_t> gaps(128);
    for (auto& g : gaps) {
      // Heavy-tailed gaps to make the width choice interesting.
      g = 1 + static_cast<uint32_t>(
                  rng.NextBounded(uint64_t{1} << (3 + rng.NextBounded(27))));
    }
    std::vector<uint8_t> np, op;
    NewPforDeltaTraits::EncodeBlock(gaps.data(), gaps.size(), &np);
    OptPforDeltaTraits::EncodeBlock(gaps.data(), gaps.size(), &op);
    EXPECT_LE(op.size(), np.size()) << "seed " << seed;
    EXPECT_EQ(BlockRoundTrip<OptPforDeltaTraits>(gaps), gaps);
  }
}

// --- SIMD codecs --------------------------------------------------------------

TEST(SimdPforDeltaBlockTest, ExceptionsPatchCorrectly) {
  std::vector<uint32_t> gaps(128, 9);
  gaps[3] = 1u << 27;
  gaps[77] = ~0u;
  EXPECT_EQ(BlockRoundTrip<SimdPforDeltaTraits>(gaps), gaps);
}

TEST(SimdPforDeltaStarBlockTest, FullWidthNoExceptions) {
  auto gaps = RandomGaps(128, 1u << 30, 5);
  std::vector<uint8_t> data;
  SimdPforDeltaStarTraits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data[1], 0u);
  EXPECT_EQ(BlockRoundTrip<SimdPforDeltaStarTraits>(gaps), gaps);
}

TEST(SimdBp128BlockTest, WidthIsBlockMax) {
  std::vector<uint32_t> gaps(128, 1);
  gaps[100] = 255;  // forces b = 8
  std::vector<uint8_t> data;
  SimdBp128Traits::EncodeBlock(gaps.data(), gaps.size(), &data);
  EXPECT_EQ(data[0], 8u);
  EXPECT_EQ(data.size(), 1u + 8u * 16u);
  EXPECT_EQ(BlockRoundTrip<SimdBp128Traits>(gaps), gaps);
}

TEST(SimdBp128StarTest, FrameOfReferenceNeedsNoPrefixSum) {
  // The * variant stores values - first; verify the compressed block for a
  // dense run uses tiny widths even though absolute values are large.
  SimdBp128StarCodec codec;
  std::vector<uint32_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 1000000000u + static_cast<uint32_t>(i);
  }
  auto set = codec.Encode(values, uint64_t{1} << 32);
  // Two blocks, each [b=8][16*8 bytes] at most (offsets 0..127 need 7 bits).
  const auto& s = static_cast<const BlockedSet<SimdBp128StarTraits>&>(*set);
  EXPECT_EQ(s.data[s.skip_offset[0]], 7u);
  std::vector<uint32_t> decoded;
  codec.Decode(*set, &decoded);
  EXPECT_EQ(decoded, values);
}

// --- Blocked framework ---------------------------------------------------------

TEST(BlockedListTest, SkipPointersPerBlock) {
  VbCodec codec;
  auto values = RandomSortedList(1000, 1 << 22, 77);
  auto set = codec.Encode(values, 1 << 22);
  const auto& s = static_cast<const BlockedSet<VbTraits>&>(*set);
  ASSERT_EQ(s.skip_first.size(), (1000 + 127) / 128);
  for (size_t b = 0; b < s.skip_first.size(); ++b) {
    EXPECT_EQ(s.skip_first[b], values[b * 128]);
  }
  // Size accounting includes 8 bytes per skip pointer.
  EXPECT_EQ(set->SizeInBytes(), s.data.size() + s.skip_first.size() * 8);
}

TEST(BlockedListTest, CursorNextGeq) {
  VbCodec codec;
  auto values = RandomSortedList(5000, 1 << 20, 88);
  auto set = codec.Encode(values, 1 << 20);
  const auto& s = static_cast<const BlockedSet<VbTraits>&>(*set);
  BlockedCursor<VbTraits> cursor(s);
  uint32_t v;
  // Before the first element.
  ASSERT_TRUE(cursor.NextGEQ(0, &v));
  EXPECT_EQ(v, values[0]);
  // Exact hits and between-value targets, ascending.
  for (size_t i = 100; i < values.size(); i += 500) {
    ASSERT_TRUE(cursor.NextGEQ(values[i], &v));
    EXPECT_EQ(v, values[i]);
    if (values[i] + 1 < values[i + 1]) {
      ASSERT_TRUE(cursor.NextGEQ(values[i] + 1, &v));
      EXPECT_EQ(v, values[i + 1]);
    }
  }
  // Past the end.
  EXPECT_FALSE(cursor.NextGEQ(values.back() + 1, &v));
}

TEST(BlockedListTest, NoSkipVariantMatchesResults) {
  VbCodec with_skips(true);
  VbCodec no_skips(false);
  auto a = RandomSortedList(300, 1 << 20, 1);
  auto b = RandomSortedList(40000, 1 << 20, 2);
  auto sa1 = with_skips.Encode(a, 1 << 20);
  auto sb1 = with_skips.Encode(b, 1 << 20);
  auto sa2 = no_skips.Encode(a, 1 << 20);
  auto sb2 = no_skips.Encode(b, 1 << 20);
  std::vector<uint32_t> r1, r2;
  with_skips.Intersect(*sa1, *sb1, &r1);
  no_skips.Intersect(*sa2, *sb2, &r2);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, RefIntersect(a, b));
  // The no-skip encoding is smaller (skip pointers excluded from size).
  EXPECT_LT(sb2->SizeInBytes(), sb1->SizeInBytes());
}

// Regression for Fig. 7's no-skip mode: Serialize used to write the skip
// arrays that SizeInBytes excluded, so the measured compression ratio and
// the actual image disagreed. The framing is fixed (count u64 + flag u8 +
// one u64 length prefix per serialized vector), so the agreement can be
// checked exactly for both payload families.
TEST(BlockedListTest, NoSkipSerializationMatchesSizeAccounting) {
  const auto values = RandomSortedList(5000, 1 << 22, 93);
  const auto probe = RandomSortedList(400, 1 << 22, 94);

  // Delta-based traits (VB): a no-skip image carries the payload only;
  // both skip arrays are rebuilt on load.
  {
    VbCodec no_skips(false);
    auto set = no_skips.Encode(values, 1 << 22);
    std::vector<uint8_t> image;
    no_skips.Serialize(*set, &image);
    EXPECT_EQ(image.size(), 17 + set->SizeInBytes());

    auto restored = no_skips.Deserialize(image.data(), image.size());
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->SizeInBytes(), set->SizeInBytes());
    std::vector<uint32_t> decoded;
    no_skips.Decode(*restored, &decoded);
    EXPECT_EQ(decoded, values);
    // The rebuilt skip arrays must actually work (NextGEQ seeks with them).
    std::vector<uint32_t> out;
    no_skips.IntersectWithList(*restored, probe, &out);
    EXPECT_EQ(out, RefIntersect(values, probe));
  }

  // Frame-of-reference traits (SIMDBP128*): blocks are rebased to their
  // first value, so skip_first is payload and must survive the image; only
  // the byte offsets are rebuilt.
  {
    SimdBp128StarCodec no_skips(false);
    auto set = no_skips.Encode(values, 1 << 22);
    std::vector<uint8_t> image;
    no_skips.Serialize(*set, &image);
    EXPECT_EQ(image.size(), 17 + 8 + set->SizeInBytes());

    auto restored = no_skips.Deserialize(image.data(), image.size());
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(restored->SizeInBytes(), set->SizeInBytes());
    std::vector<uint32_t> decoded;
    no_skips.Decode(*restored, &decoded);
    EXPECT_EQ(decoded, values);
    std::vector<uint32_t> out;
    no_skips.IntersectWithList(*restored, probe, &out);
    EXPECT_EQ(out, RefIntersect(values, probe));
  }

  // The no-skip image must be strictly smaller than the with-skips image
  // of the same list, by exactly the skip metadata it drops.
  {
    VbCodec with(true), without(false);
    auto sw = with.Encode(values, 1 << 22);
    auto so = without.Encode(values, 1 << 22);
    std::vector<uint8_t> iw, io;
    with.Serialize(*sw, &iw);
    without.Serialize(*so, &io);
    const size_t nblocks = (values.size() + 127) / 128;
    EXPECT_EQ(iw.size() - io.size(), 2 * (8 + 4 * nblocks));
  }
}

TEST(BlockedListTest, GallopToBlockFindsLastLeq) {
  std::vector<uint32_t> firsts = {0, 100, 200, 300, 1000, 5000};
  EXPECT_EQ(GallopToBlock(firsts, 0, 0), 0u);
  EXPECT_EQ(GallopToBlock(firsts, 0, 99), 0u);
  EXPECT_EQ(GallopToBlock(firsts, 0, 100), 1u);
  EXPECT_EQ(GallopToBlock(firsts, 0, 999), 3u);
  EXPECT_EQ(GallopToBlock(firsts, 2, 1 << 30), 5u);
  EXPECT_EQ(GallopToBlock(firsts, 3, 300), 3u);
}

TEST(BlockedListTest, AlternateBlockSizes) {
  // The block-size ablation instantiations must satisfy the same
  // invariants as the default 128.
  auto values = RandomSortedList(5000, 1 << 22, 91);
  auto probe = RandomSortedList(700, 1 << 22, 92);
  auto RunAt = [&](auto codec) {
    auto set = codec.Encode(values, 1 << 22);
    std::vector<uint32_t> decoded;
    codec.Decode(*set, &decoded);
    EXPECT_EQ(decoded, values);
    std::vector<uint32_t> out;
    codec.IntersectWithList(*set, probe, &out);
    EXPECT_EQ(out, RefIntersect(values, probe));
    return set->SizeInBytes();
  };
  const size_t s16 = RunAt(BlockedListCodec<VbTraits, 16>());
  const size_t s64 = RunAt(BlockedListCodec<VbTraits, 64>());
  const size_t s128 = RunAt(BlockedListCodec<VbTraits, 128>());
  RunAt(BlockedListCodec<PforDeltaTraits, 32>());
  // Smaller blocks carry more skip pointers.
  EXPECT_GT(s16, s64);
  EXPECT_GT(s64, s128);
}

// --- PEF -----------------------------------------------------------------------

TEST(PefTest, ChoosesContainersByShape) {
  PefCodec codec;
  // A dense run partitions into implicit-run containers.
  std::vector<uint32_t> run(256);
  for (size_t i = 0; i < run.size(); ++i) run[i] = 5000 + i;
  auto sr = codec.Encode(run, 1 << 20);
  const auto& pr = static_cast<const PefCodec::Set&>(*sr);
  ASSERT_EQ(pr.parts.size(), 2u);
  EXPECT_EQ(pr.parts[0].type, PefCodec::PartitionType::kRun);
  EXPECT_EQ(pr.data.size(), 0u);  // implicit containers store nothing

  // A moderately dense partition prefers the bitmap container.
  auto dense = RandomSortedList(128, 300, 9);
  auto sd = codec.Encode(dense, 1 << 20);
  const auto& pd = static_cast<const PefCodec::Set&>(*sd);
  EXPECT_EQ(pd.parts[0].type, PefCodec::PartitionType::kBitmap);

  // A sparse partition uses Elias-Fano.
  auto sparse = RandomSortedList(128, 1 << 20, 10);
  auto ss = codec.Encode(sparse, 1 << 20);
  const auto& ps = static_cast<const PefCodec::Set&>(*ss);
  EXPECT_EQ(ps.parts[0].type, PefCodec::PartitionType::kEliasFano);
}

TEST(PefTest, SpaceNearInformationTheoreticBound) {
  // EF uses ~2 + log2(u/n) bits per element; for 1M over 2^31 that is
  // ~13 bits/element. Allow generous slack for partition metadata.
  PefCodec codec;
  auto values = RandomSortedList(100000, uint64_t{1} << 31, 13);
  auto set = codec.Encode(values, uint64_t{1} << 31);
  const double bits_per_elem = 8.0 * set->SizeInBytes() / values.size();
  EXPECT_LT(bits_per_elem, 20.0);
  EXPECT_GT(bits_per_elem, 10.0);
}

// --- PEF bulk partition kernel vs a bit-at-a-time reference --------------------

uint32_t RefBit(const uint32_t* words, uint64_t pos) {
  return (words[pos >> 5] >> (pos & 31)) & 1u;
}

// Effective partition span of a PEF set: 128 for PEF, the whole list for
// the EF extension (partition size 0).
size_t RefSpan(size_t partition_size, size_t count) {
  return partition_size == 0 ? std::max<size_t>(1, count) : partition_size;
}

// Reference decode of a structurally valid PEF set: one bit per step through
// the bitmap / high-bit array, and the low bits read one bit at a time.
std::vector<uint32_t> RefPefDecode(const PefCodec::Set& s, size_t span) {
  std::vector<uint32_t> out;
  for (size_t p = 0; p < s.parts.size(); ++p) {
    const PefCodec::Partition& part = s.parts[p];
    const size_t n = std::min(span, s.count - p * span);
    const uint32_t* words = s.data.data() + part.offset;
    uint64_t pos = 0;
    for (size_t k = 0; k < n; ++k) {
      switch (part.type) {
        case PefCodec::PartitionType::kRun:
          out.push_back(part.first + static_cast<uint32_t>(k));
          break;
        case PefCodec::PartitionType::kBitmap:
          while (RefBit(words, pos) == 0) ++pos;
          out.push_back(part.first + static_cast<uint32_t>(pos++));
          break;
        case PefCodec::PartitionType::kEliasFano: {
          const int l = part.low_bits;
          const uint32_t* high =
              words + (static_cast<uint64_t>(n) * l + 31) / 32;
          while (RefBit(high, pos) == 0) ++pos;
          uint32_t low = 0;
          for (int b = 0; b < l; ++b) {
            low |= RefBit(words, static_cast<uint64_t>(k) * l + b) << b;
          }
          const uint32_t hi = static_cast<uint32_t>(pos++ - k);
          out.push_back(part.first + ((hi << l) | low));
          break;
        }
      }
    }
  }
  return out;
}

// Reference validator: the structural checks PefCodec::ValidateSet makes,
// then a per-element replay through RefPefDecode requiring strict global
// monotonicity and each partition's announced first and last.
bool RefPefValid(const PefCodec::Set& s, uint64_t domain,
                 size_t partition_size) {
  const uint64_t dmax = std::min<uint64_t>(domain, uint64_t{1} << 32);
  if (s.count > dmax) return false;
  const size_t span = RefSpan(partition_size, s.count);
  const size_t want_parts = s.count == 0 ? 0 : (s.count - 1) / span + 1;
  if (s.parts.size() != want_parts) return false;
  if (s.count == 0) return s.data.empty();
  uint64_t prev_last = 0;
  for (size_t p = 0; p < s.parts.size(); ++p) {
    const PefCodec::Partition& part = s.parts[p];
    const size_t n = std::min(span, s.count - p * span);
    if (part.first > part.last || part.last >= dmax) return false;
    if (p > 0 && part.first <= prev_last) return false;
    prev_last = part.last;
    const uint64_t universe = part.last - part.first;
    uint64_t bit_words = 0, bit_len = 0, skip = 0;
    switch (part.type) {
      case PefCodec::PartitionType::kRun:
        if (universe != n - 1) return false;
        continue;
      case PefCodec::PartitionType::kBitmap:
        bit_len = universe + 1;
        break;
      case PefCodec::PartitionType::kEliasFano:
        if (part.low_bits > 31) return false;
        skip = (static_cast<uint64_t>(n) * part.low_bits + 31) / 32;
        bit_len = n + (universe >> part.low_bits) + 1;
        break;
    }
    bit_words = (bit_len + 31) / 32;
    if (static_cast<uint64_t>(part.offset) + skip + bit_words > s.data.size())
      return false;
    const uint32_t* w = s.data.data() + part.offset + skip;
    uint64_t ones = 0;
    for (uint64_t b = 0; b < bit_words * 32; ++b) {
      if (RefBit(w, b) == 0) continue;
      if (b >= bit_len) return false;  // a set bit past the universe
      ++ones;
    }
    if (ones != n) return false;
  }
  const std::vector<uint32_t> values = RefPefDecode(s, span);
  size_t i = 0;
  for (size_t p = 0; p < s.parts.size(); ++p) {
    const size_t n = std::min(span, s.count - p * span);
    if (values[i] != s.parts[p].first || values[i + n - 1] != s.parts[p].last)
      return false;
    i += n;
  }
  for (size_t k = 1; k < values.size(); ++k) {
    if (values[k] <= values[k - 1]) return false;
  }
  return true;
}

// Builds a PEF set whose every partition is Elias-Fano with low-bit width
// `l`, whether or not the encoder would pick it: the decoder must handle any
// width the validator accepts, 0..31.
std::unique_ptr<PefCodec::Set> EncodeAllEf(const std::vector<uint32_t>& v,
                                           size_t span, int l) {
  auto set = std::make_unique<PefCodec::Set>();
  set->count = v.size();
  for (size_t i = 0; i < v.size(); i += span) {
    const size_t n = std::min(span, v.size() - i);
    PefCodec::Partition part;
    part.first = v[i];
    part.last = v[i + n - 1];
    part.offset = static_cast<uint32_t>(set->data.size());
    part.type = PefCodec::PartitionType::kEliasFano;
    part.low_bits = static_cast<uint8_t>(l);
    const uint64_t universe = part.last - part.first;
    const size_t lw = (static_cast<uint64_t>(n) * l + 31) / 32;
    const size_t hw = (n + (universe >> l) + 1 + 31) / 32;
    set->data.resize(part.offset + lw + hw, 0);
    uint32_t* low = set->data.data() + part.offset;
    uint32_t* high = low + lw;
    for (size_t k = 0; k < n; ++k) {
      const uint64_t off = v[i + k] - part.first;
      for (int b = 0; b < l; ++b) {
        const uint64_t pos = static_cast<uint64_t>(k) * l + b;
        low[pos >> 5] |= static_cast<uint32_t>((off >> b) & 1) << (pos & 31);
      }
      const uint64_t pos = (off >> l) + k;
      high[pos >> 5] |= uint32_t{1} << (pos & 31);
    }
    set->parts.push_back(part);
  }
  return set;
}

// Decode, checked parse and both probe paths agree with the reference.
void ExpectPefMatchesReference(const PefCodec& codec, size_t partition_size,
                               const PefCodec::Set& set,
                               const std::vector<uint32_t>& values,
                               uint64_t domain) {
  const size_t span = RefSpan(partition_size, set.count);
  ASSERT_EQ(RefPefDecode(set, span), values);
  std::vector<uint32_t> out;
  codec.Decode(set, &out);
  EXPECT_EQ(out, values);
  EXPECT_TRUE(RefPefValid(set, domain, partition_size));
  EXPECT_TRUE(codec.ValidateSet(set, domain).ok());
  std::vector<uint8_t> image;
  codec.Serialize(set, &image);
  auto checked = codec.DeserializeChecked(image, domain);
  ASSERT_TRUE(checked.ok()) << checked.status().ToString();
  codec.Decode(**checked, &out);
  EXPECT_EQ(out, values);
  // Every other value as the probe: the bulk probe materializes EF
  // partitions (or streams the oversized ones), the scalar ablation walks
  // NextGEQ.
  std::vector<uint32_t> probe;
  for (size_t i = 0; i < values.size(); i += 2) probe.push_back(values[i]);
  if (!values.empty() && values.back() < UINT32_MAX) {
    probe.push_back(values.back() + 1);  // past the end: no match
  }
  const std::vector<uint32_t> want = RefIntersect(values, probe);
  const KernelMode saved = GetKernelMode();
  for (KernelMode mode : {KernelMode::kAuto, KernelMode::kScalar}) {
    SetKernelMode(mode);
    codec.IntersectWithList(set, probe, &out);
    EXPECT_EQ(out, want) << KernelModeName(mode);
  }
  SetKernelMode(saved);
}

TEST(PefKernelTest, DecodeMatchesReferenceOnEveryContainer) {
  PefCodec codec;
  const uint64_t domain = uint64_t{1} << 24;
  // A run, a bitmap and an EF partition, then a partial last partition
  // (3 * 128 + 37 values).
  std::vector<uint32_t> v;
  for (uint32_t i = 0; i < 128; ++i) v.push_back(1000 + i);
  for (uint32_t x : RandomSortedList(128, 300, TestSeed(21))) {
    v.push_back(5000 + x);
  }
  for (uint32_t x : RandomSortedList(128 + 37, 1 << 20, TestSeed(22))) {
    v.push_back(10000 + x);
  }
  auto set = codec.Encode(v, domain);
  const auto& s = static_cast<const PefCodec::Set&>(*set);
  ASSERT_EQ(s.parts.size(), 4u);
  EXPECT_EQ(s.parts[0].type, PefCodec::PartitionType::kRun);
  EXPECT_EQ(s.parts[1].type, PefCodec::PartitionType::kBitmap);
  EXPECT_EQ(s.parts[2].type, PefCodec::PartitionType::kEliasFano);
  EXPECT_EQ(s.parts[3].type, PefCodec::PartitionType::kEliasFano);
  ExpectPefMatchesReference(codec, 128, s, v, domain);
}

TEST(PefKernelTest, DecodesEveryLowBitWidth) {
  PefCodec codec;
  for (int l = 0; l <= 31; ++l) {
    SCOPED_TRACE(l);
    // Offsets up to ~2^(l+2) per partition keep the high array short; two
    // values 2^31 apart fill a 31-bit low part.
    const uint64_t domain = std::min<uint64_t>(uint64_t{1} << 32,
                                               uint64_t{1} << (l + 9));
    std::vector<uint32_t> v =
        RandomSortedList(3 * 128 + 5, domain, TestSeed(100 + l));
    if (l == 31) v = {7, 7 + (uint32_t{1} << 31) + 12345, 0xFFFFFFF0u};
    auto set = EncodeAllEf(v, 128, l);
    ExpectPefMatchesReference(codec, 128, *set, v, domain);
  }
}

TEST(PefKernelTest, WholeListEfExtensionAndEmptyLists) {
  const PefCodec ef(0, "EF");
  const uint64_t domain = uint64_t{1} << 22;
  // One partition of 5000: past the 256-value validation chunk and the
  // 1024-value materialization cap, so the chunked replay and the
  // streaming probe both run. Sparse, dense and run-shaped lists reach the
  // EF, bitmap and run containers.
  std::vector<uint32_t> run(3000);
  for (uint32_t i = 0; i < run.size(); ++i) run[i] = 77 + i;
  const std::vector<std::vector<uint32_t>> lists = {
      RandomSortedList(5000, domain, TestSeed(31)),
      RandomSortedList(5000, 9000, TestSeed(32)), run};
  for (const auto& v : lists) {
    auto set = ef.Encode(v, domain);
    ExpectPefMatchesReference(ef, 0, static_cast<const PefCodec::Set&>(*set),
                              v, domain);
  }
  // Whole-list EF with every low-bit width, through the chunked paths.
  for (int l : {0, 5, 17, 31}) {
    SCOPED_TRACE(l);
    std::vector<uint32_t> v =
        RandomSortedList(1500, uint64_t{1} << std::min(32, l + 12),
                         TestSeed(40 + l));
    auto set = EncodeAllEf(v, v.size(), l);
    ExpectPefMatchesReference(ef, 0, *set, v, uint64_t{1} << 32);
  }
  for (size_t partition_size : {0, 128}) {
    const PefCodec codec(partition_size);
    auto set = codec.Encode({}, domain);
    ExpectPefMatchesReference(codec, partition_size,
                              static_cast<const PefCodec::Set&>(*set), {},
                              domain);
  }
}

// Two neighbouring values swapped inside one EF high bucket keep every
// structural count and the partition's first and last; only the replay's
// monotonicity check sees them, including across the replay's 256-value
// chunks.
TEST(PefKernelTest, ValidationRejectsSwappedLowBits) {
  const uint64_t domain = uint64_t{1} << 20;
  std::vector<uint32_t> v(600);
  for (uint32_t i = 0; i < v.size(); ++i) v[i] = 1000 + 5 * i;
  for (size_t partition_size : {0, 128}) {
    const PefCodec codec(partition_size);
    for (size_t at : {100, 255, 300, 511}) {
      // Swaps across a 128-value partition boundary change the partition
      // table and fail structurally instead.
      if (partition_size != 0 && (at + 1) % partition_size == 0) continue;
      SCOPED_TRACE(at);
      std::vector<uint32_t> swapped = v;
      std::swap(swapped[at], swapped[at + 1]);
      // l = 12 puts every offset (< 3000) in high bucket 0.
      auto set = EncodeAllEf(swapped, RefSpan(partition_size, v.size()), 12);
      EXPECT_FALSE(RefPefValid(*set, domain, partition_size));
      std::vector<uint8_t> image;
      codec.Serialize(*set, &image);
      auto checked = codec.DeserializeChecked(image, domain);
      ASSERT_FALSE(checked.ok());
      EXPECT_NE(checked.status().ToString().find("not strictly increasing"),
                std::string::npos)
          << checked.status().ToString();
    }
  }
}

// Seeded mutations of PEF images: DeserializeChecked must accept exactly the
// images the reference validator accepts, and decode those to the
// reference's values.
TEST(PefKernelTest, CheckedParseAgreesWithReferenceOnMutations) {
  const PefCodec pef;
  const PefCodec ef(0, "EF");
  const uint64_t domain = uint64_t{1} << 22;
  struct Base {
    const PefCodec* codec;
    size_t partition_size;
    std::vector<uint8_t> image;
  };
  std::vector<Base> bases;
  auto add = [&](const PefCodec* codec, size_t ps, const CompressedSet& set) {
    Base b{codec, ps, {}};
    codec->Serialize(set, &b.image);
    bases.push_back(std::move(b));
  };
  std::vector<uint32_t> mixed;
  for (uint32_t i = 0; i < 200; ++i) mixed.push_back(50 + i);
  for (uint32_t x : RandomSortedList(300, 700, TestSeed(51))) {
    mixed.push_back(1000 + x);
  }
  for (uint32_t x : RandomSortedList(400, 1 << 21, TestSeed(52))) {
    mixed.push_back(2000 + x);
  }
  add(&pef, 128, *pef.Encode(mixed, domain));
  add(&ef, 0, *ef.Encode(RandomSortedList(700, domain, TestSeed(53)), domain));
  add(&ef, 0, *ef.Encode(RandomSortedList(600, 1500, TestSeed(54)), domain));
  add(&pef, 128,
      *EncodeAllEf(RandomSortedList(300, domain, TestSeed(55)), 128, 3));

  Prng rng(TestSeed(0x9ef));
  const int kIters = 12000;
  int accepted = 0, unordered = 0;
  for (int it = 0; it < kIters; ++it) {
    const Base& base = bases[rng.NextBounded(bases.size())];
    std::vector<uint8_t> image = base.image;
    const int flips = 1 + static_cast<int>(rng.NextBounded(3));
    for (int f = 0; f < flips; ++f) {
      // Mostly one flipped bit anywhere; sometimes a whole byte replaced.
      const size_t at = rng.NextBounded(image.size());
      if (rng.NextBounded(4) == 0) {
        image[at] = static_cast<uint8_t>(rng.Next());
      } else {
        image[at] ^= static_cast<uint8_t>(1u << rng.NextBounded(8));
      }
    }
    auto checked = base.codec->DeserializeChecked(image, domain);
    auto parsed = base.codec->Deserialize(image.data(), image.size());
    if (parsed == nullptr) {
      EXPECT_FALSE(checked.ok()) << "iteration " << it;
      continue;
    }
    const auto& s = static_cast<const PefCodec::Set&>(*parsed);
    const bool want = RefPefValid(s, domain, base.partition_size);
    ASSERT_EQ(checked.ok(), want)
        << "iteration " << it << ": "
        << (checked.ok() ? "accepted" : checked.status().ToString());
    if (!want) {
      if (checked.status().ToString().find("not strictly increasing") !=
          std::string::npos) {
        ++unordered;
      }
      continue;
    }
    ++accepted;
    std::vector<uint32_t> out;
    base.codec->Decode(**checked, &out);
    ASSERT_EQ(out, RefPefDecode(s, RefSpan(base.partition_size, s.count)))
        << "iteration " << it;
  }
  // The campaign must reach both outcomes, and the monotonicity check
  // specifically (flipped EF low bits that keep every structural count).
  EXPECT_GT(accepted, 0);
  EXPECT_GT(unordered, 0);
}

// --- List (uncompressed) ---------------------------------------------------------

TEST(PlainListTest, GallopIntersectMatchesMerge) {
  auto small = RandomSortedList(100, 1 << 20, 31);
  auto large = RandomSortedList(50000, 1 << 20, 32);
  std::vector<uint32_t> out;
  GallopIntersect(small, large, &out);
  EXPECT_EQ(out, RefIntersect(small, large));
  GallopIntersect(large, small, &out);  // also correct when "misused"
  EXPECT_EQ(out, RefIntersect(small, large));
}

}  // namespace
}  // namespace intcomp
