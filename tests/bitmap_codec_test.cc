// Structural (format-level) tests for the bitmap codecs: word layouts,
// paper worked examples, container/pattern selection, and edge behaviors
// that the generic property suite cannot pin down.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "bitmap/bbc.h"
#include "bitmap/bitset.h"
#include "bitmap/concise.h"
#include "bitmap/ewah.h"
#include "bitmap/group_builder.h"
#include "bitmap/plwah.h"
#include "bitmap/roaring.h"
#include "bitmap/sbh.h"
#include "bitmap/valwah.h"
#include "bitmap/wah.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

// --- WAH ------------------------------------------------------------------

TEST(WahTest, PaperExampleStructure) {
  // §2.1: bitmap 1 0^20 1^3 0^111 1^25 (160 bits). Groups: G1 literal,
  // G2-G4 a 3-group 0-fill, G5 literal, G6 literal.
  std::vector<uint32_t> values;
  values.push_back(0);
  for (uint32_t i = 21; i < 24; ++i) values.push_back(i);
  for (uint32_t i = 135; i < 160; ++i) values.push_back(i);

  std::vector<uint32_t> words;
  WahTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 4u);
  EXPECT_EQ(words[0] >> 31, 0u);  // literal G1
  EXPECT_EQ(words[1], 0x80000000u | 3u);  // 0-fill of 3 groups
  EXPECT_EQ(words[2] >> 31, 0u);  // literal G5
  EXPECT_EQ(words[3] >> 31, 0u);  // literal G6
}

TEST(WahTest, AllOnesBecomesOneFill) {
  std::vector<uint32_t> values(31 * 10);
  for (size_t i = 0; i < values.size(); ++i) values[i] = i;
  std::vector<uint32_t> words;
  WahTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x80000000u | 0x40000000u | 10u);
}

TEST(WahTest, HugeFillRunFitsOneWord) {
  // WAH's 30-bit fill counter covers the whole uint32 domain (at most
  // ~2^32/31 < 2^30 groups), so even the largest gap is a single fill word.
  std::vector<uint32_t> values = {0, 4294967290u};
  std::vector<uint32_t> words;
  WahTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 3u);  // literal, one fill word, literal
  const uint64_t gap_groups = 4294967290ull / 31 - 1;
  EXPECT_EQ(words[1], 0x80000000u | static_cast<uint32_t>(gap_groups));
}

// --- EWAH -----------------------------------------------------------------

TEST(EwahTest, MarkerCarriesFillAndLiteralCounts) {
  // 32 ones (one 1-fill group), then a gap of 2 zero groups, then a literal.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 32; ++i) values.push_back(i);
  values.push_back(97);  // group 3, payload bit 1
  std::vector<uint32_t> words;
  EwahTraits::EncodeWords(values, &words);
  // marker(1-fill p=1, q=0), marker(0-fill p=2, q=1), literal.
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ(words[0], EwahTraits::MakeMarker(true, 1, 0));
  EXPECT_EQ(words[1], EwahTraits::MakeMarker(false, 2, 1));
  EXPECT_EQ(words[2], 1u << 1);
}

TEST(EwahTest, FillRunLongerThan65535Splits) {
  std::vector<uint32_t> values = {0, 32u * 70000u};
  std::vector<uint32_t> words;
  EwahTraits::EncodeWords(values, &words);
  // marker(q=1) + literal + marker(65535 fills) + marker(rest, q=1) + literal
  ASSERT_EQ(words.size(), 5u);
  EXPECT_EQ(words[2], EwahTraits::MakeMarker(false, 65535, 0));
  EXPECT_EQ(words[3], EwahTraits::MakeMarker(false, 70000 - 1 - 65535, 1));
}

// EWAH's encoder as first written: one report per non-empty group; a zero
// or all-ones payload extends the current fill, any other is a literal.
std::vector<uint32_t> ReferenceEwahWords(std::span<const uint32_t> sorted) {
  std::vector<uint32_t> words, literals;
  uint64_t fill_count = 0;
  bool fill_bit = false;
  const auto flush = [&] {
    for (; fill_count > EwahTraits::kMaxFill;
         fill_count -= EwahTraits::kMaxFill) {
      words.push_back(EwahTraits::MakeMarker(fill_bit, EwahTraits::kMaxFill, 0));
    }
    if (fill_count == 0 && literals.empty()) return;
    words.push_back(EwahTraits::MakeMarker(
        fill_bit, static_cast<uint32_t>(fill_count),
        static_cast<uint32_t>(literals.size())));
    words.insert(words.end(), literals.begin(), literals.end());
    fill_count = 0;
    literals.clear();
  };
  const auto add_fill = [&](bool bit, uint64_t n) {
    if (n == 0) return;
    if (!literals.empty() || (fill_count > 0 && fill_bit != bit)) flush();
    fill_bit = bit;
    fill_count += n;
  };
  ForEachGroup(sorted, 32, [&](uint64_t zero_gap, uint32_t payload) {
    add_fill(false, zero_gap);
    if (payload == 0 || payload == ~uint32_t{0}) {
      add_fill(payload != 0, 1);
    } else {
      literals.push_back(payload);
      if (literals.size() == EwahTraits::kMaxLiterals) flush();
    }
  });
  flush();
  return words;
}

// The encoder adds a stretch of full groups as one fill and a run of dirty
// groups in one scan; its words and its count must match the reference.
TEST(EwahTest, WordsMatchAGroupByGroupReference) {
  std::vector<std::vector<uint32_t>> lists = {{}, {0}, {31}, {0, 31, 32}};
  // Dirty, full, dirty, full, full, dirty groups back to back; then a full
  // group cut one value short at the end of the list.
  std::vector<uint32_t> mixed = {3};
  for (uint32_t v = 32; v < 64; ++v) mixed.push_back(v);
  mixed.push_back(70);
  for (uint32_t v = 96; v < 160; ++v) mixed.push_back(v);
  mixed.push_back(161);
  for (uint32_t v = 192; v < 223; ++v) mixed.push_back(v);
  lists.push_back(mixed);
  // kMaxLiterals + 3 adjacent dirty groups.
  std::vector<uint32_t> dirty;
  for (uint32_t g = 0; g < EwahTraits::kMaxLiterals + 3; ++g) {
    dirty.push_back(32 * g + 1 + g % 29);
  }
  lists.push_back(dirty);
  uint64_t seed = TestSeed(5150);
  for (uint64_t n : {100, 3000, 20000, 32000}) {
    lists.push_back(GenerateUniform(n, 1 << 16, seed++));
  }
  for (double run : {4.0, 40.0, 400.0}) {
    lists.push_back(GenerateMarkov(1 << 14, 1 << 16, run, seed++));
    lists.push_back(GenerateMarkov(60000, 1 << 16, run, seed++));
  }
  for (size_t i = 0; i < lists.size(); ++i) {
    std::vector<uint32_t> words;
    EwahTraits::EncodeWords(lists[i], &words);
    EXPECT_EQ(words, ReferenceEwahWords(lists[i])) << "list " << i;
    EXPECT_EQ(EwahTraits::CountWords(lists[i]), words.size()) << "list " << i;
  }
}

// --- CONCISE ---------------------------------------------------------------

TEST(ConciseTest, LiteralHasMsbSet) {
  std::vector<uint32_t> values = {1, 5};
  std::vector<uint32_t> words;
  ConciseTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 1u);
  EXPECT_EQ(words[0], 0x80000000u | (1u << 1) | (1u << 5));
}

TEST(ConciseTest, MixedFillMergesPrecedingNearFillLiteral) {
  // §2.3-style: one bit set in group 0 (bit 23), then 3 empty groups, then a
  // literal in group 4. The first 4 groups collapse into one sequence word
  // with the odd-bit position.
  std::vector<uint32_t> values = {23};
  for (uint32_t i = 4 * 31; i < 4 * 31 + 20; ++i) values.push_back(i);
  std::vector<uint32_t> words;
  ConciseTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 2u);
  const uint32_t seq = words[0];
  EXPECT_EQ(seq >> 31, 0u);                  // sequence word
  EXPECT_EQ((seq >> 30) & 1u, 0u);           // 0-fill
  EXPECT_EQ((seq >> 25) & 31u, 24u);         // odd bit position 23 (1-based)
  EXPECT_EQ(seq & 0x1ffffffu, 3u);           // 4 groups => count-1 = 3
  EXPECT_EQ(words[1] >> 31, 1u);             // trailing literal
}

TEST(ConciseTest, PureFillHasZeroPosition) {
  std::vector<uint32_t> values = {3, 17, 31 * 100};  // literal, long gap, lit
  std::vector<uint32_t> words;
  ConciseTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 3u);
  EXPECT_EQ((words[1] >> 25) & 31u, 0u);
  EXPECT_EQ(words[1] & 0x1ffffffu, 99u - 1u);  // 99 zero groups
}

// --- PLWAH ------------------------------------------------------------------

TEST(PlwahTest, FillAbsorbsFollowingNearFillLiteral) {
  // §2.4: fill groups followed by a literal with a single odd bit are one
  // word. 3 zero groups then bit 100 (group 3, offset 7).
  std::vector<uint32_t> values = {100};
  std::vector<uint32_t> words;
  PlwahTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 1u);
  const uint32_t w = words[0];
  EXPECT_EQ(w >> 31, 1u);             // fill word
  EXPECT_EQ((w >> 30) & 1u, 0u);      // 0-fill
  EXPECT_EQ((w >> 25) & 31u, 8u);     // odd bit 7 (1-based)
  EXPECT_EQ(w & 0x1ffffffu, 3u);      // 3 fill groups
}

TEST(PlwahTest, DenseLiteralIsNotAbsorbed) {
  std::vector<uint32_t> values = {95, 96};  // group 3 literal with two bits
  std::vector<uint32_t> words;
  PlwahTraits::EncodeWords(values, &words);
  ASSERT_EQ(words.size(), 2u);
  EXPECT_EQ((words[0] >> 25) & 31u, 0u);  // pure fill
  EXPECT_EQ(words[1] >> 31, 0u);          // literal
}

// --- SBH --------------------------------------------------------------------

TEST(SbhTest, ShortFillIsOneByte) {
  std::vector<uint32_t> values = {0, 7 * 10 + 3};  // 9-group zero gap
  std::vector<uint8_t> bytes;
  SbhTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x01);        // literal, bit 0
  EXPECT_EQ(bytes[1], 0x80 | 9);    // 0-fill of 9 groups
  EXPECT_EQ(bytes[2], 0x08);        // literal, bit 3
}

TEST(SbhTest, LongFillUsesTwoBytes) {
  std::vector<uint32_t> values = {0, 7 * 101};  // 100-group gap (> 63)
  std::vector<uint8_t> bytes;
  SbhTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 4u);
  EXPECT_EQ(bytes[1], 0x80 | (100 & 0x3f));
  EXPECT_EQ(bytes[2], 0x80 | (100 >> 6));
}

TEST(SbhTest, RunOverMaxSplitsIntoTwoByteTokens) {
  std::vector<uint32_t> values = {0, 7 * 5001};  // 5000-group gap (> 4093)
  std::vector<uint8_t> bytes;
  SbhTraits::EncodeWords(values, &bytes);
  // literal + 2 two-byte fills + literal.
  ASSERT_EQ(bytes.size(), 6u);
  // Both chunks are two-byte encoded, so no one-byte/two-byte ambiguity.
  EXPECT_EQ(bytes[1] & 0xc0, 0x80);
  EXPECT_EQ(bytes[2] & 0xc0, 0x80);
  EXPECT_EQ(bytes[3] & 0xc0, 0x80);
  EXPECT_EQ(bytes[4] & 0xc0, 0x80);
}

// --- BBC --------------------------------------------------------------------

TEST(BbcTest, Pattern1ShortFillPlusLiterals) {
  // 2 zero bytes then two literal bytes (mirror of Fig. 2a).
  std::vector<uint32_t> values = {17, 20, 21, 24, 30};  // bytes 2 and 3
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x80 | (2u << 4) | 2u);  // P1, t=0, k=2, q=2
}

TEST(BbcTest, Pattern2OddByteAfterShortFill) {
  // Fig. 2b mirrored: 2 zero bytes then a byte with one set bit (pos 1).
  std::vector<uint32_t> values = {17};
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x40 | (2u << 3) | 1u);  // P2, t=0, k=2, pos=1
}

TEST(BbcTest, Pattern3LongFillPlusLiterals) {
  // Fig. 2c mirrored: 4 zero bytes then a 2-bit literal.
  std::vector<uint32_t> values = {32, 36};
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 3u);
  EXPECT_EQ(bytes[0], 0x20 | 1u);  // P3, t=0, q=1
  EXPECT_EQ(bytes[1], 4u);         // VByte counter = 4 fill bytes
  EXPECT_EQ(bytes[2], (1u << 0) | (1u << 4));
}

TEST(BbcTest, Pattern4OddByteAfterLongFill) {
  // Fig. 2d mirrored: 4 zero bytes then one set bit at position 7.
  std::vector<uint32_t> values = {39};
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x10 | 7u);  // P4, t=0, pos=7
  EXPECT_EQ(bytes[1], 4u);         // counter
}

TEST(BbcTest, LiteralRunsSplitAtFifteen) {
  // 40 consecutive non-fill bytes (alternating bit patterns) must split
  // into chunks of <= 15 literals.
  std::vector<uint32_t> values;
  for (uint32_t byte = 0; byte < 40; ++byte) values.push_back(byte * 8 + 1);
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  // Headers at chunk starts: 15+15+10 literals -> 3 headers + 40 literals.
  ASSERT_EQ(bytes.size(), 43u);
  EXPECT_EQ(bytes[0], 0x80 | 15u);
  EXPECT_EQ(bytes[16], 0x80 | 15u);
  EXPECT_EQ(bytes[32], 0x80 | 10u);
}

TEST(BbcTest, OneFillRuns) {
  // 8 one-fill bytes, then a byte with a single *zero* bit (bit 7) — an odd
  // byte relative to the 1-fill.
  std::vector<uint32_t> values;
  for (uint32_t i = 0; i < 71; ++i) values.push_back(i);  // bits 64..70 set
  std::vector<uint8_t> bytes;
  BbcTraits::EncodeWords(values, &bytes);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(bytes[0], 0x10 | 0x08 | 7u);  // P4, t=1, pos=7
  EXPECT_EQ(bytes[1], 8u);                // counter
}

// --- Roaring ----------------------------------------------------------------

TEST(RoaringTest, ContainerTypeThreshold) {
  auto a4096 = RandomSortedList(4096, 65536, 1);
  auto a4097 = RandomSortedList(4097, 65536, 2);
  RoaringCodec codec;
  auto s1 = codec.Encode(a4096, 1u << 16);
  auto s2 = codec.Encode(a4097, 1u << 16);
  const auto& r1 = static_cast<const RoaringCodec::Set&>(*s1);
  const auto& r2 = static_cast<const RoaringCodec::Set&>(*s2);
  ASSERT_EQ(r1.containers.size(), 1u);
  ASSERT_EQ(r2.containers.size(), 1u);
  EXPECT_FALSE(r1.containers[0].is_bitmap);  // <= 4096 stays an array
  EXPECT_TRUE(r2.containers[0].is_bitmap);   // > 4096 becomes a bitmap
  // Array container: 2 bytes per element; bitmap container: 8KB fixed.
  EXPECT_EQ(r1.SizeInBytes(), 4u + 2u * 4096u);
  EXPECT_EQ(r2.SizeInBytes(), 4u + 8192u);
}

TEST(RoaringTest, BucketSkippingIntersection) {
  // Values in disjoint 2^16 buckets intersect to empty without touching
  // payloads; shared buckets produce hits.
  std::vector<uint32_t> a = {5, 100, 65536 * 2 + 7};
  std::vector<uint32_t> b = {65536 + 5, 65536 * 2 + 7, 65536 * 3 + 1};
  RoaringCodec codec;
  auto sa = codec.Encode(a, uint64_t{1} << 32);
  auto sb = codec.Encode(b, uint64_t{1} << 32);
  std::vector<uint32_t> out;
  codec.Intersect(*sa, *sb, &out);
  EXPECT_EQ(out, std::vector<uint32_t>{65536u * 2 + 7});
}

TEST(RoaringTest, MixedContainerOps) {
  auto dense = RandomSortedList(30000, 65536, 3);          // bitmap container
  auto sparse = RandomSortedList(100, 65536, 4);           // array container
  RoaringCodec codec;
  auto sd = codec.Encode(dense, 1u << 16);
  auto ss = codec.Encode(sparse, 1u << 16);
  std::vector<uint32_t> out;
  codec.Intersect(*sd, *ss, &out);
  EXPECT_EQ(out, RefIntersect(dense, sparse));
  codec.Union(*sd, *ss, &out);
  EXPECT_EQ(out, RefUnion(dense, sparse));
}

// --- VALWAH -----------------------------------------------------------------

TEST(ValwahTest, PicksSmallestSegmentLength) {
  // A very sparse bitmap compresses best with short segments (7-bit units);
  // a dense literal-heavy bitmap prefers 31-bit units.
  ValwahCodec codec;
  auto sparse = RandomSortedList(5000, 1 << 19, 11);  // short fills dominate
  auto s = codec.Encode(sparse, 1 << 19);
  const auto& vs = static_cast<const ValwahCodec::Set&>(*s);
  EXPECT_LT(vs.unit_bytes, 4);

  auto dense = RandomSortedList(40000, 1 << 17, 12);
  auto d = codec.Encode(dense, 1 << 17);
  const auto& vd = static_cast<const ValwahCodec::Set&>(*d);
  EXPECT_EQ(vd.unit_bytes, 4);
}

TEST(ValwahTest, CrossWidthIntersection) {
  // Operands that picked different segment widths must still intersect
  // correctly through the bit-granular engine.
  ValwahCodec codec;
  auto sparse = RandomSortedList(60, 1 << 20, 21);     // mid-length fills
  auto dense = RandomSortedList(40000, 1 << 17, 22);   // literal-dominated
  auto ss = codec.Encode(sparse, 1 << 20);
  auto sd = codec.Encode(dense, 1 << 17);
  const auto& a = static_cast<const ValwahCodec::Set&>(*ss);
  const auto& b = static_cast<const ValwahCodec::Set&>(*sd);
  ASSERT_NE(a.unit_bytes, b.unit_bytes);  // the interesting case
  std::vector<uint32_t> out;
  codec.Intersect(*ss, *sd, &out);
  EXPECT_EQ(out, RefIntersect(sparse, dense));
  codec.Union(*ss, *sd, &out);
  EXPECT_EQ(out, RefUnion(sparse, dense));
}

// --- Bitset -----------------------------------------------------------------

TEST(BitsetTest, SizeTracksMaxElementNotCardinality) {
  BitsetCodec codec;
  auto small = codec.Encode(std::vector<uint32_t>{1, 2, 3}, 1 << 30);
  auto wide = codec.Encode(std::vector<uint32_t>{1 << 20}, 1 << 30);
  EXPECT_LT(small->SizeInBytes(), 64u);
  EXPECT_GE(wide->SizeInBytes(), (1u << 20) / 8);
}

}  // namespace
}  // namespace intcomp
