// Corruption fuzzer for the untrusted-image boundary (DeserializeChecked).
//
// For every registry codec and extension, over uniform / zipf / markov /
// dense datasets: serialize a genuine image, then hammer DeserializeChecked
// with truncations, bit flips, length inflation, window scrambles, splices
// of two genuine images, and cross-codec images. The contract under test:
// DeserializeChecked either returns a non-OK Status or a set whose decode
// is sane (strictly increasing, inside the domain, cardinality-consistent)
// and round-trips through Encode — and it NEVER crashes, hangs, or trips a
// sanitizer. The CI ASan+UBSan job runs this binary with a raised
// --fuzz-iters; the default keeps tier-1 ctest fast.
//
// This binary has its own main (not gtest_main) to parse --fuzz-iters=N.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/prng.h"
#include "core/registry.h"
#include "common/fault.h"
#include "workload/synthetic.h"

namespace intcomp {

int g_fuzz_iters = 250;  // mutations per (codec, dataset, operator family)

namespace {

constexpr uint64_t kDomain = 1 << 17;

const std::vector<std::vector<uint32_t>>& Datasets() {
  static const auto* datasets = [] {
    auto* d = new std::vector<std::vector<uint32_t>>;
    d->push_back(GenerateUniform(4000, kDomain, 11));
    d->push_back(GenerateZipf(4000, kDomain, kPaperZipfSkew, 12));
    d->push_back(GenerateMarkov(4000, kDomain, kPaperMarkovClustering, 13));
    d->push_back(GenerateUniform(50000, kDomain, 14));  // dense, ~38%
    return d;
  }();
  return *datasets;
}

// Decode must be safe on any set DeserializeChecked accepted; the values
// must be a well-formed sorted set inside the domain, and re-encoding them
// must reproduce the same values (the set is semantically reachable, not
// just memory-safe to walk).
void ExpectSane(const Codec& codec, const CompressedSet& set) {
  std::vector<uint32_t> vals;
  codec.Decode(set, &vals);
  ASSERT_EQ(vals.size(), set.Cardinality());
  for (size_t i = 0; i < vals.size(); ++i) {
    ASSERT_LT(vals[i], kDomain) << "value past domain at " << i;
    if (i > 0) {
      ASSERT_LT(vals[i - 1], vals[i]) << "not increasing at " << i;
    }
  }
  auto re = codec.Encode(vals, kDomain);
  std::vector<uint32_t> vals2;
  codec.Decode(*re, &vals2);
  ASSERT_EQ(vals2, vals) << "accepted set does not round-trip";
}

void CheckImage(const Codec& codec, const std::vector<uint8_t>& image) {
  auto r = codec.DeserializeChecked(image, kDomain);
  if (r.ok()) ExpectSane(codec, **r);
}

std::vector<std::vector<uint8_t>> GenuineImages(const Codec& codec) {
  std::vector<std::vector<uint8_t>> images;
  for (const auto& data : Datasets()) {
    auto set = codec.Encode(data, kDomain);
    std::vector<uint8_t> image;
    codec.Serialize(*set, &image);
    images.push_back(std::move(image));
  }
  return images;
}

class CorruptionFuzzTest : public ::testing::TestWithParam<const Codec*> {};

TEST_P(CorruptionFuzzTest, GenuineImagesValidateAndRoundTrip) {
  const Codec& codec = *GetParam();
  const auto& datasets = Datasets();
  const auto images = GenuineImages(codec);
  for (size_t d = 0; d < images.size(); ++d) {
    SCOPED_TRACE(d);
    auto r = codec.DeserializeChecked(images[d], kDomain);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    std::vector<uint32_t> vals;
    codec.Decode(**r, &vals);
    EXPECT_EQ(vals, datasets[d]);
  }
}

TEST_P(CorruptionFuzzTest, SurvivesTruncationBitFlipsAndLengthInflation) {
  const Codec& codec = *GetParam();
  const auto images = GenuineImages(codec);
  for (size_t d = 0; d < images.size(); ++d) {
    SCOPED_TRACE(d);
    const std::vector<uint8_t>& image = images[d];
    Prng rng(7000 + d);
    // Small prefixes always (header parsing edge cases are dense there).
    for (size_t n = 0; n <= std::min<size_t>(image.size(), 64); ++n) {
      CheckImage(codec, TruncateAt(image, n));
    }
    for (int it = 0; it < g_fuzz_iters; ++it) {
      std::vector<uint8_t> mut;
      switch (rng.NextBounded(4)) {
        case 0:
          mut = TruncateAt(image, rng.NextBounded(image.size() + 1));
          FlipBits(&mut, rng.NextBounded(3), &rng);
          break;
        case 1:
          mut = image;
          FlipBits(&mut, 1 + rng.NextBounded(8), &rng);
          break;
        case 2:
          mut = image;
          InflateLength(&mut, &rng);
          break;
        default:
          mut = image;
          Scramble(&mut, &rng);
          break;
      }
      CheckImage(codec, mut);
    }
  }
}

TEST_P(CorruptionFuzzTest, SurvivesSplicedImages) {
  const Codec& codec = *GetParam();
  const auto images = GenuineImages(codec);
  Prng rng(9100);
  for (int it = 0; it < g_fuzz_iters; ++it) {
    const auto& a = images[rng.NextBounded(images.size())];
    const auto& b = images[rng.NextBounded(images.size())];
    std::vector<uint8_t> mut = Splice(a, b, &rng);
    if (rng.NextBounded(2) == 0) FlipBits(&mut, 1, &rng);
    CheckImage(codec, mut);
  }
}

TEST_P(CorruptionFuzzTest, SurvivesForeignCodecImages) {
  // Feed this codec images genuinely produced by every *other* codec — the
  // framing is wrong from byte 0, which exercises a different rejection
  // path than local mutations.
  const Codec& codec = *GetParam();
  for (const Codec* other : AllCodecs()) {
    if (other == &codec) continue;
    SCOPED_TRACE(std::string(other->Name()));
    auto set = other->Encode(Datasets()[0], kDomain);
    std::vector<uint8_t> image;
    other->Serialize(*set, &image);
    CheckImage(codec, image);
  }
}

std::vector<const Codec*> AllAndExtensions() {
  // Shared roster (core/registry.h): paper methods + extensions, so this
  // suite can never drift from the other differential suites.
  return {AllCodecsWithExtensions().begin(), AllCodecsWithExtensions().end()};
}

std::string ParamName(const ::testing::TestParamInfo<const Codec*>& info) {
  std::string name;
  for (char c : std::string(info.param->Name())) {
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
        (c >= '0' && c <= '9')) {
      name += c;
    } else if (c == '*') {
      name += "Star";
    }
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CorruptionFuzzTest,
                         ::testing::ValuesIn(AllAndExtensions()), ParamName);

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg.rfind("--fuzz-iters=", 0) == 0) {
      value = argv[i] + 13;
    } else if (arg == "--fuzz-iters" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    char* end = nullptr;
    const long iters = std::strtol(value, &end, 10);
    if (end == value || *end != '\0' || iters <= 0) {
      std::fprintf(stderr, "--fuzz-iters: expected a positive integer, got '%s'\n",
                   value);
      return 1;
    }
    intcomp::g_fuzz_iters = static_cast<int>(iters);
  }
  return RUN_ALL_TESTS();
}
