// Generic Codec adapter for run-length-encoded bitmap methods.
//
// A codec supplies a Traits type:
//
//   struct FooTraits {
//     static constexpr char kName[] = "Foo";
//     using Word = uint32_t;                       // storage unit
//     struct Decoder {                             // segment decoder
//       static constexpr int kGroupBits = ...;
//       explicit Decoder(std::span<const Word> words);
//       bool Next(RunSegment* seg);
//     };
//     static void EncodeWords(std::span<const uint32_t> sorted,
//                             std::vector<Word>* words);
//     // Optional: the word count EncodeWords would produce, without
//     // building the words; makes EncodedSize closed form.
//     static size_t CountWords(std::span<const uint32_t> sorted);
//   };
//
// and RleBitmapCodec<FooTraits> provides the full Codec interface by running
// the shared run-stream engine over the decoder — i.e. intersection and
// union operate directly on the compressed words, as all WAH-family methods
// do (paper §2.1).

#ifndef INTCOMP_BITMAP_RLE_CODEC_H_
#define INTCOMP_BITMAP_RLE_CODEC_H_

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "bitmap/runstream.h"
#include "common/bits.h"
#include "common/serialize_util.h"
#include "common/status.h"
#include "common/varray.h"
#include "core/codec.h"

namespace intcomp {

template <typename Traits>
class RleBitmapCodec final : public Codec {
 public:
  using Word = typename Traits::Word;
  using Decoder = typename Traits::Decoder;

  struct Set final : CompressedSet {
    // Owned when built by Encode/Deserialize; a borrowed view of the mapped
    // file when built by DeserializeView (common/varray.h).
    VArray<Word> words;
    size_t cardinality = 0;

    size_t SizeInBytes() const override { return words.size() * sizeof(Word); }
    size_t Cardinality() const override { return cardinality; }
  };

  RleBitmapCodec() = default;

  std::string_view Name() const override { return Traits::kName; }
  CodecFamily Family() const override { return CodecFamily::kBitmap; }

  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
                                        uint64_t /*domain*/) const override {
    auto set = std::make_unique<Set>();
    set->cardinality = sorted.size();
    std::vector<Word> words;
    Traits::EncodeWords(sorted, &words);
    set->words = VArray<Word>(std::move(words));
    return set;
  }

  size_t EncodedSize(std::span<const uint32_t> sorted,
                     uint64_t domain) const override {
    if constexpr (requires { Traits::CountWords(sorted); }) {
      return Traits::CountWords(sorted) * sizeof(Word);
    } else {
      return Codec::EncodedSize(sorted, domain);
    }
  }

  void Decode(const CompressedSet& set,
              std::vector<uint32_t>* out) const override {
    out->clear();
    const auto& s = static_cast<const Set&>(set);
    out->reserve(s.cardinality);
    SegmentDecode(Decoder(s.words), out);
  }

  void Intersect(const CompressedSet& a, const CompressedSet& b,
                 std::vector<uint32_t>* out) const override {
    out->clear();
    const auto& sa = static_cast<const Set&>(a);
    const auto& sb = static_cast<const Set&>(b);
    SegmentIntersect(Decoder(sa.words), Decoder(sb.words), out);
  }

  void Union(const CompressedSet& a, const CompressedSet& b,
             std::vector<uint32_t>* out) const override {
    out->clear();
    const auto& sa = static_cast<const Set&>(a);
    const auto& sb = static_cast<const Set&>(b);
    out->reserve(sa.cardinality + sb.cardinality);
    SegmentUnion(Decoder(sa.words), Decoder(sb.words), out);
  }

  void IntersectWithList(const CompressedSet& a,
                         std::span<const uint32_t> probe,
                         std::vector<uint32_t>* out) const override {
    out->clear();
    const auto& sa = static_cast<const Set&>(a);
    SegmentIntersectWithList(Decoder(sa.words), probe, out);
  }

  void Serialize(const CompressedSet& set,
                 std::vector<uint8_t>* out) const override {
    const auto& s = static_cast<const Set&>(set);
    ByteWriter(out).PutU64(s.cardinality);
    WriteSpan<Word>(s.words, out);
  }

  std::unique_ptr<CompressedSet> Deserialize(const uint8_t* data,
                                             size_t size) const override {
    ByteReader reader(data, size);
    if (reader.Remaining() < 8) return nullptr;
    auto set = std::make_unique<Set>();
    set->cardinality = reader.GetU64();
    std::vector<Word> words;
    if (!ReadVector(&reader, &words)) return nullptr;
    set->words = VArray<Word>(std::move(words));
    return set;
  }

  // Wire layout is [u64 cardinality][u64 nwords][words...]: the word array
  // begins 16 bytes in, so any 8-byte-aligned image (the container format
  // aligns every payload) yields an aligned borrow. Misaligned images fall
  // back to the copying parse rather than fault.
  std::unique_ptr<CompressedSet> DeserializeView(
      std::span<const uint8_t> image) const override {
    CheckedByteReader reader(image.data(), image.size());
    uint64_t cardinality = 0;
    uint64_t n = 0;
    if (!reader.GetU64(&cardinality) || !reader.GetU64(&n)) return nullptr;
    if (n > reader.Remaining() / sizeof(Word)) return nullptr;
    const uint8_t* p = image.data() + reader.Position();
    if (reinterpret_cast<uintptr_t>(p) % alignof(Word) != 0) {
      return Deserialize(image.data(), image.size());
    }
    auto set = std::make_unique<Set>();
    set->cardinality = cardinality;
    set->words = VArray<Word>::View(
        {reinterpret_cast<const Word*>(p), static_cast<size_t>(n)});
    return set;
  }

  bool SupportsViewDeserialize() const override { return true; }

  Status ValidateSet(const CompressedSet& set,
                     uint64_t domain) const override {
    const auto& s = static_cast<const Set&>(set);
    constexpr uint64_t kW = Decoder::kGroupBits;
    const uint64_t dmax = std::min<uint64_t>(domain, uint64_t{1} << 32);
    const std::span<const Word> words = s.words;
    if constexpr (requires { Traits::CheckStream(words); }) {
      // Codecs whose decoders take data-dependent strides (EWAH marker
      // literal counts, BBC variable-length headers) must prove the word
      // walk stays in bounds before a decoder may run over the stream.
      if (!Traits::CheckStream(words)) {
        return Status::Corrupt("malformed word stream");
      }
    }
    // Replay the segment stream, bounding every group position by the domain
    // and recounting set bits. This is exactly the coverage Decode/Intersect/
    // Union rely on: EmitRange/EmitBits truncate positions to uint32, so any
    // group beyond ceil(dmax / kW) would silently wrap.
    const uint64_t max_groups = (dmax + kW - 1) / kW;
    Decoder dec(words);
    RunSegment seg;
    uint64_t pos = 0;   // current group index
    uint64_t bits = 0;  // set bits seen so far
    while (dec.Next(&seg)) {
      if (seg.is_fill) {
        if (seg.count > max_groups - pos) {
          return Status::Corrupt("fill run extends past domain");
        }
        if (seg.fill_bit) {
          if ((pos + seg.count) * kW > dmax) {
            return Status::Corrupt("1-fill covers bits past domain");
          }
          bits += seg.count * kW;
        }
        pos += seg.count;
      } else {
        if (pos >= max_groups) {
          return Status::Corrupt("literal group past domain");
        }
        if (seg.literal != 0) {
          const uint64_t high = BitWidth32(seg.literal) - 1;
          if (pos * kW + high >= dmax) {
            return Status::Corrupt("literal sets bit past domain");
          }
          bits += PopCount32(seg.literal);
        }
        ++pos;
      }
    }
    if (bits != s.cardinality) {
      return Status::Corrupt("cardinality mismatch");
    }
    return Status::Ok();
  }
};

}  // namespace intcomp

#endif  // INTCOMP_BITMAP_RLE_CODEC_H_
