// EWAH (Enhanced Word-Aligned Hybrid) — paper §2.2, [26].
//
// The bitmap is split into 32-bit groups. A *marker* word encodes a run of
// p fill groups (p <= 65535, one fill value) followed by q literal groups
// (q <= 32767) stored verbatim after the marker. Marker layout (from MSB):
// bit 31 = fill value, bits 30..15 = p, bits 14..0 = q. The stream always
// starts with a marker.

#ifndef INTCOMP_BITMAP_EWAH_H_
#define INTCOMP_BITMAP_EWAH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "bitmap/rle_codec.h"
#include "bitmap/runstream.h"

namespace intcomp {

struct EwahTraits {
  static constexpr char kName[] = "EWAH";
  using Word = uint32_t;

  static constexpr uint32_t kMaxFill = 65535;
  static constexpr uint32_t kMaxLiterals = 32767;

  static uint32_t MakeMarker(bool fill_bit, uint32_t p, uint32_t q) {
    return (fill_bit ? 0x80000000u : 0u) | (p << 15) | q;
  }

  class Decoder {
   public:
    static constexpr int kGroupBits = 32;

    explicit Decoder(std::span<const uint32_t> words)
        : p_(words.data()), end_(words.data() + words.size()) {}

    bool Next(RunSegment* seg) {
      if (literals_left_ > 0) {
        --literals_left_;
        seg->is_fill = false;
        seg->literal = *p_++;
        return true;
      }
      while (p_ != end_) {
        uint32_t marker = *p_++;
        uint32_t fills = (marker >> 15) & kMaxFill;
        literals_left_ = marker & kMaxLiterals;
        if (fills > 0) {
          seg->is_fill = true;
          seg->fill_bit = (marker & 0x80000000u) != 0;
          seg->count = fills;
          return true;
        }
        if (literals_left_ > 0) {
          --literals_left_;
          seg->is_fill = false;
          seg->literal = *p_++;
          return true;
        }
        // Empty marker (p == 0, q == 0); keep scanning.
      }
      return false;
    }

   private:
    const uint32_t* p_;
    const uint32_t* end_;
    uint32_t literals_left_ = 0;
  };

  static void EncodeWords(std::span<const uint32_t> sorted,
                          std::vector<uint32_t>* words);
  // words->size() EncodeWords would produce, from the same encoder run
  // against a counting sink.
  static size_t CountWords(std::span<const uint32_t> sorted);

  // Verifies that every marker's literal count stays inside the stream —
  // the one read the Decoder cannot bound by itself (`seg->literal = *p_++`
  // trusts the marker's q field). Required before running a Decoder over an
  // untrusted stream.
  static bool CheckStream(std::span<const uint32_t> words) {
    size_t i = 0;
    while (i < words.size()) {
      const uint32_t q = words[i++] & kMaxLiterals;
      if (q > words.size() - i) return false;
      i += q;
    }
    return true;
  }
};

using EwahCodec = RleBitmapCodec<EwahTraits>;

}  // namespace intcomp

#endif  // INTCOMP_BITMAP_EWAH_H_
