// SIMDPforDelta and SIMDPforDelta* — paper §3.10, [25].
//
// PforDelta with the 128-bit vertical SIMD layout: the low b bits of all
// 128 d-gaps are packed so one SIMD instruction touches four elements, and
// decoding finishes with a SIMD prefix sum. Exceptions (absent in the *
// variant, which uses the full width) are patched from explicit
// position/high-bit arrays, as SIMD-PFOR implementations do.
//
// Block layout: [b u8][n_exc u8][packed: 16*b bytes]
//               [positions: n_exc u8][highs: n_exc u32]
// Blocks are always packed as full 128-value groups (tails are
// zero-padded), which is what makes the unpack branch-free.

#ifndef INTCOMP_INVLIST_SIMDPFORDELTA_H_
#define INTCOMP_INVLIST_SIMDPFORDELTA_H_

#include <cstdint>
#include <vector>

#include "invlist/blocked_list.h"

namespace intcomp {

namespace simdpfor_internal {
void EncodeBlockImpl(const uint32_t* in, size_t n, int threshold_percent,
                     std::vector<uint8_t>* out);
// Bytes EncodeBlockImpl would append, from the same width/exception plan.
size_t EncodedBlockBytesImpl(const uint32_t* in, size_t n,
                             int threshold_percent);
size_t DecodeBlockImpl(const uint8_t* data, size_t n, uint32_t* out);
bool CheckedDecodeBlockImpl(const uint8_t* data, size_t avail, size_t n,
                            uint32_t* out, size_t* consumed);
}  // namespace simdpfor_internal

struct SimdPforDeltaTraits {
  static constexpr char kName[] = "SIMDPforDelta";
  static constexpr bool kDeltaBased = true;
  static constexpr bool kSimdPrefix = true;
  static constexpr bool kFixed128 = true;  // SIMD blocks are always 128 wide

  static void EncodeBlock(const uint32_t* in, size_t n,
                          std::vector<uint8_t>* out) {
    simdpfor_internal::EncodeBlockImpl(in, n, 90, out);
  }
  static size_t DecodeBlock(const uint8_t* data, size_t n, uint32_t* out) {
    return simdpfor_internal::DecodeBlockImpl(data, n, out);
  }
  static bool CheckedDecodeBlock(const uint8_t* data, size_t avail, size_t n,
                                 uint32_t* out, size_t* consumed) {
    return simdpfor_internal::CheckedDecodeBlockImpl(data, avail, n, out,
                                                     consumed);
  }
};

struct SimdPforDeltaStarTraits {
  static constexpr char kName[] = "SIMDPforDelta*";
  static constexpr bool kDeltaBased = true;
  static constexpr bool kSimdPrefix = true;
  static constexpr bool kFixed128 = true;  // SIMD blocks are always 128 wide

  static void EncodeBlock(const uint32_t* in, size_t n,
                          std::vector<uint8_t>* out) {
    simdpfor_internal::EncodeBlockImpl(in, n, 100, out);
  }
  static size_t EncodedBlockBytes(const uint32_t* in, size_t n) {
    return simdpfor_internal::EncodedBlockBytesImpl(in, n, 100);
  }
  static size_t DecodeBlock(const uint8_t* data, size_t n, uint32_t* out) {
    return simdpfor_internal::DecodeBlockImpl(data, n, out);
  }
  static bool CheckedDecodeBlock(const uint8_t* data, size_t avail, size_t n,
                                 uint32_t* out, size_t* consumed) {
    return simdpfor_internal::CheckedDecodeBlockImpl(data, avail, n, out,
                                                     consumed);
  }
};

using SimdPforDeltaCodec = BlockedListCodec<SimdPforDeltaTraits>;
using SimdPforDeltaStarCodec = BlockedListCodec<SimdPforDeltaStarTraits>;

}  // namespace intcomp

#endif  // INTCOMP_INVLIST_SIMDPFORDELTA_H_
