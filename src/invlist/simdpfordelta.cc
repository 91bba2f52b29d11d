#include "invlist/simdpfordelta.h"

#include <cstring>

#include "common/bits.h"
#include "common/simdpack.h"

namespace intcomp {
namespace simdpfor_internal {
namespace {

// A block's layout: packed width b and how many values exceed it.
struct BlockPlan {
  int b;
  size_t n_exc;
};

// The smallest width covering threshold_percent of the n values; the rest
// become exceptions. The widest value's width always fits; from there the
// width drops while the values it would leave out still fit the exception
// budget. At 100% the budget is 0 and the OR pass is the only one (some
// value is always wider than the widest width less one).
BlockPlan PlanBlock(const uint32_t* in, size_t n, int threshold_percent) {
  const size_t needed =
      (n * static_cast<size_t>(threshold_percent) + 99) / 100;
  const size_t budget = n - needed;
  uint32_t all = 0;
  for (size_t i = 0; i < n; ++i) all |= in[i];
  BlockPlan plan{BitWidth32(all), 0};
  while (budget > 0 && plan.b > 0) {
    size_t wider = 0;  // values wider than b - 1
    for (size_t i = 0; i < n; ++i) wider += (in[i] >> (plan.b - 1)) != 0;
    if (wider > budget) break;
    --plan.b;
    plan.n_exc = wider;
  }
  return plan;
}

}  // namespace

size_t EncodedBlockBytesImpl(const uint32_t* in, size_t n,
                             int threshold_percent) {
  const BlockPlan plan = PlanBlock(in, n, threshold_percent);
  // Header, packed lows, then one u8 position and one u32 high per
  // exception — the layout EncodeBlockImpl emits.
  return 2 + SimdPackedWords(plan.b) * 4 + plan.n_exc * 5;
}

void EncodeBlockImpl(const uint32_t* in, size_t n, int threshold_percent,
                     std::vector<uint8_t>* out) {
  const int b = PlanBlock(in, n, threshold_percent).b;
  const uint32_t mask = LowMask32(b);

  uint32_t low[kSimdBlockSize] = {};  // zero padding for tail blocks
  uint8_t exc_pos[kSimdBlockSize];
  uint32_t exc_high[kSimdBlockSize];
  size_t n_exc = 0;
  for (size_t i = 0; i < n; ++i) {
    low[i] = in[i] & mask;
    if (BitWidth32(in[i]) > b) {
      exc_pos[n_exc] = static_cast<uint8_t>(i);
      exc_high[n_exc] = in[i] >> b;
      ++n_exc;
    }
  }

  out->push_back(static_cast<uint8_t>(b));
  out->push_back(static_cast<uint8_t>(n_exc));

  uint32_t packed[kSimdBlockSize];
  SimdPack128(low, b, packed);
  const size_t packed_bytes = SimdPackedWords(b) * 4;
  const size_t pos = out->size();
  out->resize(pos + packed_bytes);
  std::memcpy(out->data() + pos, packed, packed_bytes);

  out->insert(out->end(), exc_pos, exc_pos + n_exc);
  const size_t hpos = out->size();
  out->resize(hpos + n_exc * 4);
  std::memcpy(out->data() + hpos, exc_high, n_exc * 4);
}

size_t DecodeBlockImpl(const uint8_t* data, size_t n, uint32_t* out) {
  const int b = data[0];
  const size_t n_exc = data[1];
  size_t pos = 2;

  // The caller guarantees room for a full 128-value block.
  SimdUnpack128(reinterpret_cast<const uint32_t*>(data + pos), b, out);
  pos += SimdPackedWords(b) * 4;

  const uint8_t* exc_pos = data + pos;
  pos += n_exc;
  for (size_t k = 0; k < n_exc; ++k) {
    uint32_t high;
    std::memcpy(&high, data + pos + k * 4, 4);
    out[exc_pos[k]] |= high << b;
  }
  pos += n_exc * 4;
  (void)n;
  return pos;
}

bool CheckedDecodeBlockImpl(const uint8_t* data, size_t avail, size_t n,
                            uint32_t* out, size_t* consumed) {
  if (avail < 2) return false;
  const int b = data[0];
  const size_t n_exc = data[1];
  // b > 32 makes SimdUnpack128 read past the payload it was sized for; an
  // exception at the maximal width would shift its high bits by 32
  // (undefined) — genuine blocks never have exceptions when b == 32.
  if (b > 32) return false;
  if (n_exc > 0 && b >= 32) return false;
  const size_t packed_bytes = SimdPackedWords(b) * 4;
  if (2 + packed_bytes + n_exc + n_exc * 4 > avail) return false;

  size_t pos = 2;
  SimdUnpack128(reinterpret_cast<const uint32_t*>(data + pos), b, out);
  pos += packed_bytes;

  const uint8_t* exc_pos = data + pos;
  pos += n_exc;
  for (size_t k = 0; k < n_exc; ++k) {
    // Positions are u8 (up to 255); the output buffer holds 128 values and
    // genuine blocks only patch real elements.
    if (exc_pos[k] >= n) return false;
    uint32_t high;
    std::memcpy(&high, data + pos + k * 4, 4);
    out[exc_pos[k]] |= high << b;
  }
  pos += n_exc * 4;
  *consumed = pos;
  return true;
}

}  // namespace simdpfor_internal
}  // namespace intcomp
