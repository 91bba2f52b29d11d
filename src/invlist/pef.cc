#include "invlist/pef.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "common/bitpack.h"
#include "common/bits.h"
#include "common/serialize_util.h"
#include "common/simd_intersect.h"

namespace intcomp {
namespace {

size_t WordsForBits(uint64_t bits) { return (bits + 31) / 32; }

inline void SetBit(uint32_t* words, uint64_t pos) {
  words[pos >> 5] |= uint32_t{1} << (pos & 31);
}

inline bool TestBit(const uint32_t* words, uint64_t pos) {
  return (words[pos >> 5] >> (pos & 31)) & 1u;
}

// EF low-part width for n offsets over universe u.
int EfLowBits(uint64_t u, size_t n) {
  if (u <= n) return 0;
  return BitWidth64(u / n) - 1;
}

size_t EfWords(uint64_t u, size_t n, int l) {
  const uint64_t high_bits = n + (u >> l) + 1;
  return WordsForBits(static_cast<uint64_t>(n) * l) + WordsForBits(high_bits);
}

// The container Encode picks for n values whose offsets span [0, universe]:
// a run when they are consecutive, else the smaller of a bitmap and EF
// (ties go to the bitmap), with its size in data words.
struct PartitionLayout {
  PefCodec::PartitionType type;
  int low_bits;
  size_t words;
};

PartitionLayout ChooseLayout(uint64_t universe, size_t n) {
  if (universe == n - 1) return {PefCodec::PartitionType::kRun, 0, 0};
  const int l = EfLowBits(universe, n);
  const size_t ef_words = EfWords(universe, n, l);
  const size_t bm_words = WordsForBits(universe + 1);
  if (bm_words <= ef_words) {
    return {PefCodec::PartitionType::kBitmap, 0, bm_words};
  }
  return {PefCodec::PartitionType::kEliasFano, l, ef_words};
}

// One partition's metadata plus where its container lies in `data`.
struct PartitionRef {
  PartitionRef() : part{} {}
  PartitionRef(const PefCodec::Set& set, size_t part_index,
               size_t partition_span)
      : part(set.parts[part_index]) {
    n = std::min(partition_span, set.count - part_index * partition_span);
    // A run stores nothing, and nothing checks its offset.
    if (part.type == PefCodec::PartitionType::kRun) return;
    low = set.data.data() + part.offset;
    bits = low;
    if (part.type == PefCodec::PartitionType::kEliasFano) {
      bits += WordsForBits(static_cast<uint64_t>(n) * part.low_bits);
    }
  }

  PefCodec::Partition part;
  size_t n = 0;                    // values in the partition
  const uint32_t* low = nullptr;   // EF low-bit words
  const uint32_t* bits = nullptr;  // the bitmap, or the EF high-bit array
};

// Position of the first set bit at or after `pos`, skipping zero words
// whole. One must exist: ValidateSet's structural pass counts every
// container's set bits.
inline uint64_t NextSetBit(const uint32_t* words, uint64_t pos) {
  size_t w = static_cast<size_t>(pos >> 5);
  uint32_t word = words[w] & (~uint32_t{0} << (pos & 31));
  while (word == 0) word = words[++w];
  return (static_cast<uint64_t>(w) << 5) + CountTrailingZeros32(word);
}

// The bulk partition kernel: Next(m, out) writes a partition's next m values
// to out[0..m). Run partitions fill with iota. Bitmap and Elias-Fano
// partitions walk their bit array a word at a time with ctz and
// clear-lowest-bit; EF first unpacks the m low parts in bulk, then pairs the
// k-th set high bit, at position b, with the k-th low part as
// first + ((b - k) << l | low). A partition can be decoded in one call or
// streamed through a fixed buffer in chunks; every chunk but the last must
// hold a multiple of 32 values, which keeps each chunk's low bits
// word-aligned. The container must hold size() set bits (ValidateSet's
// structural pass establishes that).
class PartitionDecoder {
 public:
  PartitionDecoder(const PefCodec::Set& set, size_t part_index,
                   size_t partition_span)
      : ref_(set, part_index, partition_span) {}

  size_t size() const { return ref_.n; }
  size_t remaining() const { return ref_.n - k_; }

  void Next(size_t m, uint32_t* out) {
    assert(m <= remaining());
    const uint32_t first = ref_.part.first;
    switch (ref_.part.type) {
      case PefCodec::PartitionType::kRun:
        std::iota(out, out + m, first + static_cast<uint32_t>(k_));
        break;
      case PefCodec::PartitionType::kBitmap:
        ScanSetBits(m, [&](size_t i, uint64_t b) {
          out[i] = first + static_cast<uint32_t>(b);
        });
        break;
      case PefCodec::PartitionType::kEliasFano:
      default: {
        const int l = ref_.part.low_bits;
        assert(k_ % 32 == 0 || m == 0);
        UnpackBits(ref_.low + k_ * l / 32, m, l, out);
        const size_t k = k_;
        ScanSetBits(m, [&](size_t i, uint64_t b) {
          const uint32_t high = static_cast<uint32_t>(b - (k + i));
          out[i] = first + ((high << l) | out[i]);
        });
        break;
      }
    }
    k_ += m;
  }

 private:
  // Calls emit(i, b) with the position b of each of the next m set bits
  // of the bit array, in order.
  template <typename Emit>
  void ScanSetBits(size_t m, Emit emit) {
    if (m == 0) return;
    size_t w = static_cast<size_t>(pos_ >> 5);
    uint32_t word = ref_.bits[w] & (~uint32_t{0} << (pos_ & 31));
    uint64_t b = 0;
    for (size_t i = 0; i < m; ++i) {
      while (word == 0) word = ref_.bits[++w];
      b = (static_cast<uint64_t>(w) << 5) + CountTrailingZeros32(word);
      word = ClearLowestBit32(word);
      emit(i, b);
    }
    pos_ = b + 1;
  }

  PartitionRef ref_;
  size_t k_ = 0;      // values decoded so far
  uint64_t pos_ = 0;  // bit-array position just past the last value's bit
};

// Lazily iterates the values of one partition for NextGEQ, without
// materializing it.
class PartitionCursor {
 public:
  // Default state is an exhausted cursor; PefCursor positions lazily.
  PartitionCursor() = default;

  PartitionCursor(const PefCodec::Set& set, size_t part_index,
                  size_t partition_span)
      : ref_(set, part_index, partition_span) {}

  bool exhausted() const { return i_ >= ref_.n; }

  // Value at the current position (valid unless exhausted).
  uint32_t Current() {
    const PefCodec::Partition& part = ref_.part;
    switch (part.type) {
      case PefCodec::PartitionType::kRun:
        return part.first + static_cast<uint32_t>(i_);
      case PefCodec::PartitionType::kBitmap:
        bitpos_ = NextSetBit(ref_.bits, bitpos_);
        return part.first + static_cast<uint32_t>(bitpos_);
      case PefCodec::PartitionType::kEliasFano:
      default: {
        bitpos_ = NextSetBit(ref_.bits, bitpos_);
        const uint32_t high = static_cast<uint32_t>(bitpos_ - i_);
        const uint32_t low = GetPacked(ref_.low, i_, part.low_bits);
        return part.first + ((high << part.low_bits) | low);
      }
    }
  }

  void Advance() {
    ++i_;
    ++bitpos_;
  }

 private:
  PartitionRef ref_;
  size_t i_ = 0;         // elements consumed
  uint64_t bitpos_ = 0;  // scan position in the bitmap / high-bit array
};

// Streaming NextGEQ cursor across partitions.
class PefCursor {
 public:
  PefCursor(const PefCodec::Set& set, size_t partition_span)
      : set_(&set), span_(partition_span) {}

  bool NextGEQ(uint32_t target, uint32_t* value) {
    CheckTargetMonotone(target);
    const auto& parts = set_->parts;
    if (parts.empty()) return false;
    const size_t p = SeekPartition(target);
    if (p != part_ || !positioned_) {
      part_ = p;
      cursor_ = PartitionCursor(*set_, p, span_);
      positioned_ = true;
    }
    while (true) {
      while (!cursor_.exhausted()) {
        uint32_t v = cursor_.Current();
        if (v >= target) {
          *value = v;
          return true;
        }
        cursor_.Advance();
      }
      if (part_ + 1 >= parts.size()) return false;
      ++part_;
      cursor_ = PartitionCursor(*set_, part_, span_);
    }
  }

  // Bulk SvS probe: appends (probe AND set) to `out`, handling whole
  // partitions at a time. Run partitions answer a probe slice by range
  // check alone, bitmap partitions by O(1) bit tests, and Elias-Fano
  // partitions are materialized once and merged through the block kernel
  // (large EF partitions stream instead of materializing). `probe` must be
  // ascending, and calls must respect the non-decreasing-target contract.
  void ProbeIntersect(std::span<const uint32_t> probe,
                      std::vector<uint32_t>* out) {
    const auto& parts = set_->parts;
    if (parts.empty() || probe.empty()) return;
    std::vector<uint32_t> buf;
    size_t i = 0;
    while (i < probe.size()) {
      const uint32_t target = probe[i];
      CheckTargetMonotone(target);
      const size_t p = SeekPartition(target);
      part_ = p;
      positioned_ = false;  // bulk paths bypass the streaming cursor state
      const PefCodec::Partition& part = parts[p];
      if (part.last < target) {
        // Gap (or past the final partition): drop probes that cannot match.
        if (p + 1 >= parts.size()) return;
        const uint32_t next_first = parts[p + 1].first;
        while (i < probe.size() && probe[i] < next_first) ++i;
        continue;
      }
      size_t j = i;
      while (j < probe.size() && probe[j] <= part.last) ++j;
      const std::span<const uint32_t> slice = probe.subspan(i, j - i);
      switch (part.type) {
        case PefCodec::PartitionType::kRun:
          // The run covers every value in [first, last]; a probe matches iff
          // it is in range.
          ThreadKernelCounters().block_probes += 1;
          for (const uint32_t v : slice) {
            if (v >= part.first) out->push_back(v);
          }
          break;
        case PefCodec::PartitionType::kBitmap: {
          ThreadKernelCounters().block_probes += 1;
          const uint32_t* words = set_->data.data() + part.offset;
          for (const uint32_t v : slice) {
            if (v >= part.first && TestBit(words, v - part.first)) {
              out->push_back(v);
            }
          }
          break;
        }
        case PefCodec::PartitionType::kEliasFano:
        default: {
          PartitionDecoder dec(*set_, p, span_);
          if (dec.size() <= kMaxMaterializedPartition) {
            buf.resize(dec.size());
            dec.Next(buf.size(), buf.data());
            IntersectSliceWithBlockInto(slice, buf, out);
          } else {
            // Oversized partition (the whole-list EF extension): stream the
            // values against the slice instead of materializing them.
            PartitionCursor cur(*set_, p, span_);
            size_t s = 0;
            while (s < slice.size() && !cur.exhausted()) {
              const uint32_t v = cur.Current();
              if (v < slice[s]) {
                cur.Advance();
              } else {
                if (v == slice[s]) {
                  out->push_back(v);
                  cur.Advance();
                }
                ++s;
              }
            }
          }
          break;
        }
      }
      i = j;
    }
  }

 private:
  // Partitions beyond this cardinality are streamed rather than decoded into
  // a scratch buffer during bulk probes.
  static constexpr size_t kMaxMaterializedPartition = 1024;

  void CheckTargetMonotone(uint32_t target) {
#ifndef NDEBUG
    assert((!dbg_have_target_ || target >= dbg_last_target_) &&
           "PefCursor targets must be non-decreasing across calls");
    dbg_have_target_ = true;
    dbg_last_target_ = target;
#else
    (void)target;
#endif
  }

  // Returns the last partition at-or-after the current one whose first
  // value is <= target (the current partition when none is).
  size_t SeekPartition(uint32_t target) const {
    const auto& parts = set_->parts;
    size_t p = part_;
    if (p + 1 < parts.size() && parts[p + 1].first <= target) {
      size_t step = 1;
      size_t lo = p, hi = p + 1;
      while (hi < parts.size() && parts[hi].first <= target) {
        lo = hi;
        hi = (parts.size() - hi > step) ? hi + step : parts.size();
        step *= 2;
      }
      while (lo + 1 < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (parts[mid].first <= target) {
          lo = mid;
        } else {
          hi = mid;
        }
      }
      p = lo;
    }
    return p;
  }

  const PefCodec::Set* set_;
  size_t span_;
  size_t part_ = 0;
  PartitionCursor cursor_;
  bool positioned_ = false;
#ifndef NDEBUG
  uint32_t dbg_last_target_ = 0;
  bool dbg_have_target_ = false;
#endif
};

}  // namespace

std::unique_ptr<CompressedSet> PefCodec::Encode(
    std::span<const uint32_t> sorted, uint64_t /*domain*/) const {
  auto set = std::make_unique<Set>();
  set->count = sorted.size();
  const size_t span = PartitionSpan(sorted.size());
  for (size_t i = 0; i < sorted.size(); i += span) {
    const size_t n = std::min(span, sorted.size() - i);
    Partition part;
    part.first = sorted[i];
    part.last = sorted[i + n - 1];
    part.offset = static_cast<uint32_t>(set->data.size());
    const uint64_t universe = part.last - part.first;  // offsets in [0, universe]
    const PartitionLayout layout = ChooseLayout(universe, n);
    part.type = layout.type;
    part.low_bits = static_cast<uint8_t>(layout.low_bits);
    set->data.resize(part.offset + layout.words, 0);
    if (layout.type == PartitionType::kBitmap) {
      uint32_t* words = set->data.data() + part.offset;
      for (size_t k = 0; k < n; ++k) SetBit(words, sorted[i + k] - part.first);
    } else if (layout.type == PartitionType::kEliasFano) {
      const int l = layout.low_bits;
      uint32_t* low = set->data.data() + part.offset;
      uint32_t* high =
          low + WordsForBits(static_cast<uint64_t>(n) * l);
      for (size_t k = 0; k < n; ++k) {
        const uint32_t off = sorted[i + k] - part.first;
        if (l > 0) SetPacked(low, k, l, off & LowMask32(l));
        SetBit(high, (static_cast<uint64_t>(off) >> l) + k);
      }
    }
    set->parts.push_back(part);
  }
  set->data.shrink_to_fit();
  return set;
}

size_t PefCodec::EncodedSize(std::span<const uint32_t> sorted,
                             uint64_t /*domain*/) const {
  const size_t span = PartitionSpan(sorted.size());
  size_t words = 0, parts = 0;
  for (size_t i = 0; i < sorted.size(); i += span, ++parts) {
    const size_t n = std::min(span, sorted.size() - i);
    words += ChooseLayout(sorted[i + n - 1] - sorted[i], n).words;
  }
  return Set::Footprint(words, parts);
}

void PefCodec::Decode(const CompressedSet& set,
                      std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  out->resize(s.count);
  uint32_t* dst = out->data();
  const size_t span = PartitionSpan(s.count);
  for (size_t p = 0; p < s.parts.size(); ++p) {
    PartitionDecoder dec(s, p, span);
    dec.Next(dec.size(), dst);
    dst += dec.size();
  }
}

void PefCodec::Intersect(const CompressedSet& a, const CompressedSet& b,
                         std::vector<uint32_t>* out) const {
  const Set* small = &static_cast<const Set&>(a);
  const Set* large = &static_cast<const Set&>(b);
  if (small->count > large->count) std::swap(small, large);
  std::vector<uint32_t> decoded;
  Decode(*small, &decoded);
  if (ChooseIntersectStrategy(small->count, large->count) ==
      IntersectStrategy::kMerge) {
    // Similar sizes: decoding both and merging through the kernel planner
    // beats partition-by-partition probing (shared footnote-8 policy).
    std::vector<uint32_t> decoded_large;
    Decode(*large, &decoded_large);
    IntersectLists(decoded, decoded_large, out);
    return;
  }
  IntersectWithList(*large, decoded, out);
}

void PefCodec::Union(const CompressedSet& a, const CompressedSet& b,
                     std::vector<uint32_t>* out) const {
  std::vector<uint32_t> da, db;
  Decode(a, &da);
  Decode(b, &db);
  UnionLists(da, db, out);
}

void PefCodec::IntersectWithList(const CompressedSet& a,
                                 std::span<const uint32_t> probe,
                                 std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(a);
  out->clear();
  PefCursor cursor(s, PartitionSpan(s.count));
  if (GetKernelMode() == KernelMode::kScalar) {
    // Legacy per-element NextGEQ loop, kept as the measured baseline for the
    // --kernel ablation.
    uint32_t found;
    for (uint32_t v : probe) {
      if (!cursor.NextGEQ(v, &found)) break;
      if (found == v) out->push_back(v);
    }
    return;
  }
  cursor.ProbeIntersect(probe, out);
}

void PefCodec::Serialize(const CompressedSet& set,
                         std::vector<uint8_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  ByteWriter writer(out);
  writer.PutU64(s.count);
  writer.PutU32(static_cast<uint32_t>(s.parts.size()));
  for (const Partition& p : s.parts) {
    writer.PutU32(p.first);
    writer.PutU32(p.last);
    writer.PutU32(p.offset);
    writer.PutU8(static_cast<uint8_t>(p.type));
    writer.PutU8(p.low_bits);
  }
  WriteVector(s.data, out);
}

std::unique_ptr<CompressedSet> PefCodec::Deserialize(const uint8_t* data,
                                                     size_t size) const {
  ByteReader reader(data, size);
  if (reader.Remaining() < 12) return nullptr;
  auto set = std::make_unique<Set>();
  set->count = reader.GetU64();
  const uint32_t n = reader.GetU32();
  if (reader.Remaining() < static_cast<size_t>(n) * 14) return nullptr;
  set->parts.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Partition p;
    p.first = reader.GetU32();
    p.last = reader.GetU32();
    p.offset = reader.GetU32();
    const uint8_t type = reader.GetU8();
    if (type > 2) return nullptr;
    p.type = static_cast<PartitionType>(type);
    p.low_bits = reader.GetU8();
    set->parts.push_back(p);
  }
  if (!ReadVector(&reader, &set->data)) return nullptr;
  return set;
}

Status PefCodec::ValidateSet(const CompressedSet& set, uint64_t domain) const {
  const auto& s = static_cast<const Set&>(set);
  const uint64_t dmax = std::min<uint64_t>(domain, uint64_t{1} << 32);
  if (s.count > dmax) return Status::Corrupt("PEF: cardinality beyond domain");
  const size_t span = PartitionSpan(s.count);
  const size_t want_parts = s.count == 0 ? 0 : (s.count - 1) / span + 1;
  if (s.parts.size() != want_parts)
    return Status::Corrupt("PEF: partition count mismatch");
  if (s.count == 0) {
    if (!s.data.empty()) return Status::Corrupt("PEF: data in empty set");
    return Status::Ok();
  }

  // Structural pass: every partition's container must lie inside `data` and
  // hold exactly its announced number of set bits, so the cursor replay
  // below can never scan past the allocation.
  uint64_t prev_last = 0;
  for (size_t p = 0; p < s.parts.size(); ++p) {
    const Partition& part = s.parts[p];
    const size_t n = std::min(span, s.count - p * span);
    if (part.first > part.last) return Status::Corrupt("PEF: first > last");
    if (part.last >= dmax) return Status::Corrupt("PEF: value past domain");
    if (p > 0 && part.first <= prev_last)
      return Status::Corrupt("PEF: partitions not increasing");
    prev_last = part.last;
    const uint64_t universe = part.last - part.first;
    switch (part.type) {
      case PartitionType::kRun:
        if (universe != n - 1)
          return Status::Corrupt("PEF: run span != cardinality");
        break;
      case PartitionType::kBitmap: {
        const size_t words = WordsForBits(universe + 1);
        if (static_cast<uint64_t>(part.offset) + words > s.data.size())
          return Status::Corrupt("PEF: bitmap container out of range");
        const uint32_t* w = s.data.data() + part.offset;
        uint64_t bits = 0;
        for (size_t k = 0; k < words; ++k) bits += PopCount32(w[k]);
        if (bits != n)
          return Status::Corrupt("PEF: bitmap popcount mismatch");
        // A bit past the universe would decode a value beyond `last`.
        const unsigned used = (universe + 1) & 31;
        if (used != 0 && (w[words - 1] >> used) != 0)
          return Status::Corrupt("PEF: bitmap bits past universe");
        break;
      }
      case PartitionType::kEliasFano: {
        const int l = part.low_bits;
        if (l > 31) return Status::Corrupt("PEF: low-bit width too wide");
        const size_t lw = WordsForBits(static_cast<uint64_t>(n) * l);
        const uint64_t high_bits = n + (universe >> l) + 1;
        const size_t hw = WordsForBits(high_bits);
        if (static_cast<uint64_t>(part.offset) + lw + hw > s.data.size())
          return Status::Corrupt("PEF: EF container out of range");
        const uint32_t* high = s.data.data() + part.offset + lw;
        uint64_t bits = 0;
        for (size_t k = 0; k < hw; ++k) bits += PopCount32(high[k]);
        if (bits != n)
          return Status::Corrupt("PEF: EF high-bit popcount mismatch");
        const unsigned used = high_bits & 31;
        if (used != 0 && (high[hw - 1] >> used) != 0)
          return Status::Corrupt("PEF: EF bits past universe");
        break;
      }
    }
  }

  // Value replay: decode every partition with the bulk kernel and require
  // exactly the announced first/last plus global strict monotonicity. The
  // high bits are bounded above, but crafted EF low bits can still produce
  // out-of-order values — only a replay catches that. Values go through a
  // fixed buffer a chunk at a time, since the whole-list EF extension can
  // announce any count. Run partitions need no replay: their values are
  // first..last by construction, and the structural pass ordered them.
  constexpr size_t kChunk = 256;
  uint32_t buf[kChunk];
  int64_t prev = -1;
  for (size_t p = 0; p < s.parts.size(); ++p) {
    const Partition& part = s.parts[p];
    if (part.type == PartitionType::kRun) {
      prev = part.last;
      continue;
    }
    PartitionDecoder dec(s, p, span);
    uint32_t part_first = 0;
    for (bool first_chunk = true; dec.remaining() > 0; first_chunk = false) {
      const size_t m = std::min(kChunk, dec.remaining());
      dec.Next(m, buf);
      if (first_chunk) part_first = buf[0];
      bool ordered = buf[0] > prev;
      for (size_t k = 1; k < m; ++k) ordered &= buf[k] > buf[k - 1];
      if (!ordered)
        return Status::Corrupt("PEF: values not strictly increasing");
      prev = buf[m - 1];
    }
    if (part_first != part.first || prev != part.last)
      return Status::Corrupt("PEF: partition bounds mismatch");
  }
  return Status::Ok();
}

}  // namespace intcomp
