// Blocked inverted-list framework shared by all d-gap / frame-of-reference
// list codecs (paper §3 overview + §5).
//
// A list is split into blocks of 128 elements. Each block gets a skip
// pointer of (32-bit first value, 32-bit byte offset) — exactly the layout
// the paper uses — so intersection can decompress only the blocks that may
// contain a probe value (SvS with skipping, App. B). Block payloads are
// produced by a Traits type:
//
//   struct FooTraits {
//     static constexpr char kName[] = "Foo";
//     static constexpr bool kDeltaBased = true;   // payload = d-gaps
//                                                 // (false => values - first)
//     static constexpr bool kSimdPrefix = false;  // SIMD prefix sum on decode
//     // Encodes n values (n <= 128) appended to out.
//     static void EncodeBlock(const uint32_t* in, size_t n,
//                             std::vector<uint8_t>* out);
//     // Optional: the byte count EncodeBlock would append, computed
//     // without emitting. When present, the codec's EncodedSize is closed
//     // form instead of a trial Encode.
//     static size_t EncodedBlockBytes(const uint32_t* in, size_t n);
//     // Decodes exactly n values; may write up to 128 entries (SIMD codecs
//     // always materialize a full block). Returns bytes consumed.
//     static size_t DecodeBlock(const uint8_t* data, size_t n, uint32_t* out);
//     // Bounds-checked mirror of DecodeBlock for untrusted payloads: never
//     // reads at or past data + avail, rejects illegal headers/selectors/
//     // bit widths and out-of-range exception positions. On success decodes
//     // the same values DecodeBlock would, sets *consumed, returns true.
//     static bool CheckedDecodeBlock(const uint8_t* data, size_t avail,
//                                    size_t n, uint32_t* out,
//                                    size_t* consumed);
//   };
//
// For delta-based codecs the first gap of block b is relative to the last
// value of block b-1 (block 0: relative to 0), and decoding rebases with the
// skip pointer so any block can be decoded independently.

#ifndef INTCOMP_INVLIST_BLOCKED_LIST_H_
#define INTCOMP_INVLIST_BLOCKED_LIST_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/serialize_util.h"
#include "common/simd_intersect.h"
#include "common/simdpack.h"
#include "core/codec.h"
#include "obs/op_counters.h"

namespace intcomp {

inline constexpr size_t kListBlockSize = 128;

// The merge-vs-skip threshold (paper footnote 8) lives in
// common/simd_intersect.h (kMergeIntersectRatio / ChooseIntersectStrategy),
// shared with the hybrid codec and the uncompressed-list planner.

// Returns the last block index in [from, firsts.size()) whose first value is
// <= target, assuming firsts[from] <= target. Gallops forward then binary
// searches — probes arrive in ascending order, so starting at the current
// block is cheap.
size_t GallopToBlock(std::span<const uint32_t> firsts, size_t from,
                     uint32_t target);

template <typename Traits>
struct BlockedSet final : CompressedSet {
  std::vector<uint8_t> data;
  std::vector<uint32_t> skip_first;   // first value of each block
  std::vector<uint32_t> skip_offset;  // byte offset of each block in data
  size_t count = 0;
  bool skips_in_size = true;  // false for the Fig. 7 "no skip pointers" mode

  // Bytes charged for data_bytes of block payload in nblocks blocks: with
  // skips, a first value and a byte offset per block. Frame-of-reference
  // payloads are rebased to the block's first value, so skip_first is part
  // of the payload (the base), not skip metadata: a no-skip encoding still
  // has to carry it. Serialize agrees (it writes skip_first, and only
  // skip_first, for FOR no-skip sets).
  static size_t Footprint(size_t data_bytes, size_t nblocks, bool skips) {
    if (skips) return data_bytes + nblocks * 8;
    return data_bytes + (Traits::kDeltaBased ? 0 : nblocks * 4);
  }
  size_t SizeInBytes() const override {
    return Footprint(data.size(), skip_first.size(), skips_in_size);
  }
  size_t Cardinality() const override { return count; }
};

// True when the traits' block decoder always materializes a full 128-value
// block (the SIMD codecs), which pins the block size to 128.
template <typename T>
constexpr bool TraitsRequire128() {
  if constexpr (requires { T::kFixed128; }) {
    return T::kFixed128;
  } else {
    return false;
  }
}

// Streaming cursor supporting NextGEQ over a blocked compressed list.
// kBlockN is the elements-per-block / skip-pointer granularity; 128 is the
// standard choice (paper footnote 5), other values exist for the block-size
// ablation bench.
template <typename Traits, size_t kBlockN = kListBlockSize>
class BlockedCursor {
 public:
  explicit BlockedCursor(const BlockedSet<Traits>& set) : set_(&set) {}

  // Block traffic is tallied in plain members and flushed to the thread's
  // OpCounters once per cursor lifetime, keeping the per-block hot path free
  // of TLS lookups.
  ~BlockedCursor() {
    obs::OpCounters& oc = obs::ThreadOpCounters();
    oc.blocks_loaded += stat_loaded_;
    oc.blocks_skipped += stat_skipped_;
  }

  // Positions at the smallest value >= target at-or-after the current
  // position (targets must be non-decreasing across calls — enforced by an
  // assertion in debug/sanitizer builds, since a backwards target after a
  // gallop would silently return a wrong element). Returns false if no such
  // value exists.
  bool NextGEQ(uint32_t target, uint32_t* value) {
    CheckTargetMonotone(target);
    const auto& firsts = set_->skip_first;
    if (firsts.empty()) return false;
    size_t b = (loaded_ == kNone) ? 0 : loaded_;
    if (b + 1 < firsts.size() && firsts[b + 1] <= target) {
      b = GallopToBlock(firsts, b, target);
    }
    if (b != loaded_) Load(b);
    while (true) {
      while (pos_ < n_ && buf_[pos_] < target) ++pos_;
      if (pos_ < n_) {
        *value = buf_[pos_];
        return true;
      }
      if (loaded_ + 1 >= firsts.size()) return false;
      Load(loaded_ + 1);
    }
  }

  // Bulk SvS probe: appends (probe AND list) to `out`, consuming decoded
  // blocks whole. For each block, the slice of ascending probe values that
  // lands inside the block's value range is intersected against the decoded
  // buffer in one kernel call (up to 128 values at a time) instead of
  // re-entering NextGEQ element by element; probes falling in the gap
  // between two blocks are skipped without decoding anything. `probe` must
  // be ascending and must respect the cursor's non-decreasing-target
  // contract relative to earlier NextGEQ / ProbeIntersect calls.
  void ProbeIntersect(std::span<const uint32_t> probe,
                      std::vector<uint32_t>* out) {
    const auto& firsts = set_->skip_first;
    if (firsts.empty() || probe.empty()) return;
    size_t i = 0;
    while (i < probe.size()) {
      const uint32_t target = probe[i];
      CheckTargetMonotone(target);
      size_t b = (loaded_ == kNone) ? 0 : loaded_;
      if (b + 1 < firsts.size() && firsts[b + 1] <= target) {
        b = GallopToBlock(firsts, b, target);
      }
      if (b != loaded_) Load(b);
      const uint32_t block_last = buf_[n_ - 1];
      size_t j = i;
      while (j < probe.size() && probe[j] <= block_last) ++j;
      if (j > i) {
        IntersectSliceWithBlockInto(probe.subspan(i, j - i),
                                    std::span<const uint32_t>(buf_, n_), out);
        i = j;
      }
      if (i >= probe.size() || loaded_ + 1 >= firsts.size()) break;
      // Probes between this block's last value and the next block's first
      // cannot match; drop them here so the gallop above never stalls.
      const uint32_t next_first = firsts[loaded_ + 1];
      while (i < probe.size() && probe[i] < next_first) ++i;
    }
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  void CheckTargetMonotone(uint32_t target) {
#ifndef NDEBUG
    assert((!dbg_have_target_ || target >= dbg_last_target_) &&
           "BlockedCursor targets must be non-decreasing across calls");
    dbg_have_target_ = true;
    dbg_last_target_ = target;
#else
    (void)target;
#endif
  }

  void Load(size_t b) {
    // Blocks the skip pointers let us jump past without decoding.
    if (loaded_ == kNone) {
      stat_skipped_ += b;
    } else if (b > loaded_) {
      stat_skipped_ += b - loaded_ - 1;
    }
    ++stat_loaded_;
    size_t n = std::min(kBlockN, set_->count - b * kBlockN);
    Traits::DecodeBlock(set_->data.data() + set_->skip_offset[b], n, buf_);
    if (Traits::kDeltaBased) {
      uint32_t base = set_->skip_first[b] - buf_[0];
      if (Traits::kSimdPrefix && n == kSimdBlockSize) {
        SimdPrefixSum128(buf_, base);
      } else {
        ScalarPrefixSum(buf_, n, base);
      }
    } else {
      uint32_t base = set_->skip_first[b];
      for (size_t i = 0; i < n; ++i) buf_[i] += base;
    }
    loaded_ = b;
    pos_ = 0;
    n_ = n;
  }

  const BlockedSet<Traits>* set_;
  size_t loaded_ = kNone;
  size_t pos_ = 0;
  size_t n_ = 0;
  uint64_t stat_loaded_ = 0;
  uint64_t stat_skipped_ = 0;
#ifndef NDEBUG
  uint32_t dbg_last_target_ = 0;
  bool dbg_have_target_ = false;
#endif
  uint32_t buf_[kBlockN < kSimdBlockSize ? kSimdBlockSize : kBlockN];
};

template <typename Traits, size_t kBlockN = kListBlockSize>
class BlockedListCodec final : public Codec {
  static_assert(kBlockN >= 8 && kBlockN <= 128,
                "block codecs size their scratch arrays for <= 128 values");
  static_assert(!TraitsRequire128<Traits>() || kBlockN == kSimdBlockSize,
                "SIMD block codecs require 128-element blocks");

 public:
  using Set = BlockedSet<Traits>;

  // `use_skips = false` builds lists whose intersections cannot skip
  // (every probe decompresses from the start) — the Fig. 7 ablation.
  explicit BlockedListCodec(bool use_skips = true) : use_skips_(use_skips) {}

  std::string_view Name() const override { return Traits::kName; }
  CodecFamily Family() const override { return CodecFamily::kInvertedList; }

  std::unique_ptr<CompressedSet> Encode(std::span<const uint32_t> sorted,
                                        uint64_t /*domain*/) const override {
    auto set = std::make_unique<Set>();
    set->count = sorted.size();
    set->skips_in_size = use_skips_;
    uint32_t scratch[kBlockN];
    const size_t nblocks = (sorted.size() + kBlockN - 1) / kBlockN;
    set->skip_first.reserve(nblocks);
    set->skip_offset.reserve(nblocks);
    for (size_t i = 0; i < sorted.size(); i += kBlockN) {
      const size_t n = BlockPayload(sorted, i, scratch);
      set->skip_first.push_back(sorted[i]);
      set->skip_offset.push_back(static_cast<uint32_t>(set->data.size()));
      Traits::EncodeBlock(scratch, n, &set->data);
    }
    // Trailing slack so block decoders may use word-sized loads that read a
    // few bytes past the last value (e.g. GroupVB's masked 4-byte loads).
    // An empty list has no blocks to decode, so it carries no slack either —
    // SizeInBytes() == 0, matching the bitmap codecs' empty footprint.
    if (!sorted.empty()) {
      set->data.insert(set->data.end(), kSlackBytes, 0);
    }
    set->data.shrink_to_fit();
    return set;
  }

  size_t EncodedSize(std::span<const uint32_t> sorted,
                     uint64_t domain) const override {
    if constexpr (requires(const uint32_t* in) {
                    Traits::EncodedBlockBytes(in, size_t{0});
                  }) {
      if (sorted.empty()) return 0;
      uint32_t scratch[kBlockN];
      size_t data_bytes = kSlackBytes;
      for (size_t i = 0; i < sorted.size(); i += kBlockN) {
        const size_t n = BlockPayload(sorted, i, scratch);
        data_bytes += Traits::EncodedBlockBytes(scratch, n);
      }
      const size_t nblocks = (sorted.size() + kBlockN - 1) / kBlockN;
      return Set::Footprint(data_bytes, nblocks, use_skips_);
    } else {
      return Codec::EncodedSize(sorted, domain);
    }
  }

  void Decode(const CompressedSet& set,
              std::vector<uint32_t>* out) const override {
    const auto& s = static_cast<const Set&>(set);
    // SIMD block decoders always write full 128-value blocks; leave slack.
    // (No clear(): every slot below s.count is overwritten, and clear()+
    // resize() would re-zero the whole buffer on every call.)
    out->resize(s.count + kSimdBlockSize);
    uint32_t prev_last = 0;
    for (size_t b = 0; b < s.skip_first.size(); ++b) {
      const size_t i = b * kBlockN;
      const size_t n = std::min(kBlockN, s.count - i);
      uint32_t* dst = out->data() + i;
      Traits::DecodeBlock(s.data.data() + s.skip_offset[b], n, dst);
      if (Traits::kDeltaBased) {
        if (Traits::kSimdPrefix && n == kSimdBlockSize) {
          SimdPrefixSum128(dst, prev_last);
        } else {
          ScalarPrefixSum(dst, n, prev_last);
        }
      } else {
        const uint32_t base = s.skip_first[b];
        for (size_t k = 0; k < n; ++k) dst[k] += base;
      }
      prev_last = dst[n - 1];
    }
    out->resize(s.count);
  }

  void Intersect(const CompressedSet& a, const CompressedSet& b,
                 std::vector<uint32_t>* out) const override {
    const Set* small = &static_cast<const Set&>(a);
    const Set* large = &static_cast<const Set&>(b);
    if (small->count > large->count) std::swap(small, large);
    std::vector<uint32_t> decoded;
    Decode(*small, &decoded);
    if (!use_skips_ ||
        ChooseIntersectStrategy(small->count, large->count) ==
            IntersectStrategy::kMerge) {
      // Merge-based path for similar sizes (paper footnote 8) and for the
      // no-skip ablation, where the longer list must be fully decompressed.
      std::vector<uint32_t> decoded_large;
      Decode(*large, &decoded_large);
      IntersectLists(decoded, decoded_large, out);
      return;
    }
    ProbeIntersect(*large, decoded, out);
  }

  void Union(const CompressedSet& a, const CompressedSet& b,
             std::vector<uint32_t>* out) const override {
    // Decompress both lists and merge linearly (paper §4.3).
    std::vector<uint32_t> da, db;
    Decode(a, &da);
    Decode(b, &db);
    UnionLists(da, db, out);
  }

  void IntersectWithList(const CompressedSet& a,
                         std::span<const uint32_t> probe,
                         std::vector<uint32_t>* out) const override {
    const auto& s = static_cast<const Set&>(a);
    if (!use_skips_) {
      std::vector<uint32_t> decoded;
      Decode(s, &decoded);
      IntersectLists(decoded, probe, out);
      return;
    }
    ProbeIntersect(s, probe, out);
  }

  void Serialize(const CompressedSet& set,
                 std::vector<uint8_t>* out) const override {
    const auto& s = static_cast<const Set&>(set);
    ByteWriter writer(out);
    writer.PutU64(s.count);
    writer.PutU8(s.skips_in_size ? 1 : 0);
    WriteVector(s.data, out);
    if (s.skips_in_size) {
      WriteVector(s.skip_first, out);
      WriteVector(s.skip_offset, out);
    } else if (!Traits::kDeltaBased) {
      // No-skip frame-of-reference images still carry the per-block bases:
      // they are payload (rebased blocks cannot be decoded without them), not
      // skip metadata, and SizeInBytes charges them accordingly. Byte
      // offsets — pure skip metadata — are rebuilt on load, as are both
      // arrays for delta-based traits. This keeps the serialized footprint
      // equal to the compression-ratio accounting for Fig. 7's no-skip mode.
      WriteVector(s.skip_first, out);
    }
  }

  std::unique_ptr<CompressedSet> Deserialize(const uint8_t* data,
                                             size_t size) const override {
    ByteReader reader(data, size);
    if (reader.Remaining() < 9) return nullptr;
    auto set = std::make_unique<Set>();
    set->count = reader.GetU64();
    set->skips_in_size = reader.GetU8() != 0;
    if (!ReadVector(&reader, &set->data)) return nullptr;
    const size_t nblocks = (set->count + kBlockN - 1) / kBlockN;
    if (set->skips_in_size) {
      if (!ReadVector(&reader, &set->skip_first) ||
          !ReadVector(&reader, &set->skip_offset)) {
        return nullptr;
      }
      if (set->skip_first.size() != set->skip_offset.size() ||
          set->skip_first.size() != nblocks) {
        return nullptr;
      }
      return set;
    }
    // No-skip image: the skip arrays were not serialized (except FOR bases);
    // rebuild them by walking the block payloads. Every block encodes to at
    // least one byte, so a count implying more blocks than payload bytes is
    // unparseable — this also bounds the rebuild allocations by the image
    // size (the trusted path stays parse-bounds-safe).
    if (nblocks > set->data.size()) return nullptr;
    if (!Traits::kDeltaBased) {
      if (!ReadVector(&reader, &set->skip_first) ||
          set->skip_first.size() != nblocks) {
        return nullptr;
      }
    }
    if (!RebuildSkips(set.get(), nblocks)) return nullptr;
    return set;
  }

  Status ValidateSet(const CompressedSet& set,
                     uint64_t domain) const override {
    const auto& s = static_cast<const Set&>(set);
    const uint64_t dmax = std::min<uint64_t>(domain, uint64_t{1} << 32);
    if (s.count > dmax) {
      return Status::Corrupt("cardinality exceeds domain");
    }
    if (s.count == 0) {
      return s.data.empty() ? Status::Ok()
                            : Status::Corrupt("empty list with payload");
    }
    // Re-decode every block through the traits' bounds-checked decoder and
    // replay the rebase arithmetic in uint64, so wrap-around tricks in the
    // stored gaps cannot fake monotonicity. The skip pointers are verified
    // against the recomputed first values because BlockedCursor seeks with
    // them directly.
    uint32_t buf[kBlockN < kSimdBlockSize ? kSimdBlockSize : kBlockN];
    uint64_t prev = 0;  // last accepted value
    bool any = false;
    for (size_t b = 0; b < s.skip_first.size(); ++b) {
      const size_t i = b * kBlockN;
      const size_t n = std::min(kBlockN, s.count - i);
      const size_t off = s.skip_offset[b];
      if (off >= s.data.size()) {
        return Status::Corrupt("skip offset out of range");
      }
      size_t consumed = 0;
      if (!Traits::CheckedDecodeBlock(s.data.data() + off,
                                      s.data.size() - off, n, buf,
                                      &consumed)) {
        return Status::Corrupt("malformed block payload");
      }
      if (Traits::kDeltaBased) {
        uint64_t running = prev;
        for (size_t k = 0; k < n; ++k) {
          if ((any || k > 0) && buf[k] == 0) {
            return Status::Corrupt("values not strictly increasing");
          }
          running += buf[k];
          if (running >= dmax) {
            return Status::Corrupt("value past domain");
          }
          if (k == 0 && s.skip_first[b] != running) {
            return Status::Corrupt("skip pointer mismatch");
          }
          any = true;
        }
        prev = running;
      } else {
        // Frame-of-reference blocks are rebased to their first value, so a
        // genuine payload always starts with 0 and skip_first is the base.
        if (buf[0] != 0) {
          return Status::Corrupt("FOR block base not zero");
        }
        const uint64_t base = s.skip_first[b];
        uint64_t last = base;
        if (any && base <= prev) {
          return Status::Corrupt("values not strictly increasing");
        }
        if (base >= dmax) {
          return Status::Corrupt("value past domain");
        }
        for (size_t k = 1; k < n; ++k) {
          const uint64_t v = base + buf[k];
          if (v <= last) {
            return Status::Corrupt("values not strictly increasing");
          }
          if (v >= dmax) {
            return Status::Corrupt("value past domain");
          }
          last = v;
        }
        prev = last;
        any = true;
      }
    }
    return Status::Ok();
  }

 private:
  void ProbeIntersect(const Set& s, std::span<const uint32_t> probe,
                      std::vector<uint32_t>* out) const {
    out->clear();
    BlockedCursor<Traits, kBlockN> cursor(s);
    if (GetKernelMode() == KernelMode::kScalar) {
      // Legacy per-element NextGEQ loop, kept as the measured baseline for
      // the --kernel ablation.
      uint32_t found;
      for (uint32_t v : probe) {
        if (!cursor.NextGEQ(v, &found)) break;
        if (found == v) out->push_back(v);
      }
      return;
    }
    cursor.ProbeIntersect(probe, out);
  }

  // Rebuilds the skip arrays for a no-skip image by walking the block
  // payloads with the traits' bounds-checked decoder (even the trusted
  // Deserialize path must never read past the buffer while parsing). For
  // delta-based traits block firsts are recomputed from the running gap sum;
  // for frame-of-reference traits skip_first came from the image and only
  // the byte offsets are recomputed.
  static bool RebuildSkips(Set* set, size_t nblocks) {
    set->skip_offset.clear();
    set->skip_offset.reserve(nblocks);
    if (Traits::kDeltaBased) {
      set->skip_first.clear();
      set->skip_first.reserve(nblocks);
    }
    uint32_t buf[kBlockN < kSimdBlockSize ? kSimdBlockSize : kBlockN];
    size_t off = 0;
    uint32_t prev_last = 0;
    for (size_t b = 0; b < nblocks; ++b) {
      const size_t n = std::min(kBlockN, set->count - b * kBlockN);
      if (off >= set->data.size()) return false;
      size_t consumed = 0;
      if (!Traits::CheckedDecodeBlock(set->data.data() + off,
                                      set->data.size() - off, n, buf,
                                      &consumed)) {
        return false;
      }
      set->skip_offset.push_back(static_cast<uint32_t>(off));
      if (Traits::kDeltaBased) {
        // Same uint32 wraparound arithmetic the cursor's rebase uses, so a
        // rebuilt skip_first always matches what Encode would have stored.
        set->skip_first.push_back(prev_last + buf[0]);
        for (size_t k = 0; k < n; ++k) prev_last += buf[k];
      }
      off += consumed;
    }
    return true;
  }

  // Zero bytes appended after the last block (see Encode).
  static constexpr size_t kSlackBytes = 4;

  // Writes the payload of the block starting at sorted[i] into `scratch`
  // — d-gaps (the first relative to the previous block's last value, or 0)
  // or offsets from the block's first value — and returns its length.
  static size_t BlockPayload(std::span<const uint32_t> sorted, size_t i,
                             uint32_t* scratch) {
    const size_t n = std::min(kBlockN, sorted.size() - i);
    if (Traits::kDeltaBased) {
      scratch[0] = sorted[i] - (i == 0 ? 0 : sorted[i - 1]);
      for (size_t k = 1; k < n; ++k) {
        scratch[k] = sorted[i + k] - sorted[i + k - 1];
      }
    } else {
      for (size_t k = 0; k < n; ++k) scratch[k] = sorted[i + k] - sorted[i];
    }
    return n;
  }

  const bool use_skips_;
};

}  // namespace intcomp

#endif  // INTCOMP_INVLIST_BLOCKED_LIST_H_
