// The uniform interface every compression method in the study implements.
//
// A codec turns a sorted, duplicate-free list of uint32 values (equivalently,
// a bitmap whose set-bit positions are those values — paper §1) into a
// compressed representation, and supports the four operations the paper
// measures: space, decompression, intersection, and union (§4.2). Results of
// intersection/union are uncompressed integer lists (paper App. B.1) so they
// can be returned to users or fed into further operations.

#ifndef INTCOMP_CORE_CODEC_H_
#define INTCOMP_CORE_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace intcomp {

// Which research lineage a codec belongs to (paper §2 vs §3).
enum class CodecFamily {
  kBitmap,
  kInvertedList,
};

// A compressed sorted-integer set. Concrete subtypes are private to their
// codec; callers interact through the owning Codec.
class CompressedSet {
 public:
  virtual ~CompressedSet() = default;

  // Full compressed footprint in bytes, including per-block metadata and
  // skip pointers (the paper's space-overhead metric).
  virtual size_t SizeInBytes() const = 0;

  // Number of values in the set.
  virtual size_t Cardinality() const = 0;
};

// A compression method. Implementations are stateless and thread-compatible;
// one shared instance per method lives in the registry (core/registry.h).
class Codec {
 public:
  virtual ~Codec() = default;

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  // Display name matching the paper's figure legends (e.g. "WAH",
  // "SIMDPforDelta*").
  virtual std::string_view Name() const = 0;

  virtual CodecFamily Family() const = 0;

  // Family of `set`'s actual representation. Equal to Family() for every
  // fixed-representation codec; adaptive wrappers (Hybrid, Planner) override
  // it to report the family of the side a given set landed on, so kernel
  // stats and the query planner classify a list-backed hybrid set as
  // kInvertedList instead of trusting the wrapper's static family.
  virtual CodecFamily EffectiveFamily(const CompressedSet& set) const {
    (void)set;
    return Family();
  }

  // Name of the codec that actually encodes `set` — Name() for fixed codecs,
  // the chosen inner codec's name for adaptive wrappers. This is the per-set
  // codec tag the storage layer persists and the service folds into plan
  // cache keys.
  virtual std::string_view SetCodecName(const CompressedSet& set) const {
    (void)set;
    return Name();
  }

  // Compresses `sorted` (strictly increasing values, all < domain).
  // `domain` is the number of rows / documents (paper: "domain size").
  virtual std::unique_ptr<CompressedSet> Encode(
      std::span<const uint32_t> sorted, uint64_t domain) const = 0;

  // Exact byte footprint Encode(sorted, domain) would have, i.e. always
  // == Encode(sorted, domain)->SizeInBytes(). The default encodes and
  // measures. Codecs a per-list selector sizes often (PlannerCodec's
  // trials) override it with a closed form derived from the same layout
  // decisions their encoder makes, so sizing allocates nothing and writes
  // no payload.
  virtual size_t EncodedSize(std::span<const uint32_t> sorted,
                             uint64_t domain) const;

  // Decompresses `set` into `out` (cleared first).
  virtual void Decode(const CompressedSet& set,
                      std::vector<uint32_t>* out) const = 0;

  // out = a AND b, as an uncompressed sorted list. Operates on the
  // compressed form directly where the method supports it (all bitmap
  // codecs; skip-pointer probing for inverted lists).
  virtual void Intersect(const CompressedSet& a, const CompressedSet& b,
                         std::vector<uint32_t>* out) const = 0;

  // out = a OR b, as an uncompressed sorted list.
  virtual void Union(const CompressedSet& a, const CompressedSet& b,
                     std::vector<uint32_t>* out) const = 0;

  // out = a AND probe, where `probe` is an uncompressed sorted list — the
  // SvS step that intersects the running (uncompressed) result with the next
  // compressed list (paper §4.3, App. B.1). The default implementation
  // decodes `a` and merges; codecs with skip pointers or bucket indexes
  // override it with sub-linear probing.
  virtual void IntersectWithList(const CompressedSet& a,
                                 std::span<const uint32_t> probe,
                                 std::vector<uint32_t>* out) const;

  // Appends a self-contained, position-independent byte image of `set` to
  // `out`. The image can be persisted and later restored by the same codec
  // with Deserialize (byte order: little-endian).
  virtual void Serialize(const CompressedSet& set,
                         std::vector<uint8_t>* out) const = 0;

  // Reconstructs a set from a Serialize image. Returns nullptr if the
  // buffer is malformed (truncated or inconsistent lengths).
  //
  // TRUST BOUNDARY: this is the trusted fast path. It is parse-bounds-safe
  // (never reads outside [data, data+size) and never makes an allocation
  // larger than `size`), but it does NOT validate structural invariants of
  // the payload — decoding a set built from a hostile image may still read
  // or write out of bounds. Images from disk/network/cache must go through
  // DeserializeChecked instead.
  virtual std::unique_ptr<CompressedSet> Deserialize(const uint8_t* data,
                                                     size_t size) const = 0;

  // Zero-copy twin of Deserialize: the returned set may reference `image`'s
  // bytes directly instead of copying them into owned buffers. The caller
  // must keep `image` alive, mapped, and unmodified for the set's lifetime
  // (the mmap-backed index reader, storage/mapped_index.h, owns both). Codecs
  // whose in-memory representation is a flat word array opt in by overriding
  // this (and SupportsViewDeserialize); the default falls back to the owning
  // Deserialize, which is always correct, just not zero-copy. Carries the
  // same trust contract as Deserialize — untrusted images go through
  // DeserializeCheckedView.
  virtual std::unique_ptr<CompressedSet> DeserializeView(
      std::span<const uint8_t> image) const {
    return Deserialize(image.data(), image.size());
  }

  // True when DeserializeView borrows from the image (false = it copies).
  virtual bool SupportsViewDeserialize() const { return false; }

  // Checked ingestion path for untrusted byte images: parses like Deserialize
  // and then deep-validates every structural invariant Decode/Intersect/Union
  // rely on (word-stream shape, block headers and selector legality, skip
  // pointers, partition bounds, container cardinalities, monotonicity, and
  // value < domain). On success the returned set is safe to pass to any
  // operation of this codec; on failure returns kCorruptData. `domain` is the
  // same domain the set was encoded with (values must be < domain).
  virtual StatusOr<std::unique_ptr<CompressedSet>> DeserializeChecked(
      std::span<const uint8_t> image, uint64_t domain) const;

  // DeserializeChecked over the zero-copy parse: DeserializeView + the same
  // deep ValidateSet. On success the returned set is safe for every
  // operation of this codec but may borrow from `image` — the caller owns
  // the lifetime contract of DeserializeView.
  StatusOr<std::unique_ptr<CompressedSet>> DeserializeCheckedView(
      std::span<const uint8_t> image, uint64_t domain) const;

  // Deep structural validation of an already-parsed set (the second half of
  // DeserializeChecked). Public so wrapper codecs (Hybrid) can delegate to
  // the inner codec's validator. Returns OK iff every operation on `set` is
  // memory-safe and yields a strictly increasing list of values < domain
  // consistent with Cardinality().
  virtual Status ValidateSet(const CompressedSet& set, uint64_t domain)
      const = 0;

 protected:
  Codec() = default;
};

// Intersects two uncompressed sorted lists through the adaptive kernel
// planner (common/simd_intersect.h): merge-based for similar sizes,
// galloping for skewed pairs, SIMD or scalar per the process KernelMode.
void IntersectLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                    std::vector<uint32_t>* out);

// Unions two uncompressed sorted lists through the mode-selected merge
// kernel (vectorized bitonic merge network under SIMD modes).
void UnionLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                std::vector<uint32_t>* out);

}  // namespace intcomp

#endif  // INTCOMP_CORE_CODEC_H_
