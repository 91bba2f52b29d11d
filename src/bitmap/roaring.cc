#include "bitmap/roaring.h"

#include <algorithm>

#include "common/bits.h"
#include "common/serialize_util.h"

namespace intcomp {
namespace {

using Set = RoaringCodec::Set;
using Container = RoaringCodec::Container;

// Appends all values of container `c`, rebased to its chunk, to `out`.
void EmitContainer(const Set& s, const Container& c,
                   std::vector<uint32_t>* out) {
  const uint32_t base = static_cast<uint32_t>(c.key) << 16;
  if (c.is_bitmap) {
    const uint64_t* words = s.bitmap_data.data() + c.offset;
    for (size_t w = 0; w < RoaringCodec::kBitmapWords; ++w) {
      uint64_t x = words[w];
      while (x != 0) {
        out->push_back(base + static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(CountTrailingZeros64(x)));
        x = ClearLowestBit64(x);
      }
    }
  } else {
    const uint16_t* vals = s.array_data.data() + c.offset;
    for (uint32_t i = 0; i < c.cardinality; ++i) {
      out->push_back(base + vals[i]);
    }
  }
}

inline bool BitmapTest(const uint64_t* words, uint16_t v) {
  return (words[v >> 6] >> (v & 63)) & 1u;
}

void IntersectArrayArray(const uint16_t* a, uint32_t na, const uint16_t* b,
                         uint32_t nb, uint32_t base,
                         std::vector<uint32_t>* out) {
  if (na > nb) {
    std::swap(a, b);
    std::swap(na, nb);
  }
  if (nb >= 64u * na) {
    // In-bucket binary search for heavily skewed sizes (paper §5.2(1)).
    const uint16_t* lo = b;
    const uint16_t* bend = b + nb;
    for (uint32_t i = 0; i < na; ++i) {
      lo = std::lower_bound(lo, bend, a[i]);
      if (lo == bend) return;
      if (*lo == a[i]) out->push_back(base + a[i]);
    }
    return;
  }
  uint32_t i = 0, j = 0;
  while (i < na && j < nb) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      out->push_back(base + a[i]);
      ++i;
      ++j;
    }
  }
}

void IntersectContainers(const Set& sa, const Container& ca, const Set& sb,
                         const Container& cb, std::vector<uint32_t>* out) {
  const uint32_t base = static_cast<uint32_t>(ca.key) << 16;
  if (ca.is_bitmap && cb.is_bitmap) {
    const uint64_t* wa = sa.bitmap_data.data() + ca.offset;
    const uint64_t* wb = sb.bitmap_data.data() + cb.offset;
    for (size_t w = 0; w < RoaringCodec::kBitmapWords; ++w) {
      uint64_t x = wa[w] & wb[w];
      while (x != 0) {
        out->push_back(base + static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(CountTrailingZeros64(x)));
        x = ClearLowestBit64(x);
      }
    }
  } else if (!ca.is_bitmap && !cb.is_bitmap) {
    IntersectArrayArray(sa.array_data.data() + ca.offset, ca.cardinality,
                        sb.array_data.data() + cb.offset, cb.cardinality, base,
                        out);
  } else {
    const auto& arr_set = ca.is_bitmap ? sb : sa;
    const auto& arr_c = ca.is_bitmap ? cb : ca;
    const auto& bm_set = ca.is_bitmap ? sa : sb;
    const auto& bm_c = ca.is_bitmap ? ca : cb;
    const uint16_t* vals = arr_set.array_data.data() + arr_c.offset;
    const uint64_t* words = bm_set.bitmap_data.data() + bm_c.offset;
    for (uint32_t i = 0; i < arr_c.cardinality; ++i) {
      if (BitmapTest(words, vals[i])) out->push_back(base + vals[i]);
    }
  }
}

void UnionContainers(const Set& sa, const Container& ca, const Set& sb,
                     const Container& cb, std::vector<uint32_t>* out) {
  const uint32_t base = static_cast<uint32_t>(ca.key) << 16;
  if (ca.is_bitmap || cb.is_bitmap) {
    // Materialize the OR in a 8KB scratch bitmap, then emit.
    uint64_t scratch[RoaringCodec::kBitmapWords] = {};
    auto add = [&scratch](const Set& s, const Container& c) {
      if (c.is_bitmap) {
        const uint64_t* words = s.bitmap_data.data() + c.offset;
        for (size_t w = 0; w < RoaringCodec::kBitmapWords; ++w) {
          scratch[w] |= words[w];
        }
      } else {
        const uint16_t* vals = s.array_data.data() + c.offset;
        for (uint32_t i = 0; i < c.cardinality; ++i) {
          scratch[vals[i] >> 6] |= uint64_t{1} << (vals[i] & 63);
        }
      }
    };
    add(sa, ca);
    add(sb, cb);
    for (size_t w = 0; w < RoaringCodec::kBitmapWords; ++w) {
      uint64_t x = scratch[w];
      while (x != 0) {
        out->push_back(base + static_cast<uint32_t>(w * 64) +
                       static_cast<uint32_t>(CountTrailingZeros64(x)));
        x = ClearLowestBit64(x);
      }
    }
  } else {
    const uint16_t* a = sa.array_data.data() + ca.offset;
    const uint16_t* b = sb.array_data.data() + cb.offset;
    uint32_t i = 0, j = 0;
    while (i < ca.cardinality && j < cb.cardinality) {
      if (a[i] < b[j]) {
        out->push_back(base + a[i++]);
      } else if (b[j] < a[i]) {
        out->push_back(base + b[j++]);
      } else {
        out->push_back(base + a[i]);
        ++i;
        ++j;
      }
    }
    for (; i < ca.cardinality; ++i) out->push_back(base + a[i]);
    for (; j < cb.cardinality; ++j) out->push_back(base + b[j]);
  }
}

// One past the last index of the container (values sharing sorted[i]'s
// high 16 bits) that starts at index i. Gallops, then binary searches, so
// the cost is logarithmic in the container's cardinality, not the list's.
size_t ContainerEnd(std::span<const uint32_t> sorted, size_t i) {
  const uint32_t key = sorted[i] >> 16;
  const auto same_key = [key](uint32_t v) { return (v >> 16) == key; };
  size_t lo = i + 1;  // [i, lo) is known to be in the container
  size_t step = 1;
  while (lo + step <= sorted.size() && same_key(sorted[lo + step - 1])) {
    lo += step;
    step *= 2;
  }
  const size_t hi = std::min(lo + step - 1, sorted.size());
  return static_cast<size_t>(
      std::partition_point(sorted.begin() + static_cast<ptrdiff_t>(lo),
                           sorted.begin() + static_cast<ptrdiff_t>(hi),
                           same_key) -
      sorted.begin());
}

}  // namespace

std::unique_ptr<CompressedSet> RoaringCodec::Encode(
    std::span<const uint32_t> sorted, uint64_t /*domain*/) const {
  auto set = std::make_unique<Set>();
  set->cardinality = sorted.size();
  size_t i = 0;
  while (i < sorted.size()) {
    const uint16_t key = static_cast<uint16_t>(sorted[i] >> 16);
    const size_t j = ContainerEnd(sorted, i);
    const uint32_t n = static_cast<uint32_t>(j - i);
    Container c;
    c.key = key;
    c.cardinality = n;
    if (n > kArrayMax) {
      c.is_bitmap = true;
      c.offset = set->bitmap_data.size();
      set->bitmap_data.resize(c.offset + kBitmapWords, 0);
      uint64_t* words = set->bitmap_data.data() + c.offset;
      for (size_t k = i; k < j; ++k) {
        uint16_t v = static_cast<uint16_t>(sorted[k]);
        words[v >> 6] |= uint64_t{1} << (v & 63);
      }
    } else {
      c.is_bitmap = false;
      c.offset = set->array_data.size();
      for (size_t k = i; k < j; ++k) {
        set->array_data.push_back(static_cast<uint16_t>(sorted[k]));
      }
    }
    set->containers.push_back(c);
    i = j;
  }
  return set;
}

size_t RoaringCodec::EncodedSize(std::span<const uint32_t> sorted,
                                 uint64_t /*domain*/) const {
  size_t bytes = 0;
  for (size_t i = 0; i < sorted.size();) {
    const size_t j = ContainerEnd(sorted, i);
    const size_t n = j - i;
    bytes += 4 + (n > kArrayMax ? kBitmapWords * 8 : n * 2);
    i = j;
  }
  return bytes;
}

void RoaringCodec::Decode(const CompressedSet& set,
                          std::vector<uint32_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  out->clear();
  out->reserve(s.cardinality);
  for (const auto& c : s.containers) EmitContainer(s, c, out);
}

void RoaringCodec::Intersect(const CompressedSet& a, const CompressedSet& b,
                             std::vector<uint32_t>* out) const {
  const auto& sa = static_cast<const Set&>(a);
  const auto& sb = static_cast<const Set&>(b);
  out->clear();
  size_t i = 0, j = 0;
  while (i < sa.containers.size() && j < sb.containers.size()) {
    const auto& ca = sa.containers[i];
    const auto& cb = sb.containers[j];
    if (ca.key < cb.key) {
      ++i;
    } else if (cb.key < ca.key) {
      ++j;
    } else {
      IntersectContainers(sa, ca, sb, cb, out);
      ++i;
      ++j;
    }
  }
}

void RoaringCodec::Union(const CompressedSet& a, const CompressedSet& b,
                         std::vector<uint32_t>* out) const {
  const auto& sa = static_cast<const Set&>(a);
  const auto& sb = static_cast<const Set&>(b);
  out->clear();
  out->reserve(sa.cardinality + sb.cardinality);
  size_t i = 0, j = 0;
  while (i < sa.containers.size() && j < sb.containers.size()) {
    const auto& ca = sa.containers[i];
    const auto& cb = sb.containers[j];
    if (ca.key < cb.key) {
      EmitContainer(sa, ca, out);
      ++i;
    } else if (cb.key < ca.key) {
      EmitContainer(sb, cb, out);
      ++j;
    } else {
      UnionContainers(sa, ca, sb, cb, out);
      ++i;
      ++j;
    }
  }
  for (; i < sa.containers.size(); ++i) EmitContainer(sa, sa.containers[i], out);
  for (; j < sb.containers.size(); ++j) EmitContainer(sb, sb.containers[j], out);
}

void RoaringCodec::IntersectWithList(const CompressedSet& a,
                                     std::span<const uint32_t> probe,
                                     std::vector<uint32_t>* out) const {
  const auto& sa = static_cast<const Set&>(a);
  out->clear();
  size_t ci = 0;
  size_t pi = 0;
  while (pi < probe.size() && ci < sa.containers.size()) {
    const auto& c = sa.containers[ci];
    const uint32_t key = probe[pi] >> 16;
    if (c.key < key) {
      ++ci;
      continue;
    }
    if (c.key > key) {
      // Skip probe values belonging to absent chunks.
      const uint32_t next_base = static_cast<uint32_t>(c.key) << 16;
      pi = std::lower_bound(probe.begin() + pi, probe.end(), next_base) -
           probe.begin();
      continue;
    }
    const uint16_t low = static_cast<uint16_t>(probe[pi]);
    if (c.is_bitmap) {
      if (BitmapTest(sa.bitmap_data.data() + c.offset, low)) {
        out->push_back(probe[pi]);
      }
    } else {
      const uint16_t* vals = sa.array_data.data() + c.offset;
      const uint16_t* end = vals + c.cardinality;
      const uint16_t* it = std::lower_bound(vals, end, low);
      if (it != end && *it == low) out->push_back(probe[pi]);
    }
    ++pi;
  }
}

void RoaringCodec::Serialize(const CompressedSet& set,
                             std::vector<uint8_t>* out) const {
  const auto& s = static_cast<const Set&>(set);
  ByteWriter writer(out);
  writer.PutU64(s.cardinality);
  writer.PutU32(static_cast<uint32_t>(s.containers.size()));
  for (const Container& c : s.containers) {
    writer.PutU16(c.key);
    writer.PutU8(c.is_bitmap ? 1 : 0);
    writer.PutU32(c.cardinality);
    // Offsets are recomputed on load from the container order.
  }
  WriteVector(s.array_data, out);
  WriteVector(s.bitmap_data, out);
}

std::unique_ptr<CompressedSet> RoaringCodec::Deserialize(const uint8_t* data,
                                                         size_t size) const {
  ByteReader reader(data, size);
  if (reader.Remaining() < 12) return nullptr;
  auto set = std::make_unique<Set>();
  set->cardinality = reader.GetU64();
  const uint32_t n = reader.GetU32();
  if (reader.Remaining() < static_cast<size_t>(n) * 7) return nullptr;
  size_t array_offset = 0;
  size_t bitmap_offset = 0;
  set->containers.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Container c;
    c.key = reader.GetU16();
    c.is_bitmap = reader.GetU8() != 0;
    c.cardinality = reader.GetU32();
    if (c.is_bitmap) {
      c.offset = bitmap_offset;
      bitmap_offset += kBitmapWords;
    } else {
      c.offset = array_offset;
      array_offset += c.cardinality;
    }
    set->containers.push_back(c);
  }
  if (!ReadVector(&reader, &set->array_data) ||
      !ReadVector(&reader, &set->bitmap_data)) {
    return nullptr;
  }
  if (set->array_data.size() != array_offset ||
      set->bitmap_data.size() != bitmap_offset) {
    return nullptr;
  }
  return set;
}

Status RoaringCodec::ValidateSet(const CompressedSet& set,
                                 uint64_t domain) const {
  const auto& s = static_cast<const Set&>(set);
  const uint64_t dmax = std::min<uint64_t>(domain, uint64_t{1} << 32);
  uint64_t sum = 0;
  int prev_key = -1;
  for (const Container& c : s.containers) {
    if (static_cast<int>(c.key) <= prev_key) {
      return Status::Corrupt("container keys not strictly increasing");
    }
    prev_key = c.key;
    const uint64_t base = static_cast<uint64_t>(c.key) << 16;
    if (c.is_bitmap) {
      // The container-type invariant (bitmap iff > 4096 elements) is what
      // the intersection kernels' size heuristics assume, and the recounted
      // popcount is what Decode's reserve relies on.
      if (c.cardinality <= kArrayMax || c.cardinality > 65536) {
        return Status::Corrupt("bitmap container cardinality out of range");
      }
      const uint64_t* words = s.bitmap_data.data() + c.offset;
      uint64_t bits = 0;
      for (size_t w = 0; w < kBitmapWords; ++w) bits += PopCount64(words[w]);
      if (bits != c.cardinality) {
        return Status::Corrupt("bitmap container popcount mismatch");
      }
      size_t w = kBitmapWords;
      while (w > 0 && words[w - 1] == 0) --w;
      // bits > 0 here, so some word is non-zero.
      const uint64_t high =
          base + (w - 1) * 64 + (BitWidth64(words[w - 1]) - 1);
      if (high >= dmax) {
        return Status::Corrupt("container value past domain");
      }
    } else {
      if (c.cardinality == 0 || c.cardinality > kArrayMax) {
        return Status::Corrupt("array container cardinality out of range");
      }
      const uint16_t* vals = s.array_data.data() + c.offset;
      for (uint32_t i = 1; i < c.cardinality; ++i) {
        if (vals[i] <= vals[i - 1]) {
          return Status::Corrupt("array container not strictly increasing");
        }
      }
      if (base + vals[c.cardinality - 1] >= dmax) {
        return Status::Corrupt("container value past domain");
      }
    }
    sum += c.cardinality;
  }
  if (sum != s.cardinality) {
    return Status::Corrupt("cardinality mismatch");
  }
  return Status::Ok();
}

}  // namespace intcomp
