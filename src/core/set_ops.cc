#include "core/set_ops.h"

#include <algorithm>

#include "common/simd_intersect.h"
#include "invlist/plain_list.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp {

namespace {

std::vector<TaggedSet> TagAll(const Codec& codec,
                              std::span<const CompressedSet* const> sets) {
  std::vector<TaggedSet> tagged;
  tagged.reserve(sets.size());
  for (const CompressedSet* s : sets) tagged.push_back({&codec, s});
  return tagged;
}

// k-way merge over the decoded lists (k > 2): one pass instead of k-1
// pairwise passes over the accumulated result.
void HeapUnion(std::span<const TaggedSet> sets, ScratchArena* arena,
               std::vector<uint32_t>* out) {
  std::vector<ScratchArena::Lease> decoded;
  decoded.reserve(sets.size());
  size_t total = 0;
  {
    TRACE_SPAN("decode");
    obs::OpCounters& oc = obs::ThreadOpCounters();
    for (const TaggedSet& s : sets) {
      decoded.push_back(arena->Acquire());
      s.codec->Decode(*s.set, decoded.back().get());
      oc.bytes_decoded += s.set->SizeInBytes();
      total += decoded.back()->size();
    }
  }
  out->reserve(total);
  struct Cursor {
    const uint32_t* p;
    const uint32_t* end;
  };
  auto later = [](const Cursor& a, const Cursor& b) { return *a.p > *b.p; };
  std::vector<Cursor> heap;
  for (const auto& d : decoded) {
    if (!d->empty()) heap.push_back({d->data(), d->data() + d->size()});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  uint32_t last = 0;
  bool have_last = false;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    const uint32_t v = *c.p++;
    if (!have_last || v != last) {
      out->push_back(v);
      last = v;
      have_last = true;
    }
    if (c.p == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace

Status SvsIntersect(std::span<TaggedSet> sets, bool seeded,
                    const IntersectPairFn& pair,
                    const CancellationToken* token, ScratchArena* arena,
                    std::vector<uint32_t>* out) {
  std::sort(sets.begin(), sets.end(),
            [](const TaggedSet& a, const TaggedSet& b) {
              return a.set->Cardinality() < b.set->Cardinality();
            });
  size_t i = 0;
  if (!seeded) {
    out->clear();
    if (sets.empty()) return Status::Ok();
    if (sets.size() == 1) {
      sets[0].codec->Decode(*sets[0].set, out);
      return Status::Ok();
    }
    pair(sets[0], sets[1], out);
    i = 2;
  }
  ScratchArena::Lease next = arena->Acquire();
  TRACE_SPAN("svs_probe");
  for (; i < sets.size() && !out->empty(); ++i) {
    if (token != nullptr) {
      Status st = token->Check();
      if (!st.ok()) return st;
    }
    const TaggedSet& s = sets[i];
    if (s.set->Cardinality() * kMergeIntersectRatio < out->size()) {
      ScratchArena::Lease decoded = arena->Acquire();
      s.codec->Decode(*s.set, decoded.get());
      obs::ThreadOpCounters().bytes_decoded += s.set->SizeInBytes();
      GallopIntersect(*decoded, *out, next.get());
    } else {
      s.codec->IntersectWithList(*s.set, *out, next.get());
    }
    out->swap(*next);
  }
  return Status::Ok();
}

void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   ScratchArena* arena, std::vector<uint32_t>* out) {
  TRACE_SPAN("intersect_sets");
  obs::ScopedOpTimer timer(codec.Name(), obs::OpKind::kIntersect);
  obs::ThreadOpCounters().lists_touched += sets.size();
  std::vector<TaggedSet> tagged = TagAll(codec, sets);
  (void)SvsIntersect(
      tagged, /*seeded=*/false,
      [](const TaggedSet& a, const TaggedSet& b, std::vector<uint32_t>* o) {
        a.codec->Intersect(*a.set, *b.set, o);
      },
      nullptr, arena, out);
}

void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               ScratchArena* arena, std::vector<uint32_t>* out) {
  TRACE_SPAN("union_sets");
  obs::ScopedOpTimer timer(codec.Name(), obs::OpKind::kUnion);
  obs::ThreadOpCounters().lists_touched += sets.size();
  out->clear();
  if (sets.empty()) return;
  if (sets.size() == 1) {
    codec.Decode(*sets[0], out);
    return;
  }
  if (sets.size() == 2) {
    codec.Union(*sets[0], *sets[1], out);
    return;
  }
  HeapUnion(TagAll(codec, sets), arena, out);
}

void IntersectSets(const Codec& codec,
                   std::span<const CompressedSet* const> sets,
                   std::vector<uint32_t>* out) {
  ScratchArena arena;
  IntersectSets(codec, sets, &arena, out);
}

void UnionSets(const Codec& codec, std::span<const CompressedSet* const> sets,
               std::vector<uint32_t>* out) {
  ScratchArena arena;
  UnionSets(codec, sets, &arena, out);
}

void DifferenceSets(const Codec& codec, const CompressedSet& a,
                    const CompressedSet& b, std::vector<uint32_t>* out) {
  DifferenceTagged({&codec, &a}, {&codec, &b}, out);
}

void IntersectTagged(const TaggedSet& a, const TaggedSet& b,
                     std::vector<uint32_t>* out) {
  obs::ExplainScope scope("set_ops.intersect_tagged");
  if (scope.active()) {
    scope.AddStr("codec_a", a.codec->SetCodecName(*a.set));
    scope.AddStr("codec_b", b.codec->SetCodecName(*b.set));
  }
  if (a.codec == b.codec) {
    scope.AddStr("path", "compressed");
    a.codec->Intersect(*a.set, *b.set, out);
    return;
  }
  const TaggedSet* small = &a;
  const TaggedSet* large = &b;
  if (small->set->Cardinality() > large->set->Cardinality()) {
    std::swap(small, large);
  }
  std::vector<uint32_t> decoded;
  small->codec->Decode(*small->set, &decoded);
  obs::ThreadOpCounters().bytes_decoded += small->set->SizeInBytes();
  if (ChooseIntersectStrategy(small->set->Cardinality(),
                              large->set->Cardinality()) ==
      IntersectStrategy::kMerge) {
    scope.AddStr("path", "merge");
    std::vector<uint32_t> decoded_large;
    large->codec->Decode(*large->set, &decoded_large);
    obs::ThreadOpCounters().bytes_decoded += large->set->SizeInBytes();
    IntersectLists(decoded, decoded_large, out);
    return;
  }
  scope.AddStr("path", "probe");
  large->codec->IntersectWithList(*large->set, decoded, out);
}

void UnionTagged(const TaggedSet& a, const TaggedSet& b,
                 std::vector<uint32_t>* out) {
  obs::ExplainScope scope("set_ops.union_tagged");
  if (scope.active()) {
    scope.AddStr("codec_a", a.codec->SetCodecName(*a.set));
    scope.AddStr("codec_b", b.codec->SetCodecName(*b.set));
  }
  if (a.codec == b.codec) {
    scope.AddStr("path", "compressed");
    a.codec->Union(*a.set, *b.set, out);
    return;
  }
  scope.AddStr("path", "merge");
  std::vector<uint32_t> da, db;
  a.codec->Decode(*a.set, &da);
  b.codec->Decode(*b.set, &db);
  obs::ThreadOpCounters().bytes_decoded +=
      a.set->SizeInBytes() + b.set->SizeInBytes();
  UnionLists(da, db, out);
}

void IntersectTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                         std::vector<uint32_t>* out) {
  TRACE_SPAN("intersect_tagged_sets");
  obs::ExplainScope scope("set_ops.intersect_tagged_sets");
  scope.AddUint("k", sets.size());
  obs::ThreadOpCounters().lists_touched += sets.size();
  std::vector<TaggedSet> order(sets.begin(), sets.end());
  (void)SvsIntersect(order, /*seeded=*/false, IntersectTagged, nullptr, arena,
                     out);
}

void UnionTaggedSets(std::span<const TaggedSet> sets, ScratchArena* arena,
                     std::vector<uint32_t>* out) {
  TRACE_SPAN("union_tagged_sets");
  obs::ExplainScope scope("set_ops.union_tagged_sets");
  scope.AddUint("k", sets.size());
  obs::ThreadOpCounters().lists_touched += sets.size();
  out->clear();
  if (sets.empty()) return;
  if (sets.size() == 1) {
    sets[0].codec->Decode(*sets[0].set, out);
    return;
  }
  if (sets.size() == 2) {
    UnionTagged(sets[0], sets[1], out);
    return;
  }
  HeapUnion(sets, arena, out);
}

void DifferenceTagged(const TaggedSet& a, const TaggedSet& b,
                      std::vector<uint32_t>* out) {
  std::vector<uint32_t> decoded;
  a.codec->Decode(*a.set, &decoded);
  std::vector<uint32_t> common;
  b.codec->IntersectWithList(*b.set, decoded, &common);
  DifferenceLists(decoded, common, out);
}

void DifferenceLists(std::span<const uint32_t> a, std::span<const uint32_t> b,
                     std::vector<uint32_t>* out) {
  out->clear();
  out->reserve(a.size());
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      out->push_back(a[i++]);
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  out->insert(out->end(), a.begin() + i, a.end());
}

}  // namespace intcomp
