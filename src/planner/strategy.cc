#include "planner/strategy.h"

#include <algorithm>
#include <cmath>

#include "common/fast_clock.h"
#include "obs/explain.h"
#include "obs/metrics.h"
#include "obs/op_counters.h"
#include "obs/trace.h"

namespace intcomp::planner {

namespace {

void BumpStrategyCounter(SetOpStrategy chosen) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.Enabled()) return;
  switch (chosen) {
    case SetOpStrategy::kCompressed:
      reg.AddCounter("planner.strategy.compressed", 1);
      break;
    case SetOpStrategy::kDecodeMerge:
      reg.AddCounter("planner.strategy.merge", 1);
      break;
    case SetOpStrategy::kGallopProbe:
      reg.AddCounter("planner.strategy.gallop", 1);
      break;
    case SetOpStrategy::kAuto:
      break;
  }
}

// Folds one decision's estimated and measured cost into the
// planner.cost.residual.<strategy>.{est_ns,act_ns,count} counters, so
// est/act across a whole run exposes model miscalibration per strategy as a
// queryable ratio instead of a bisection session.
void RecordCostResidual(SetOpStrategy chosen, double est_ns,
                        uint64_t act_ns) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  if (!reg.Enabled()) return;
  std::string key("planner.cost.residual.");
  key += SetOpStrategyName(chosen);
  const size_t stem = key.size();
  key += ".est_ns";
  reg.AddCounter(key, est_ns <= 0.0 ? 0
                                    : static_cast<uint64_t>(std::llround(
                                          est_ns)));
  key.resize(stem);
  key += ".act_ns";
  reg.AddCounter(key, act_ns);
  key.resize(stem);
  key += ".count";
  reg.AddCounter(key, 1);
}

}  // namespace

bool ParseSetOpStrategy(std::string_view text, SetOpStrategy* strategy) {
  if (text == "auto") {
    *strategy = SetOpStrategy::kAuto;
  } else if (text == "compressed") {
    *strategy = SetOpStrategy::kCompressed;
  } else if (text == "merge") {
    *strategy = SetOpStrategy::kDecodeMerge;
  } else if (text == "gallop") {
    *strategy = SetOpStrategy::kGallopProbe;
  } else {
    return false;
  }
  return true;
}

std::string_view SetOpStrategyName(SetOpStrategy strategy) {
  switch (strategy) {
    case SetOpStrategy::kAuto: return "auto";
    case SetOpStrategy::kCompressed: return "compressed";
    case SetOpStrategy::kDecodeMerge: return "merge";
    case SetOpStrategy::kGallopProbe: return "gallop";
  }
  return "unknown";
}

const CostModel& CostModel::Default() {
  static const CostModel* model = [] {
    auto* m = new CostModel();
    m->kernel = MeasureKernelCosts();
    return m;
  }();
  return *model;
}

double IntersectCostNs(const TaggedSet& a, const TaggedSet& b,
                       SetOpStrategy strategy, const CostModel& model) {
  const double ca = static_cast<double>(a.set->Cardinality());
  const double cb = static_cast<double>(b.set->Cardinality());
  const double smaller = std::min(ca, cb);
  switch (strategy) {
    case SetOpStrategy::kCompressed:
      // Bitmap-backed pairs intersect as a compressed-word scan (AND or RLE
      // run walk): work scales with the compressed bytes. A list codec's
      // native Intersect walks both streams element-wise — effectively a
      // decode+merge without the SIMD kernel, so model it as merge plus a
      // small scalar penalty rather than by image size.
      if (a.codec->EffectiveFamily(*a.set) == CodecFamily::kBitmap &&
          b.codec->EffectiveFamily(*b.set) == CodecFamily::kBitmap) {
        return model.compressed_ns_per_byte *
               static_cast<double>(a.set->SizeInBytes() +
                                   b.set->SizeInBytes());
      }
      return 1.05 * (model.decode_ns_per_elem +
                     model.kernel.merge_ns_per_elem) * (ca + cb);
    case SetOpStrategy::kDecodeMerge:
      return (model.decode_ns_per_elem + model.kernel.merge_ns_per_elem) *
             (ca + cb);
    case SetOpStrategy::kGallopProbe:
      // Decode the smaller side, then one probe per element through the
      // larger side's own skip/bucket structure. Codec probes batch into
      // bulk block lookups, so they run cheaper than the raw-array gallop
      // kernel the merge path would use.
      return (model.decode_ns_per_elem + model.probe_ns_per_elem) * smaller;
    case SetOpStrategy::kAuto:
      break;
  }
  return 0.0;
}

SetOpStrategy ChoosePairStrategy(const TaggedSet& a, const TaggedSet& b,
                                 const CostModel& model) {
  SetOpStrategy best = SetOpStrategy::kDecodeMerge;
  double best_cost = IntersectCostNs(a, b, best, model);
  const double gallop = IntersectCostNs(a, b, SetOpStrategy::kGallopProbe,
                                        model);
  if (gallop < best_cost) {
    best = SetOpStrategy::kGallopProbe;
    best_cost = gallop;
  }
  if (a.codec == b.codec) {
    const double compressed =
        IntersectCostNs(a, b, SetOpStrategy::kCompressed, model);
    if (compressed < best_cost) best = SetOpStrategy::kCompressed;
  }
  return best;
}

void PlannedIntersect(const TaggedSet& a, const TaggedSet& b,
                      SetOpStrategy strategy, const CostModel& model,
                      std::vector<uint32_t>* out) {
  if (strategy == SetOpStrategy::kAuto) {
    strategy = ChoosePairStrategy(a, b, model);
  } else if (strategy == SetOpStrategy::kCompressed && a.codec != b.codec) {
    // A forced compressed op has no cross-codec form; degrade to the SvS
    // probe, which keeps the larger side compressed.
    strategy = SetOpStrategy::kGallopProbe;
  }
  BumpStrategyCounter(strategy);
  // Estimate-vs-actual audit: priced only when a per-query explain capture
  // or the metrics registry is on; the plain path pays two relaxed loads.
  obs::ExplainScope scope("planner.pair");
  const bool audit =
      scope.active() || obs::MetricsRegistry::Global().Enabled();
  double est_ns = 0.0;
  uint64_t t0 = 0;
  if (audit) {
    est_ns = IntersectCostNs(a, b, strategy, model);
    if (scope.active()) {
      scope.AddStr("strategy", SetOpStrategyName(strategy));
      scope.AddStr("codec_a", a.codec->SetCodecName(*a.set));
      scope.AddStr("codec_b", b.codec->SetCodecName(*b.set));
      scope.AddUint("card_a", a.set->Cardinality());
      scope.AddUint("card_b", b.set->Cardinality());
      // The full alternative menu the chooser priced (estimates depend on
      // the host's kernel calibration, hence the _ns suffix so the
      // structural form stays run-independent).
      scope.AddDouble("est_merge_ns",
                      IntersectCostNs(a, b, SetOpStrategy::kDecodeMerge,
                                      model));
      scope.AddDouble("est_gallop_ns",
                      IntersectCostNs(a, b, SetOpStrategy::kGallopProbe,
                                      model));
      if (a.codec == b.codec) {
        scope.AddDouble("est_compressed_ns",
                        IntersectCostNs(a, b, SetOpStrategy::kCompressed,
                                        model));
      }
      scope.AddDouble("est_ns", est_ns);
    }
    t0 = NowNs();
  }
  switch (strategy) {
    case SetOpStrategy::kCompressed:
      a.codec->Intersect(*a.set, *b.set, out);
      break;
    case SetOpStrategy::kDecodeMerge: {
      std::vector<uint32_t> da, db;
      a.codec->Decode(*a.set, &da);
      b.codec->Decode(*b.set, &db);
      obs::ThreadOpCounters().bytes_decoded +=
          a.set->SizeInBytes() + b.set->SizeInBytes();
      out->clear();
      if (UseSimdKernels(GetKernelMode())) {
        SimdMergeIntersectInto(da, db, out);
      } else {
        ScalarMergeIntersectInto(da, db, out);
      }
      break;
    }
    case SetOpStrategy::kGallopProbe: {
      const TaggedSet* small = &a;
      const TaggedSet* large = &b;
      if (small->set->Cardinality() > large->set->Cardinality()) {
        std::swap(small, large);
      }
      std::vector<uint32_t> decoded;
      small->codec->Decode(*small->set, &decoded);
      obs::ThreadOpCounters().bytes_decoded += small->set->SizeInBytes();
      large->codec->IntersectWithList(*large->set, decoded, out);
      break;
    }
    case SetOpStrategy::kAuto:
      return;  // unreachable
  }
  if (audit) {
    const uint64_t act_ns = NowNs() - t0;
    if (scope.active()) {
      scope.AddUint("measured_ns", act_ns);
      scope.AddUint("rows", out->size());
    }
    RecordCostResidual(strategy, est_ns, act_ns);
  }
}

void PlannedIntersectSets(std::span<const TaggedSet> sets,
                          SetOpStrategy strategy, const CostModel& model,
                          ScratchArena* arena, std::vector<uint32_t>* out) {
  TRACE_SPAN("planner.intersect");
  obs::ScopedOpTimer timer("Planner", obs::OpKind::kPlannerQuery);
  obs::ThreadOpCounters().lists_touched += sets.size();
  std::vector<TaggedSet> order(sets.begin(), sets.end());
  (void)SvsIntersect(
      order, /*seeded=*/false,
      [strategy, &model](const TaggedSet& a, const TaggedSet& b,
                         std::vector<uint32_t>* o) {
        PlannedIntersect(a, b, strategy, model, o);
      },
      nullptr, arena, out);
}

}  // namespace intcomp::planner
