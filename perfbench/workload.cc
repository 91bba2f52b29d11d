#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "service/plan_text.h"
#include "workload/synthetic.h"

namespace perfbench {

using intcomp::Prng;
using intcomp::QueryPlan;

uint64_t Dataset::Postings() const {
  uint64_t n = 0;
  for (const auto& l : lists) n += l.size();
  return n;
}

Dataset MakeDataset(uint64_t seed, uint64_t num_rows, size_t num_lists) {
  Dataset d;
  d.num_rows = num_rows;
  Prng rng(seed);
  const double rows = static_cast<double>(num_rows);
  for (size_t l = 0; l < num_lists; ++l) {
    // Size and shape are fixed by the list id; only the contents follow the
    // seed, so every seed yields an index of the same make-up.
    const size_t band = l % 8;
    const double pos = static_cast<double>((l / 8) % 5) / 4;  // 0..1
    double lo, hi;
    if (band < 2) {
      lo = rows / 8, hi = rows / 4;
    } else if (band < 5) {
      lo = rows / 64, hi = rows / 16;
    } else {
      lo = rows / 4096, hi = rows / 256;
    }
    const size_t n = std::max<size_t>(1, static_cast<size_t>(lo + pos * (hi - lo)));
    const uint64_t list_seed = rng.Next();
    switch ((l / 8 + band) % 3) {
      case 0:
        d.lists.push_back(intcomp::GenerateUniform(n, num_rows, list_seed));
        break;
      case 1:
        d.lists.push_back(intcomp::GenerateZipf(n, num_rows,
                                                intcomp::kPaperZipfSkew,
                                                list_seed));
        break;
      default:
        d.lists.push_back(intcomp::GenerateMarkov(
            n, num_rows, intcomp::kPaperMarkovClustering, list_seed));
    }
    // The markov generator may run past the domain; an index holds only
    // rows below num_rows.
    auto& list = d.lists.back();
    list.erase(std::lower_bound(list.begin(), list.end(), num_rows), list.end());
  }
  return d;
}

namespace {

size_t PickBand(size_t num_lists, size_t first, size_t count, Prng* rng) {
  // A list id whose band (id % 8) lies in [first, first + count).
  const size_t groups = num_lists / 8;
  return 8 * rng->NextBounded(groups) + first + rng->NextBounded(count);
}

QueryPlan OrOf(size_t terms, size_t num_lists, Prng* rng) {
  std::vector<QueryPlan> kids;
  for (size_t i = 0; i < terms; ++i) {
    kids.push_back(QueryPlan::Leaf(PickBand(num_lists, 0, 5, rng)));
  }
  return QueryPlan::Or(std::move(kids));
}

}  // namespace

PlanPool MakePlans(PlanClass cls, size_t count, size_t num_lists, Prng* rng,
                   bool selective) {
  PlanPool pool;
  for (size_t i = 0; i < count; ++i) {
    QueryPlan plan;
    if (cls == kLight) {
      if (rng->NextBounded(32) == 0) {
        plan = QueryPlan::Leaf(PickBand(num_lists, 5, 3, rng));
      } else {
        std::vector<QueryPlan> kids;
        kids.push_back(QueryPlan::Leaf(PickBand(num_lists, 5, 3, rng)));
        const size_t more = 1 + rng->NextBounded(2);
        for (size_t k = 0; k < more; ++k) {
          kids.push_back(QueryPlan::Leaf(PickBand(num_lists, 0, 5, rng)));
        }
        plan = QueryPlan::And(std::move(kids));
      }
    } else {
      if (rng->NextBounded(2) == 0) {
        plan = QueryPlan::And({OrOf(2 + rng->NextBounded(2), num_lists, rng),
                               OrOf(2 + rng->NextBounded(2), num_lists, rng)});
      } else {
        const size_t width = 4 + rng->NextBounded(4);
        const size_t lo = rng->NextBounded(num_lists - width);
        std::vector<QueryPlan> kids;
        for (size_t c = lo; c < lo + width; ++c) kids.push_back(QueryPlan::Leaf(c));
        plan = QueryPlan::And({QueryPlan::Or(std::move(kids)),
                               QueryPlan::Leaf(PickBand(num_lists, 2, 3, rng))});
      }
      if (selective) {
        plan = QueryPlan::And(
            {std::move(plan), QueryPlan::Leaf(PickBand(num_lists, 5, 3, rng))});
      }
    }
    pool.texts.push_back(intcomp::PlanToText(plan));
    pool.plans.push_back(std::move(plan));
  }
  return pool;
}

namespace {

std::vector<uint32_t> Eval(const QueryPlan& plan, const Lists& lists,
                           std::span<const uint32_t> ids,
                           const Lists& overrides) {
  if (plan.op == QueryPlan::Op::kLeaf) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] == plan.leaf) return overrides[i];
    }
    return lists[plan.leaf];
  }
  std::vector<uint32_t> acc = Eval(plan.children[0], lists, ids, overrides);
  for (size_t c = 1; c < plan.children.size(); ++c) {
    const std::vector<uint32_t> next =
        Eval(plan.children[c], lists, ids, overrides);
    std::vector<uint32_t> merged;
    if (plan.op == QueryPlan::Op::kAnd) {
      std::set_intersection(acc.begin(), acc.end(), next.begin(), next.end(),
                            std::back_inserter(merged));
    } else {
      std::set_union(acc.begin(), acc.end(), next.begin(), next.end(),
                     std::back_inserter(merged));
    }
    acc.swap(merged);
  }
  return acc;
}

}  // namespace

std::vector<uint32_t> Oracle(const QueryPlan& plan, const Lists& lists) {
  return Eval(plan, lists, {}, {});
}

std::vector<uint32_t> OracleWith(const QueryPlan& plan, const Lists& lists,
                                 std::span<const uint32_t> override_ids,
                                 const Lists& overrides) {
  return Eval(plan, lists, override_ids, overrides);
}

void CollectLeaves(const QueryPlan& plan, std::vector<size_t>* out) {
  if (plan.op == QueryPlan::Op::kLeaf) {
    out->push_back(plan.leaf);
    return;
  }
  for (const QueryPlan& c : plan.children) CollectLeaves(c, out);
}

Zipf::Zipf(size_t n, double skew) : cdf_(n) {
  double total = 0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), skew);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Pick(Prng* rng) const {
  const double u = rng->NextDouble();
  return std::min<size_t>(
      cdf_.size() - 1,
      std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

void InsertRows(std::vector<uint32_t>* list, std::span<const uint32_t> rows) {
  std::vector<uint32_t> merged;
  merged.reserve(list->size() + rows.size());
  std::set_union(list->begin(), list->end(), rows.begin(), rows.end(),
                 std::back_inserter(merged));
  list->swap(merged);
}

void RemoveRows(std::vector<uint32_t>* list, std::span<const uint32_t> rows) {
  std::vector<uint32_t> kept;
  kept.reserve(list->size());
  std::set_difference(list->begin(), list->end(), rows.begin(), rows.end(),
                      std::back_inserter(kept));
  list->swap(kept);
}

}  // namespace perfbench
