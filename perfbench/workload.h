// Seeded inputs for the benchmark: posting lists, plan pools with a light
// and a heavy class, and the oracle that evaluates plans over the raw lists.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/prng.h"
#include "core/query.h"

namespace perfbench {

using Lists = std::vector<std::vector<uint32_t>>;

// Lists come in three density bands by id (l % 8): 0-1 dense (1/8 to 1/4 of
// the rows), 2-4 medium (1/64 to 1/16), 5-7 sparse (1/4096 to 1/256), each
// drawn uniform, zipf or markov-clustered so the planner's pool of bitmap
// and list codecs all get chosen.
struct Dataset {
  uint64_t num_rows = 0;
  Lists lists;
  uint64_t Postings() const;
};
Dataset MakeDataset(uint64_t seed, uint64_t num_rows, size_t num_lists);

enum PlanClass : uint8_t { kLight = 0, kHeavy = 1 };

// A pool of plans of one class. Light plans are a single sparse leaf (one
// in 32, so repeats stay rare) or an AND of two or three leaves with at
// least one sparse. Heavy plans are an
// AND of two ORs over dense and medium lists, or a range-OR over four to
// seven consecutive list ids ANDed with a medium list. `selective` ANDs
// every heavy plan with one more sparse leaf: the same evaluation work for
// a small result.
struct PlanPool {
  std::vector<intcomp::QueryPlan> plans;
  std::vector<std::string> texts;
};
PlanPool MakePlans(PlanClass cls, size_t count, size_t num_lists,
                   intcomp::Prng* rng, bool selective = false);

// Evaluates `plan` over sorted row lists with plain merges.
std::vector<uint32_t> Oracle(const intcomp::QueryPlan& plan,
                             const Lists& lists);
// Same, with some lists replaced: `overrides[i]` stands in for list
// `override_ids[i]`.
std::vector<uint32_t> OracleWith(const intcomp::QueryPlan& plan,
                                 const Lists& lists,
                                 std::span<const uint32_t> override_ids,
                                 const Lists& overrides);
void CollectLeaves(const intcomp::QueryPlan& plan, std::vector<size_t>* out);

// Zipf rank sampler: P(rank r) proportional to 1/(r+1)^skew.
class Zipf {
 public:
  Zipf(size_t n, double skew);
  size_t Pick(intcomp::Prng* rng) const;

 private:
  std::vector<double> cdf_;
};

// Sorted-vector set updates used by the writers' models.
void InsertRows(std::vector<uint32_t>* list, std::span<const uint32_t> rows);
void RemoveRows(std::vector<uint32_t>* list, std::span<const uint32_t> rows);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
