// Planner sweep (DESIGN.md §5.12): per-list codec choice vs. every single
// whole-index pool codec on the paper's three synthetic workloads, and the
// query-time strategy chooser vs. each fixed execution strategy.
//
//   planner_sweep --size=65536 --lists=8 --repeats=3
//     [--strategy=auto|compressed|merge|gallop] [--metrics-out=PATH]
//
// Space: the planner's total index size against each pool candidate run
// whole-index — the acceptance bound is best_single + one tag byte per
// list. Time: the same pairwise+k-way intersection workload under each
// strategy; `auto/best` is the chooser's overhead over the best fixed
// strategy for that workload (target <= 1.10).
//
// Metrics export: build encodes land in (Planner, planner_build) and every
// PlannedIntersectSets call in (Planner, planner_query) through the
// planner's own op timers. Deliberately no MeasureOpMs here: the auto
// strategy's kernel mix follows the host-calibrated cost model, so
// attributing kernel counters would make the perf baseline host-dependent.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/registry.h"
#include "core/scratch.h"
#include "core/set_ops.h"
#include "planner/planner_codec.h"
#include "planner/strategy.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

using planner::CostModel;
using planner::PlannerCodec;
using planner::SetOpStrategy;

struct Workload {
  const char* name;
  std::vector<std::vector<uint32_t>> lists;
};

// A density ramp per workload so each one mixes lists both codec families
// win: sparse lists for the list codecs, dense/clustered for the bitmaps.
std::vector<Workload> MakeWorkloads(uint64_t domain, size_t num_lists,
                                    uint64_t seed) {
  std::vector<Workload> workloads(3);
  workloads[0].name = "uniform";
  workloads[1].name = "zipf";
  workloads[2].name = "markov";
  for (size_t i = 0; i < num_lists; ++i) {
    const size_t lo = static_cast<size_t>(domain / 200);
    const size_t hi = static_cast<size_t>(domain / 3);
    const size_t n = std::max<size_t>(
        16, lo + i * (hi - lo) / std::max<size_t>(1, num_lists - 1));
    workloads[0].lists.push_back(GenerateUniform(n, domain, seed + i));
    workloads[1].lists.push_back(GenerateZipf(
        std::min<size_t>(n, static_cast<size_t>(domain / 4)), domain, 1.0,
        seed + 100 + i));
    workloads[2].lists.push_back(
        GenerateMarkov(n, domain, 32.0, seed + 200 + i));
  }
  return workloads;
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchMetrics metrics("planner_sweep", flags);
  ApplyKernelFlag(flags);
  const uint64_t domain = flags.GetInt("size", 65536);
  const size_t num_lists = flags.GetInt("lists", 8);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const uint64_t seed = flags.GetInt("seed", 23);
  const std::string strategy_flag = flags.GetString("strategy", "");

  std::vector<SetOpStrategy> strategies = {
      SetOpStrategy::kAuto, SetOpStrategy::kCompressed,
      SetOpStrategy::kDecodeMerge, SetOpStrategy::kGallopProbe};
  if (!strategy_flag.empty()) {
    SetOpStrategy only;
    if (!planner::ParseSetOpStrategy(strategy_flag, &only)) {
      std::fprintf(stderr, "unknown --strategy: %s\n", strategy_flag.c_str());
      std::exit(2);
    }
    strategies = {only};
  }

  const auto& codec = static_cast<const PlannerCodec&>(*FindCodec("Planner"));
  const CostModel& model = CostModel::Default();
  ScratchArena arena;

  std::printf("== planner_sweep: domain=%llu lists=%zu repeats=%d ==\n",
              static_cast<unsigned long long>(domain), num_lists, repeats);

  for (const Workload& w : MakeWorkloads(domain, num_lists, seed)) {
    // ----- space: planner vs. each whole-index pool codec -----
    std::vector<std::unique_ptr<CompressedSet>> planner_sets;
    size_t planner_bytes = 0;
    const double build_ms = MeasureMs(
        [&] {
          planner_sets.clear();
          planner_bytes = 0;
          for (const auto& list : w.lists) {
            planner_sets.push_back(codec.Encode(list, domain));
            planner_bytes += planner_sets.back()->SizeInBytes();
          }
        },
        repeats);

    std::printf("-- %s --\n", w.name);
    size_t best_single = SIZE_MAX;
    std::string best_name;
    for (const Codec* candidate : codec.pool()) {
      size_t total = 0;
      for (const auto& list : w.lists) {
        total += candidate->Encode(list, domain)->SizeInBytes();
      }
      if (total < best_single) {
        best_single = total;
        best_name = std::string(candidate->Name());
      }
      std::printf("  size %-16s %10.1f KB\n",
                  std::string(candidate->Name()).c_str(), total / 1024.0);
    }
    std::map<std::string, size_t> choices;
    for (const auto& set : planner_sets) {
      ++choices[std::string(codec.SetCodecName(*set))];
    }
    std::printf("  size %-16s %10.1f KB  (best single: %s; bound %s; "
                "build %.2f ms)\n",
                "Planner", planner_bytes / 1024.0, best_name.c_str(),
                planner_bytes <= best_single + planner_sets.size() ? "OK"
                                                                   : "MISS",
                build_ms);
    std::printf("  choices:");
    for (const auto& [name, count] : choices) {
      std::printf(" %s=%zu", name.c_str(), count);
    }
    std::printf("\n");

    // ----- time: the strategy chooser vs. each fixed strategy -----
    // The measured workload: every adjacent pair plus one k-way SvS over
    // all lists, through the inner (per-list chosen) codecs — the mixed-
    // codec boundary the planner creates inside one index.
    std::vector<TaggedSet> tagged;
    for (const auto& set : planner_sets) {
      const auto& ps = static_cast<const PlannerCodec::Set&>(*set);
      tagged.push_back({ps.codec, ps.inner.get()});
    }
    double auto_ms = 0, best_fixed_ms = 0;
    std::string best_fixed_name;
    for (SetOpStrategy strategy : strategies) {
      std::vector<uint32_t> out;
      const double ms = MeasureMs(
          [&] {
            for (size_t i = 0; i + 1 < tagged.size(); ++i) {
              const std::vector<TaggedSet> pair = {tagged[i], tagged[i + 1]};
              planner::PlannedIntersectSets(pair, strategy, model, &arena,
                                            &out);
            }
            planner::PlannedIntersectSets(tagged, strategy, model, &arena,
                                          &out);
          },
          repeats);
      std::printf("  time %-16s %10.2f ms\n",
                  std::string(planner::SetOpStrategyName(strategy)).c_str(),
                  ms);
      if (strategy == SetOpStrategy::kAuto) {
        auto_ms = ms;
      } else if (best_fixed_name.empty() || ms < best_fixed_ms) {
        best_fixed_ms = ms;
        best_fixed_name = std::string(planner::SetOpStrategyName(strategy));
      }
    }
    if (auto_ms > 0 && !best_fixed_name.empty()) {
      std::printf("  auto_vs_best=%.3f vs %s (target <= 1.10)\n",
                  auto_ms / best_fixed_ms, best_fixed_name.c_str());
    }
  }

  PrintPaperShape(
      "per-list codec choice tracks the best single codec per workload "
      "(never worse than best-single + one tag byte per list) while no "
      "fixed codec wins all three; the cost-model chooser stays within a "
      "few percent of the best fixed execution strategy on each workload "
      "without knowing it in advance");
}

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  intcomp::Run(argc, argv);
  return 0;
}
