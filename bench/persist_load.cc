// Cold-load strategies for a persisted sharded index: rebuild the index
// from its raw postings vs. mmap a container file (src/storage) with eager
// or lazy validation. Reports, per codec: container size, each strategy's
// load time, and the time-to-first-result (load + one AND query), plus the
// zero-copy share of materialized payloads.
//
//   persist_load --codecs=WAH,Roaring,List --size=1000000 --lists=12
//     --shards=8 --repeats=3 [--metrics-out=PATH]
//
// The open timings land in the (codec, storage_open) histograms and the
// first-query timings in (codec, service_query), so the CI perf gate can
// hold the cold-load latency profile against tools/perf_baseline/.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/thread_pool.h"
#include "service/sharded_index.h"
#include "storage/index_writer.h"
#include "storage/mapped_index.h"
#include "workload/synthetic.h"

namespace intcomp {
namespace {

using storage::MappedIndex;
using storage::MappedIndexOptions;
using storage::ValidateMode;

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    if (comma > pos) out.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  return out;
}

double OpenMs(const std::string& path, ValidateMode mode,
              std::string_view codec, int repeats) {
  MappedIndexOptions options;
  options.validate = mode;
  return MeasureOpMs(codec, obs::OpKind::kStorageOpen,
                     [&] {
                       auto mapped = MappedIndex::Open(path, options);
                       if (!mapped.ok()) {
                         std::fprintf(stderr, "open failed: %s\n",
                                      mapped.status().ToString().c_str());
                         std::exit(1);
                       }
                     },
                     repeats);
}

// Load (or rebuild) + one AND query: the cold-start metric a serving
// process restart actually pays.
double TimeToFirstResultMs(const std::function<const IndexSnapshot*()>& load,
                           const QueryPlan& plan, std::string_view codec,
                           ThreadPool* pool, int repeats) {
  return MeasureOpMs(codec, obs::OpKind::kServiceQuery,
                     [&] {
                       const IndexSnapshot* snapshot = load();
                       IndexServiceOptions options;
                       options.cache_enabled = false;
                       IndexService service(snapshot, pool, options);
                       std::vector<uint32_t> rows;
                       const Status st = service.Query(plan, &rows);
                       if (!st.ok()) {
                         std::fprintf(stderr, "query failed: %s\n",
                                      st.ToString().c_str());
                         std::exit(1);
                       }
                     },
                     repeats);
}

void Run(int argc, char** argv) {
  Flags flags(argc, argv);
  BenchMetrics metrics("persist_load", flags);
  ApplyKernelFlag(flags);
  const size_t rows = flags.GetInt("size", 1000000);
  const size_t num_lists = flags.GetInt("lists", 12);
  const size_t shards = flags.GetInt("shards", 8);
  const int repeats = static_cast<int>(flags.GetInt("repeats", 3));
  const uint64_t seed = flags.GetInt("seed", 17);
  std::string path = flags.GetString("path", "");
  if (path.empty()) path = "/tmp/intcomp_persist_load.bin";
  const std::vector<std::string> codec_names =
      SplitCsv(flags.GetString("codecs", "WAH,EWAH,Roaring,List,VB,SIMDBP128"));

  // Postings: a size ramp from rows/50 to ~rows/5 so the container mixes
  // sparse and dense lists.
  std::vector<std::vector<uint32_t>> lists;
  for (size_t i = 0; i < num_lists; ++i) {
    const size_t n =
        std::max<size_t>(16, rows / 50 + i * (rows / 5 - rows / 50) /
                                     std::max<size_t>(1, num_lists - 1));
    lists.push_back(GenerateUniform(n, rows, seed + i));
  }
  const QueryPlan first_query =
      QueryPlan::And({QueryPlan::Leaf(0), QueryPlan::Leaf(num_lists - 1)});
  ThreadPool pool(flags.GetInt("threads", 4));

  std::printf("== persist_load: rows=%zu lists=%zu shards=%zu repeats=%d ==\n",
              rows, num_lists, shards, repeats);
  std::printf("%-14s %9s %10s %10s %10s %10s %10s %10s %6s\n", "codec",
              "file(MB)", "rebuild", "open-eag", "open-lazy", "tfr-reb",
              "tfr-eag", "tfr-lazy", "0copy");

  for (const std::string& name : codec_names) {
    const Codec* codec = FindCodec(name);
    if (codec == nullptr) {
      std::fprintf(stderr, "unknown codec: %s\n", name.c_str());
      std::exit(2);
    }
    const ShardedIndex index =
        ShardedIndex::Build(*codec, lists, rows, shards);
    if (!storage::WriteIndexFile(path, index).ok()) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      std::exit(1);
    }
    double file_mb = 0, zero_copy_pct = 0;
    {
      // Probe pass: size + zero-copy share; unmapped before the timed opens.
      auto probe = MappedIndex::Open(path);
      if (!probe.ok()) {
        std::fprintf(stderr, "container unreadable: %s\n",
                     probe.status().ToString().c_str());
        std::exit(1);
      }
      file_mb = ToMb((*probe)->FileBytes());
      zero_copy_pct =
          100.0 * static_cast<double>((*probe)->ZeroCopyPayloads()) /
          static_cast<double>((*probe)->MaterializedPayloads());
    }

    const double rebuild_ms = MeasureMs(
        [&] { ShardedIndex::Build(*codec, lists, rows, shards); }, repeats);
    const double eager_ms =
        OpenMs(path, ValidateMode::kEager, codec->Name(), repeats);
    const double lazy_ms =
        OpenMs(path, ValidateMode::kLazy, codec->Name(), repeats);

    // Time-to-first-result per strategy; each repeat loads from scratch so
    // lazy materialization cost is paid inside the measurement.
    std::unique_ptr<ShardedIndex> rebuilt;
    const double tfr_rebuild = TimeToFirstResultMs(
        [&]() -> const IndexSnapshot* {
          rebuilt = std::make_unique<ShardedIndex>(
              ShardedIndex::Build(*codec, lists, rows, shards));
          return rebuilt.get();
        },
        first_query, codec->Name(), &pool, repeats);
    std::unique_ptr<MappedIndex> mapped;
    const auto mmap_loader = [&](ValidateMode mode) {
      return [&, mode]() -> const IndexSnapshot* {
        MappedIndexOptions options;
        options.validate = mode;
        auto opened = MappedIndex::Open(path, options);
        if (!opened.ok()) {
          std::fprintf(stderr, "open failed: %s\n",
                       opened.status().ToString().c_str());
          std::exit(1);
        }
        mapped = std::move(opened.value());
        return mapped.get();
      };
    };
    const double tfr_eager = TimeToFirstResultMs(
        mmap_loader(ValidateMode::kEager), first_query, codec->Name(), &pool,
        repeats);
    const double tfr_lazy = TimeToFirstResultMs(
        mmap_loader(ValidateMode::kLazy), first_query, codec->Name(), &pool,
        repeats);

    std::printf("%-14s %9.2f %10.2f %10.2f %10.2f %10.2f %10.2f %10.2f %5.0f%%\n",
                name.c_str(), file_mb, rebuild_ms, eager_ms, lazy_ms,
                tfr_rebuild, tfr_eager, tfr_lazy, zero_copy_pct);
  }
  std::remove(path.c_str());
  PrintPaperShape(
      "mmap'ed cold loads skip the encode entirely; lazy validation makes "
      "time-to-first-result nearly independent of container size (only the "
      "touched lists are CRC-checked and parsed), while eager pays the full "
      "scan once and serves with zero corruption risk afterwards");
}

}  // namespace
}  // namespace intcomp

int main(int argc, char** argv) {
  intcomp::Run(argc, argv);
  return 0;
}
