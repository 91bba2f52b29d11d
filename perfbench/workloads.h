// The benchmark's workloads. Every rate, limit and size here is an absolute
// constant (BENCHMARK.json records them); nothing is derived from a run.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "util.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  std::string work_dir;   // scratch files (containers, WALs); removed after
  std::string trace_dir;  // where the traced run writes its spans
};

// serve_hot and serve_cold: ICP1 over loopback against a Planner-codec
// container opened lazily with MappedIndex.
void RunServe(const RunArgs& args, Report* report);
// ingest_mix: durable LiveIndex with an attached IndexService, one open-loop
// writer and one open-loop reader in process.
void RunIngest(const RunArgs& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
