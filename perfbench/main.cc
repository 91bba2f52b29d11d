// The repository benchmark's binary. run.py builds and invokes it:
//
//   perfbench --workload=serve_hot|serve_cold|ingest_mix --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR --trace-dir=DIR
//
// It prints progress, census and check lines, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace=0, the per-layer metrics with --trace=1. It exits 1
// when any correctness, durability or census check failed.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util.h"
#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.workload = "";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-dir") {
      args.trace_dir = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (args.work_dir.empty() || args.trace_dir.empty() || args.seconds <= 0 ||
      (args.workload != "serve_hot" && args.workload != "serve_cold" &&
       args.workload != "ingest_mix")) {
    std::fprintf(stderr, "usage: perfbench --workload=serve_hot|serve_cold|"
                         "ingest_mix --seed=N --seconds=S --trace=0|1 "
                         "--work-dir=DIR --trace-dir=DIR\n");
    return 2;
  }
  perfbench::Report report;
  double single = 0;
  const double speedup = perfbench::HostParallelSpeedup(&single);
  std::printf("host.parallel_speedup %.3f x (%d busy loops vs 1 at %.1f M/s)\n",
              speedup, perfbench::HostCpus(), single);
  if (args.workload == "ingest_mix") {
    perfbench::RunIngest(args, &report);
  } else {
    perfbench::RunServe(args, &report);
  }
  if (args.trace) report.Metric("host.parallel_speedup", speedup, "x");
  std::printf("%s\n", report.ResultJson().c_str());
  std::fflush(stdout);
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
