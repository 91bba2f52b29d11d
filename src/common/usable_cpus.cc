#include "common/usable_cpus.h"

#include <sched.h>

#include <algorithm>
#include <thread>

namespace intcomp {

size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace intcomp
