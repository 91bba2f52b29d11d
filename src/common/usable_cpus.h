// How many CPUs this process may run on.

#ifndef INTCOMP_COMMON_USABLE_CPUS_H_
#define INTCOMP_COMMON_USABLE_CPUS_H_

#include <cstddef>

namespace intcomp {

// The calling thread's affinity mask, which taskset and container CPU sets
// narrow, unlike std::thread::hardware_concurrency(). At least 1. Every
// "size to the machine" thread count (ThreadPool(0), ShardedIndex::Build)
// comes from here.
size_t UsableCpus();

}  // namespace intcomp

#endif  // INTCOMP_COMMON_USABLE_CPUS_H_
