#include "benchutil/host_probe.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/fast_clock.h"
#include "obs/metrics.h"

namespace intcomp {
namespace {

constexpr int kChainSteps = 1 << 13;
constexpr size_t kCopyBytes = 64 * 1024;
constexpr int kCopyPasses = 4;

// One probe unit: ~10 us of dependent xorshift steps plus four 64 KiB
// copies. The asm barriers keep the compiler from folding either half.
void ProbeUnit(std::vector<uint8_t>* src, std::vector<uint8_t>* dst) {
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < kChainSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    asm volatile("" : "+r"(x));
  }
  for (int pass = 0; pass < kCopyPasses; ++pass) {
    std::memcpy(dst->data(), src->data(), kCopyBytes);
    asm volatile("" : : "r"(dst->data()) : "memory");
    std::swap(*src, *dst);
  }
  (*src)[x % kCopyBytes] ^= static_cast<uint8_t>(x);
}

}  // namespace

uint64_t MeasureHostProbeNs() {
  std::vector<uint8_t> src(kCopyBytes, 1), dst(kCopyBytes, 2);
  ProbeUnit(&src, &dst);  // fault the pages in outside the timed runs
  uint64_t best = ~uint64_t{0};
  for (int rep = 0; rep < 3; ++rep) {
    const uint64_t t0 = NowNs();
    ProbeUnit(&src, &dst);
    best = std::min(best, NowNs() - t0);
  }
  return best;
}

void RecordHostProbe(int samples) {
  obs::LatencyHistogram* h = obs::MetricsRegistry::Global().OpLatency(
      kHostProbeCodec, obs::OpKind::kHostProbe);
  for (int i = 0; i < samples; ++i) h->Record(MeasureHostProbeNs());
}

}  // namespace intcomp
