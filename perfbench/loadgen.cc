#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

void WaitUntil(int64_t due_ns) {
  // A plain sleep: a spinning waiter would take processor time from the
  // program it measures whenever the host gives fewer cores than vCPUs.
  const int64_t now = NowNs();
  if (due_ns > now) std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now));
}

std::vector<Outcome> RunPhase(const PhaseConfig& config, const Picker& pick,
                              const Sender& send) {
  intcomp::Prng rng(config.seed);
  const bool closed = config.rate <= 0;
  // The open-loop schedule (due time and plan of every request) is fixed
  // from the seed before the first send.
  std::vector<int64_t> due;
  std::vector<Outcome> outs;
  if (!closed) {
    double t = 0;
    while (true) {
      t += -std::log(1.0 - rng.NextDouble()) / config.rate;
      if (t >= config.seconds) break;
      due.push_back(static_cast<int64_t>(t * 1e9));
      Outcome o;
      o.plan = pick(&rng, &o.cls);
      outs.push_back(o);
    }
  }
  std::vector<std::vector<Outcome>> closed_outs(config.streams);
  std::atomic<size_t> next{0};
  const int64_t start = NowNs();
  const int64_t stop = start + static_cast<int64_t>(config.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < config.streams; ++s) {
    threads.emplace_back([&, s] {
      intcomp::Prng local(config.seed * 7919 + s);
      std::vector<uint32_t> rows;
      while (true) {
        Outcome* o;
        int64_t due_ns;
        if (closed) {
          due_ns = NowNs();
          if (due_ns >= stop) break;
          closed_outs[s].emplace_back();
          o = &closed_outs[s].back();
          o->plan = pick(&local, &o->cls);
        } else {
          const size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= outs.size()) break;
          o = &outs[i];
          due_ns = start + due[i];
          if (NowNs() < due_ns) {
            o->idle_before = true;
            WaitUntil(due_ns);
          }
        }
        const int64_t sent = NowNs();
        o->ok = send(s, o->plan, &rows, o);
        const int64_t done = NowNs();
        o->latency_ms = (done - due_ns) / 1e6;
        if (o->idle_before) o->slip_ms = (sent - due_ns) / 1e6;
        o->rows = rows.size();
        o->hash = HashRows(rows);
        Tracer* tr = config.tracer;
        if (tr != nullptr && tr->enabled()) {
          const uint64_t req = tr->NewId();
          const uint64_t root =
              tr->AddInterval("loadgen.request", 0, req, due_ns, done);
          tr->AddInterval("loadgen.queue", root, req, due_ns, sent);
          tr->AddInterval(config.call_span, root, req, sent, done);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  if (closed) {
    for (auto& v : closed_outs) outs.insert(outs.end(), v.begin(), v.end());
  }
  return outs;
}

Verdict JudgeStep(const std::vector<Outcome>& outs, double limit_ms, Pct* p99) {
  std::vector<double> lat;
  bool all_ok = true;
  for (const Outcome& o : outs) {
    all_ok = all_ok && o.ok;
    lat.push_back(o.latency_ms);
  }
  *p99 = Percentile(lat, 0.99);
  if (p99->beyond < 10) return Verdict::kUndecided;
  // A growing backlog shows as latency climbing from the first quarter of
  // the step (in schedule order) to the last.
  const size_t quarter = lat.size() / 4;
  const std::vector<double> first(lat.begin(), lat.begin() + quarter);
  const std::vector<double> last(lat.end() - quarter, lat.end());
  return all_ok && p99->value <= limit_ms && Mean(last) - Mean(first) <= limit_ms / 4
             ? Verdict::kPass
             : Verdict::kFail;
}

Capacity FindCapacity(const CapacityConfig& config, const Picker& pick,
                      const Sender& send, const Sink& sink) {
  constexpr int kSteps = 4;
  // Expected requests per step: about 12 beyond the p99, so a Poisson
  // shortfall rarely leaves a step undecided.
  constexpr double kStepRequests = 1200;
  PhaseConfig phase = config.phase;
  phase.rate = 0;
  phase.seconds = config.min_step_seconds;
  std::vector<Outcome> outs = RunPhase(phase, pick, send);
  sink(outs);
  const double saturation = outs.size() / phase.seconds;
  double lo = 0.6 * saturation, hi = 1.4 * saturation;
  std::printf("capacity closed-loop %.1f qps over %zu streams\n", saturation,
              phase.streams);
  Capacity result;
  uint64_t seed = config.phase.seed;
  for (int step = 0; step < kSteps; ++step) {
    phase.rate = std::sqrt(lo * hi);
    phase.seconds = std::max(config.min_step_seconds, kStepRequests / phase.rate);
    // A failed step is run again and counts only if it fails twice, so one
    // burst of host noise cannot pull the bracket down.
    Verdict verdict = Verdict::kFail;
    for (int attempt = 0; attempt < 2 && verdict != Verdict::kPass; ++attempt) {
      phase.seed = seed += 101;
      outs = RunPhase(phase, pick, send);
      sink(outs);
      Pct p99;
      verdict = JudgeStep(outs, config.limit_ms, &p99);
      result.undecided += verdict == Verdict::kUndecided;
      std::printf("capacity step %.1f qps %.2f s n=%zu p99 %.3f ms (%zu beyond) -> %s\n",
                  phase.rate, phase.seconds, p99.n, p99.value, p99.beyond,
                  verdict == Verdict::kPass   ? "pass"
                  : verdict == Verdict::kFail ? "fail"
                                              : "undecided");
    }
    (verdict == Verdict::kPass ? lo : hi) = phase.rate;
  }
  result.qps = std::sqrt(lo * hi);
  return result;
}

double TraceOverhead(PhaseConfig phase, int pairs, const Picker& pick,
                     const Sender& send, const Sink& sink) {
  std::vector<double> lat[2];  // [untraced, traced]
  for (int i = 0; i < 2 * pairs; ++i) {
    const int traced = i % 2;
    phase.tracer->SetEnabled(traced);
    phase.seed += 1;
    const std::vector<Outcome> outs = RunPhase(phase, pick, send);
    phase.tracer->SetEnabled(false);
    sink(outs);
    for (const Outcome& o : outs) lat[traced].push_back(o.latency_ms);
  }
  const double untraced = Median(lat[0]), traced = Median(lat[1]);
  std::printf("trace overhead: median latency untraced %.4f ms (n=%zu), "
              "traced %.4f ms (n=%zu)\n",
              untraced, lat[0].size(), traced, lat[1].size());
  return traced / untraced - 1.0;
}

}  // namespace perfbench
