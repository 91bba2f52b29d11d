#!/usr/bin/env python3
"""Validate and diff the JSONL metrics artifacts the benches emit.

Subcommands:

  check FILE...
      Structural validation: every line is a JSON object, the first line is
      the meta record, op_latency records carry the full quantile set with
      sane orderings (p50 <= p90 <= p99 <= p999, mean <= p999), counters are
      non-negative. Exit 1 on any violation.

  median RUN... [-o OUT]
      Merge N runs of the same bench into one canonical artifact: per-key
      median of every latency field, counters and counts required identical
      across runs (the bench workloads are seeded and deterministic). This
      is how the checked-in baselines under tools/perf_baseline/ are built.
      Timing-valued counters (planner.cost.residual.*, accumulated ns) are
      the exception: they merge by median like latencies.

  diff BASELINE CURRENT... [--tail-tolerance F] [--calibrate] [--min-ns N]
                           [--attribute]
      Regression gate against a checked-in baseline. CURRENT may be several
      runs; their per-key medians are compared (median-of-3 is what the CI
      job uses — single-run p99 on a shared runner is scheduler noise).
      Gates, all exit-1:
        * the (codec, op) key sets must match exactly,
        * per-key sample counts must match exactly (a drift means the bench
          changed without the baseline being regenerated),
        * engine.* counters must match exactly (same determinism argument),
        * per-codec kernel-counter totals must match exactly; the
          scalar/simd split is reported but not gated (it legitimately
          differs across hosts with different SIMD support),
        * tail regression: a key fails when BOTH its p90 and p99 exceed the
          baseline by more than --tail-tolerance (default 15%). A genuine
          tail regression shifts the whole upper tail; a lone p99 spike is
          an OS artifact, so requiring two quantiles kills the flakes
          without letting real regressions through. Under --calibrate a
          failing key also prints its absolute p50/p90/p99 (ns, current vs
          baseline).
      With --calibrate, latencies are first normalized by the file-wide
      median p50, cancelling overall machine speed — required when baseline
      and current come from different machines (CI vs. the baseline host).
      The host-speed probe key (host/host_probe, src/benchutil/host_probe.h)
      is not code under test: it is left out of that median and never
      gated, and its means are printed so a red run can be read against
      the host's speed at the time.
      Keys whose p99 delta is below --min-ns (default 2000 ns) are never
      flagged: at that scale histogram bucket width dominates.
      With --attribute, a per-stage (per-op) calibrated delta report names
      which stage moved — printed whenever a gate trips, and also on success
      so a near-miss can be eyeballed.

Record kinds: "meta", "op_latency", "counter", and "gauge" (point-in-time
occupancy such as cache bytes/entries/evictions — merged by median, reported,
never gated). An op name outside KNOWN_OPS is a hard error everywhere, with
the nearest known op suggested: new instrumentation sites must be registered
in KNOWN_OPS before the gates can reason about them.

The JSONL schema is produced by MetricsRegistry::ExportJsonl
(src/obs/metrics.cc); keep the two in sync.
"""

import argparse
import difflib
import json
import statistics
import sys

OP_LATENCY_KEYS = {"metric", "codec", "op", "count", "mean_ns", "p50_ns",
                   "p90_ns", "p99_ns", "p999_ns"}
QUANTILE_FIELDS = ("mean_ns", "p50_ns", "p90_ns", "p99_ns", "p999_ns")
KNOWN_OPS = {"intersect", "union", "decode", "deserialize_checked", "query",
             "service_query", "storage_open", "wal_append", "compaction",
             "planner_build", "planner_query", "net_request", "host_probe"}
# The host-speed probe (src/benchutil/host_probe.h): present in every
# artifact with --metrics-out, reported by diff, never gated.
HOST_PROBE_KEY = ("host", "host_probe")
KERNEL_FIELDS = {"scalar_merge", "simd_merge", "scalar_gallop", "simd_gallop",
                 "scalar_union", "simd_union", "block_probes"}


def unknown_op_error(path, lineno, op):
    """An op name outside KNOWN_OPS is always a hard error: it is either a
    typo (the nearest known op is suggested) or a new instrumentation site
    that must be registered here so the gates know about it."""
    hint = difflib.get_close_matches(op, sorted(KNOWN_OPS), n=1)
    suggestion = f"; did you mean {hint[0]!r}?" if hint else ""
    return SystemExit(
        f"{path}:{lineno}: unknown op {op!r}{suggestion} "
        "(new ops must be added to KNOWN_OPS in tools/perf_check.py)")


def load_jsonl(path):
    records = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise SystemExit(f"{path}:{lineno}: invalid JSON: {e}")
            if not isinstance(obj, dict):
                raise SystemExit(f"{path}:{lineno}: not a JSON object")
            records.append((lineno, obj))
    if not records:
        raise SystemExit(f"{path}: empty metrics file")
    return records


class Metrics:
    """Parsed view of one JSONL artifact."""

    def __init__(self, path):
        self.path = path
        self.meta = None
        self.latency = {}   # (codec, op) -> record
        self.counters = {}  # name -> value
        self.gauges = {}    # name -> value (occupancy; reported, never gated)
        for lineno, obj in load_jsonl(path):
            metric = obj.get("metric")
            if metric == "meta":
                self.meta = obj
            elif metric == "op_latency":
                if obj["op"] not in KNOWN_OPS:
                    raise unknown_op_error(path, lineno, obj["op"])
                self.latency[(obj["codec"], obj["op"])] = obj
            elif metric == "counter":
                self.counters[obj["name"]] = obj["value"]
            elif metric == "gauge":
                self.gauges[obj["name"]] = obj["value"]
            else:
                raise SystemExit(
                    f"{path}:{lineno}: unknown metric kind {metric!r}")

    def kernel_totals(self):
        """codec -> summed kernel counter, plus the per-kernel split."""
        totals, split = {}, {}
        for name, value in self.counters.items():
            if not name.startswith("kernel."):
                continue
            parts = name.split(".")
            if len(parts) != 3 or parts[2] not in KERNEL_FIELDS:
                raise SystemExit(
                    f"{self.path}: malformed kernel counter {name!r}")
            totals[parts[1]] = totals.get(parts[1], 0) + value
            split[name] = value
        return totals, split

    def calibration_scale(self):
        """Median p50 across the op_latency records under test (machine-speed
        proxy); the host probe is not one of them."""
        p50s = [r["p50_ns"] for k, r in self.latency.items()
                if k != HOST_PROBE_KEY]
        if not p50s:
            return 1.0
        med = statistics.median(p50s)
        return float(med) if med > 0 else 1.0


def is_timing_counter(name):
    """Counters whose value is accumulated wall time, not a work count.

    The planner's cost-audit stream (planner.cost.residual.*) sums
    estimated and measured nanoseconds per strategy; like latency it
    varies run to run, so it merges by median and is never required
    identical. Everything else (engine.*, kernel.*) counts deterministic
    work and must match exactly.
    """
    return name.startswith("planner.cost.residual.")


def merge_runs(runs):
    """Per-key median of the latency fields across runs of one bench.

    Counts and (non-timing) counters must be identical across runs
    (seeded workloads); any mismatch is a hard error because it means
    the runs are not comparable.
    """
    first = runs[0]
    keys = set(first.latency)

    def work_counters(m):
        return {k: v for k, v in m.counters.items()
                if not is_timing_counter(k)}

    for m in runs[1:]:
        if set(m.latency) != keys:
            raise SystemExit(f"{m.path}: latency keys differ from "
                             f"{first.path} — runs are not comparable")
        if work_counters(m) != work_counters(first):
            drift = sorted(set(work_counters(m).items()) ^
                           set(work_counters(first).items()))
            raise SystemExit(f"{m.path}: counters differ from {first.path} "
                             f"({len(drift)} entries) — nondeterministic "
                             "bench or mixed workloads")
    merged = Metrics.__new__(Metrics)
    merged.path = "+".join(m.path for m in runs)
    merged.meta = first.meta
    merged.counters = work_counters(first)
    timing_names = sorted(
        {k for m in runs for k in m.counters if is_timing_counter(k)})
    for name in timing_names:
        values = [m.counters[name] for m in runs if name in m.counters]
        merged.counters[name] = int(statistics.median(values))
    # Gauges are point-in-time occupancy (cache bytes/entries/evictions):
    # they may legitimately differ across runs under different eviction
    # timing, so they merge by median and are never gated.
    merged.gauges = {}
    for name in sorted(set().union(*(m.gauges for m in runs))):
        values = [m.gauges[name] for m in runs if name in m.gauges]
        merged.gauges[name] = int(statistics.median(values))
    merged.latency = {}
    for key in keys:
        counts = {m.latency[key]["count"] for m in runs}
        if len(counts) != 1:
            raise SystemExit(f"{key[0]}/{key[1]}: sample counts differ "
                             f"across runs {sorted(counts)}")
        rec = dict(first.latency[key])
        for field in QUANTILE_FIELDS:
            values = [m.latency[key][field] for m in runs]
            med = statistics.median(values)
            rec[field] = med if field == "mean_ns" else int(med)
        merged.latency[key] = rec
    return merged


def cmd_check(args):
    failures = 0

    def fail(path, msg):
        nonlocal failures
        failures += 1
        print(f"FAIL {path}: {msg}", file=sys.stderr)

    for path in args.files:
        records = load_jsonl(path)
        first = records[0][1]
        if first.get("metric") != "meta":
            fail(path, "first line is not the meta record")
        else:
            if not first.get("bench"):
                fail(path, "meta record missing bench name")
            if "trace_sampling" not in first:
                fail(path, "meta record missing trace_sampling")
        n_latency = n_counter = 0
        for lineno, obj in records[1:]:
            metric = obj.get("metric")
            if metric == "meta":
                fail(path, f"line {lineno}: duplicate meta record")
            elif metric == "op_latency":
                n_latency += 1
                missing = OP_LATENCY_KEYS - obj.keys()
                if missing:
                    fail(path, f"line {lineno}: missing keys {sorted(missing)}")
                    continue
                if obj["op"] not in KNOWN_OPS:
                    raise unknown_op_error(path, lineno, obj["op"])
                if obj["count"] <= 0:
                    fail(path, f"line {lineno}: count {obj['count']} <= 0")
                q = [obj["p50_ns"], obj["p90_ns"], obj["p99_ns"],
                     obj["p999_ns"]]
                if any(v < 0 for v in q) or q != sorted(q):
                    fail(path, f"line {lineno}: quantiles not monotone: {q}")
                # The histogram reports bucket upper bounds, so the mean can
                # sit below p50 but never above the p999 bound.
                if not (0 <= obj["mean_ns"] <= obj["p999_ns"] or
                        obj["p999_ns"] == 0):
                    fail(path, f"line {lineno}: mean {obj['mean_ns']} above "
                               f"p999 {obj['p999_ns']}")
            elif metric == "counter":
                n_counter += 1
                if "name" not in obj or "value" not in obj:
                    fail(path, f"line {lineno}: malformed counter")
                elif obj["value"] < 0:
                    fail(path, f"line {lineno}: negative counter")
            elif metric == "gauge":
                if "name" not in obj or "value" not in obj:
                    fail(path, f"line {lineno}: malformed gauge")
                elif obj["value"] < 0:
                    fail(path, f"line {lineno}: negative gauge")
            else:
                fail(path, f"line {lineno}: unknown metric {metric!r}")
        if n_latency == 0:
            fail(path, "no op_latency records")
        print(f"ok {path}: {n_latency} op_latency, {n_counter} counters")
    return 1 if failures else 0


def cmd_median(args):
    merged = merge_runs([Metrics(p) for p in args.runs])
    out = sys.stdout if args.output == "-" else open(
        args.output, "w", encoding="utf-8")
    meta = dict(merged.meta or {"metric": "meta", "bench": "unknown",
                                "trace_sampling": 0})
    print(json.dumps(meta, separators=(",", ":")), file=out)
    for (codec, op) in sorted(merged.latency):
        print(json.dumps(merged.latency[(codec, op)],
                         separators=(",", ":")), file=out)
    for name in sorted(merged.counters):
        print(json.dumps({"metric": "counter", "name": name,
                          "value": merged.counters[name]},
                         separators=(",", ":")), file=out)
    for name in sorted(merged.gauges):
        print(json.dumps({"metric": "gauge", "name": name,
                          "value": merged.gauges[name]},
                         separators=(",", ":")), file=out)
    if out is not sys.stdout:
        out.close()
        print(f"wrote median of {len(args.runs)} runs to {args.output}")
    return 0


def attribute_report(base, cur, base_scale, cur_scale):
    """Name the stage that moved: per-op calibrated p50/p99 deltas, worst
    first. A tail-gate failure says *that* something regressed; this says
    *where* — which pipeline stage (op) and which codec carries the shift,
    so the offending change can be found without re-profiling."""
    stages = {}  # op -> list of (delta_p50, delta_p99, codec, b50, c50)
    for key in sorted(set(base.latency) & set(cur.latency) - {HOST_PROBE_KEY}):
        b, c = base.latency[key], cur.latency[key]
        b50, c50 = b["p50_ns"] / base_scale, c["p50_ns"] / cur_scale
        b99, c99 = b["p99_ns"] / base_scale, c["p99_ns"] / cur_scale
        d50 = c50 / b50 - 1.0 if b50 > 0 else 0.0
        d99 = c99 / b99 - 1.0 if b99 > 0 else 0.0
        stages.setdefault(key[1], []).append((d50, d99, key[0], b50, c50))
    if not stages:
        return
    ranked = []
    for op, rows in stages.items():
        worst = max(rows, key=lambda r: max(r[0], r[1]))
        ranked.append((max(worst[0], worst[1]), op, worst))
    ranked.sort(reverse=True)
    print("attribution (per-stage calibrated deltas, worst codec shown):")
    for moved, op, (d50, d99, codec, b50, c50) in ranked:
        marker = "  <-- largest mover" if (moved, op) == (
            ranked[0][0], ranked[0][1]) and moved > 0 else ""
        print(f"  {op:<20} p50 {d50 * 100:+6.1f}%  p99 {d99 * 100:+6.1f}%  "
              f"({codec}: p50 {b50:.1f} -> {c50:.1f}){marker}")


def cmd_diff(args):
    base = Metrics(args.baseline)
    cur = merge_runs([Metrics(p) for p in args.current])
    failures = 0

    def fail(msg):
        nonlocal failures
        failures += 1
        print(f"FAIL: {msg}", file=sys.stderr)

    base_keys, cur_keys = set(base.latency), set(cur.latency)
    for k in sorted(base_keys - cur_keys):
        fail(f"{k[0]}/{k[1]}: present in baseline, missing in current")
    for k in sorted(cur_keys - base_keys):
        fail(f"{k[0]}/{k[1]}: new in current, not in baseline "
             "(regenerate tools/perf_baseline)")

    if HOST_PROBE_KEY in base_keys & cur_keys:
        bp = base.latency[HOST_PROBE_KEY]["mean_ns"]
        cp = cur.latency[HOST_PROBE_KEY]["mean_ns"]
        print(f"host probe mean: {cp / 1000:.1f} us vs baseline "
              f"{bp / 1000:.1f} us ({(cp / bp - 1) * 100:+.0f}%, not gated)")
    base_scale = base.calibration_scale() if args.calibrate else 1.0
    cur_scale = cur.calibration_scale() if args.calibrate else 1.0
    for key in sorted(base_keys & cur_keys - {HOST_PROBE_KEY}):
        b, c = base.latency[key], cur.latency[key]
        if b["count"] != c["count"]:
            fail(f"{key[0]}/{key[1]}: sample count {c['count']} != baseline "
                 f"{b['count']} (bench workload changed?)")
            continue
        if abs(c["p99_ns"] - b["p99_ns"]) < args.min_ns:
            continue
        b90, c90 = b["p90_ns"] / base_scale, c["p90_ns"] / cur_scale
        b99, c99 = b["p99_ns"] / base_scale, c["p99_ns"] / cur_scale
        limit = 1.0 + args.tail_tolerance
        if b90 > 0 and b99 > 0 and c90 > b90 * limit and c99 > b99 * limit:
            unit = "x median-p50" if args.calibrate else "ns"
            # Calibrated figures move with the file-wide median p50 too;
            # the absolute ones tell that drift from a real slowdown.
            absolute = ""
            if args.calibrate:
                absolute = (f"; absolute p50/p90/p99 "
                            f"{c['p50_ns']:.0f}/{c['p90_ns']:.0f}/"
                            f"{c['p99_ns']:.0f} vs {b['p50_ns']:.0f}/"
                            f"{b['p90_ns']:.0f}/{b['p99_ns']:.0f} ns")
            fail(f"{key[0]}/{key[1]}: tail regression — p90 {c90:.1f} vs "
                 f"{b90:.1f} {unit} (+{(c90 / b90 - 1) * 100:.0f}%), p99 "
                 f"{c99:.1f} vs {b99:.1f} {unit} "
                 f"(+{(c99 / b99 - 1) * 100:.0f}%), tolerance "
                 f"{args.tail_tolerance * 100:.0f}%{absolute}")

    for name in sorted(n for n in base.counters if n.startswith("engine.")):
        bv = base.counters[name]
        cv = cur.counters.get(name)
        if cv is None:
            fail(f"counter {name}: missing in current")
        elif cv != bv:
            fail(f"counter {name}: {cv} != baseline {bv}")

    base_totals, base_split = base.kernel_totals()
    cur_totals, cur_split = cur.kernel_totals()
    for codec in sorted(set(base_totals) | set(cur_totals)):
        bv, cv = base_totals.get(codec, 0), cur_totals.get(codec, 0)
        if bv != cv:
            fail(f"kernel total for {codec}: {cv} != baseline {bv}")
    if base_split != cur_split:
        drift = sorted(set(base_split.items()) ^ set(cur_split.items()))
        print(f"note: scalar/simd kernel split differs on {len(drift)} "
              "counters (not gated; host SIMD support may differ)")

    if args.attribute and failures:
        attribute_report(base, cur, base_scale, cur_scale)

    if failures == 0:
        n = len(base_keys & cur_keys - {HOST_PROBE_KEY})
        mode = "calibrated" if args.calibrate else "absolute"
        print(f"ok: {n} latency keys within {args.tail_tolerance * 100:.0f}% "
              f"({mode} p90+p99, median of {len(args.current)} runs), "
              "counters consistent")
        if args.attribute:
            attribute_report(base, cur, base_scale, cur_scale)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_check = sub.add_parser("check", help="structural validation")
    p_check.add_argument("files", nargs="+")
    p_check.set_defaults(func=cmd_check)

    p_median = sub.add_parser("median", help="merge runs into a baseline")
    p_median.add_argument("runs", nargs="+")
    p_median.add_argument("-o", "--output", default="-")
    p_median.set_defaults(func=cmd_median)

    p_diff = sub.add_parser("diff", help="regression gate vs a baseline")
    p_diff.add_argument("baseline")
    p_diff.add_argument("current", nargs="+")
    p_diff.add_argument("--tail-tolerance", type=float, default=0.15,
                        help="max relative p90/p99 regression (default 0.15)")
    p_diff.add_argument("--calibrate", action="store_true",
                        help="normalize by the file-wide median p50 "
                             "(cross-machine comparisons)")
    p_diff.add_argument("--min-ns", type=int, default=2000,
                        help="ignore p99 deltas below this many ns")
    p_diff.add_argument("--attribute", action="store_true",
                        help="print a per-stage delta report naming the op "
                             "that moved (always on failure; also on success "
                             "for eyeballing)")
    p_diff.set_defaults(func=cmd_diff)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
