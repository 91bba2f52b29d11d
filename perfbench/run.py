#!/usr/bin/env python3
"""Repository benchmark: build the intcomp library and benchmark from source,
then run one workload.

    python3 perfbench/run.py --workload serve_hot|serve_cold|ingest_mix \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root; scratch files of a run go under the
same directory and are removed afterwards, and the traced run's spans are
written to <build dir>/perfbench-traces/. The last line of standard output
is the run's JSON result; the exit code is 0 only when every correctness,
durability and census check passed.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "serve_cold", "ingest_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log(f"library sources not found at {os.path.join(ROOT, 'src')}")
        return 2

    out_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_root = os.path.join(ROOT, out_root)
    binary = build(os.path.join(out_root, "perfbench"))
    if binary is None:
        return 1

    work = os.path.join(out_root, "perfbench-work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(out_root, "perfbench-traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--work-dir={work}", f"--trace-dir={traces}"]
    start = time.monotonic()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s and was killed")
        code = 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log(f"{args.workload} seed {args.seed} finished in "
        f"{time.monotonic() - start:.1f} s with exit code {code}")
    return code


if __name__ == "__main__":
    sys.exit(main())
