#!/usr/bin/env python3
"""Layered wall-clock benchmark of the SoftBound reproduction.

Builds the wallbench binary (and the library it measures) from this
checkout's sources, then runs one workload:

    python3 wallbench/run.py --workload kernels|verdicts|traffic \
        --seed N --seconds S --trace 0|1

Run it from the root of the checkout. Build output goes to
.bench_build/wallbench; a traced run also writes its Chrome trace to
.bench_build/wallbench/traces/. The last line of standard output is the
JSON result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. See wallbench/README.md for what each workload and metric means.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
WORKLOADS = ("kernels", "verdicts", "traffic")
RUN_TIMEOUT_S = 170


def build():
    """Configures (a no-op once configured), then builds incrementally;
    False on any failure."""
    log = sys.stderr
    configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=log, stderr=log).returncode:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=log, stderr=log).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        print("wallbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(BUILD_DIR, "wallbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--expected", os.path.join(HERE, "expected")]
    if args.trace:
        traces = os.path.join(BUILD_DIR, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("wallbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
