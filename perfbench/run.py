#!/usr/bin/env python3
"""The repo benchmark: build the simulator from source, run one workload.

    python3 perfbench/run.py --workload serve_mix|cube10 --seed N \\
        --seconds S --trace 0|1

The first run configures and builds perfbench/ (which compiles ../src) into
.bench_build/perfbench; later runs rebuild incrementally. Build output goes
to stderr, so the last line of stdout is the benchmark's JSON result.
--trace 1 also writes the run's spans to
.bench_build/perfbench/traces/<workload>-seed<N>.json.

Exits non-zero without a result when the simulator sources are missing, the
build fails, or the run fails or exceeds its time limit.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("serve_mix", "cube10")
RUN_TIMEOUT_S = 175


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources next to perfbench/ "
                 "(expected src/CMakeLists.txt)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for perfbench/test_perfbench.py")
    ap.add_argument("--inject", choices=("dump", "events"),
                    help="corrupt one result; the checks must catch it")
    args = ap.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.smoke:
        cmd.append("--smoke")
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
