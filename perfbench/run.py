#!/usr/bin/env python3
"""Build and run the end-to-end stack benchmark (README.md in this directory).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark binary, perfbench_stack, is built
from ../src with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); build output goes to stderr. The binary's standard
output is passed through, so the last line is its JSON result. Exits
non-zero, without a result, when the sources are missing or the build fails,
and non-zero with correct=false when a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("stack_mac", "stack_honeycomb", "router_sustained")
# Load comes from one process whose parallel layer is pinned at this many
# threads (or fewer, on a smaller host).
MAX_THREADS = 4
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR",
                          os.path.join(ROOT, ".bench_build"))
    return os.path.join(os.path.abspath(base), "perfbench")


def build(threads):
    if not os.path.isfile(
            os.path.join(ROOT, "src", "core", "balancing_router.h")):
        sys.exit("perfbench: ThetaNet sources not found in %s" %
                 os.path.join(ROOT, "src"))
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", str(threads),
                    "--target", "perfbench_stack"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench_stack")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    try:
        binary = build(threads)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    env = dict(os.environ, TN_NUM_THREADS=str(threads))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish in %d s" %
                 (args.workload, RUN_TIMEOUT_S))

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: perfbench_stack exited with %d and no result" %
                 proc.returncode)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0 if proc.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
