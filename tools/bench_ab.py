#!/usr/bin/env python3
"""Paired A/B comparison of two perfbench_stack builds.

    python3 tools/bench_ab.py A_BIN B_BIN --workload W --seeds 21 22 ... \\
        --seconds S

Runs the two binaries untraced (--trace 0) once per seed, in ABBA order (the
first pair runs A then B, the next B then A, and so on), so slow drifts of
the host's speed fall on both sides alike. Each run's last stdout line is
its JSON result; a run that exits non-zero or reports correct=false stops
the comparison. Per end-to-end metric the script prints both sides' median,
each side's quartiles, the median of the per-pair ratios B/A, a
distribution-free 95% interval for that median (sign-test order statistics;
needs at least 6 pairs), the number of pairs B won, where "better" comes
from BENCHMARK.json, and whether the medians differ by more than A's
interquartile range. It also reports whether A and B printed the same
planned-tx checksum line for every seed. TN_NUM_THREADS is pinned as
perfbench/run.py pins it.

Build each side from a clean tree of its commit, e.g.

    git archive COMMIT | tar -x -C /tmp/side
    cmake -S /tmp/side/perfbench -B /tmp/side-build -DCMAKE_BUILD_TYPE=Release
    cmake --build /tmp/side-build --target perfbench_stack
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MAX_THREADS = 4  # perfbench/run.py's pin
RUN_TIMEOUT_S = 600


def median(xs):
    s = sorted(xs)
    n = len(s)
    if n == 0:
        raise ValueError("median of nothing")
    mid = n // 2
    return s[mid] if n % 2 else 0.5 * (s[mid - 1] + s[mid])


def quartiles(xs):
    """(q1, q3) of xs, interpolating between order statistics."""
    if len(xs) < 2:
        return (xs[0], xs[0])
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return (q1, q3)


def binom_cdf_half(k, n):
    """P(X <= k) for X ~ Binomial(n, 1/2)."""
    if k < 0:
        return 0.0
    return sum(math.comb(n, i) for i in range(min(k, n) + 1)) / 2.0 ** n


def median_interval(xs, level=0.95):
    """Distribution-free interval for the median of xs.

    Returns (lo, hi, coverage): the order statistics x_(k) and x_(n+1-k)
    (1-based) for the largest k whose exact sign-test coverage
    1 - 2 P(Binomial(n, 1/2) <= k - 1) is at least `level`, or None when
    even k = 1 falls short (fewer than 6 values at 95%).
    """
    s = sorted(xs)
    n = len(s)
    best = None
    for k in range(1, n // 2 + 1):
        coverage = 1.0 - 2.0 * binom_cdf_half(k - 1, n)
        if coverage < level:
            break
        best = (s[k - 1], s[n - k], coverage)
    return best


def directions():
    """metric -> "higher" / "lower", from BENCHMARK.json's end-to-end list."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def run_once(binary, workload, seed, seconds, env):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.exit("bench_ab: %s printed no JSON result (exit %d)" %
                 (binary, proc.returncode))
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit("bench_ab: %s seed %d failed its checks (exit %d)" %
                 (binary, seed, proc.returncode))
    checksum = next((l for l in lines if l.startswith("checksum ")), None)
    return {k: v["value"] for k, v in result["metrics"].items()}, checksum


def summarize(pairs, better):
    """Rows (metric, median A, quartiles A, median B, quartiles B, ratio,
    interval, wins) for pairs of (a_metrics, b_metrics) dicts."""
    rows = []
    for name in pairs[0][0]:
        a = [p[0][name] for p in pairs]
        b = [p[1][name] for p in pairs]
        ratios = [y / x if x else math.inf for x, y in zip(a, b)]
        if better.get(name) == "lower":
            wins = sum(y < x for x, y in zip(a, b))
        else:
            wins = sum(y > x for x, y in zip(a, b))
        rows.append((name, median(a), quartiles(a), median(b), quartiles(b),
                     median(ratios), median_interval(ratios), wins))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("a_bin")
    ap.add_argument("b_bin")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args()

    threads = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    env = dict(os.environ, TN_NUM_THREADS=str(threads))
    better = directions()
    pairs = []
    same_checksums = True
    for i, seed in enumerate(args.seeds):
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        got = {}
        for side in order:
            binary = args.a_bin if side == "A" else args.b_bin
            got[side] = run_once(binary, args.workload, seed, args.seconds,
                                 env)
        same_checksums &= got["A"][1] == got["B"][1]
        pairs.append((got["A"][0], got["B"][0]))
        print("pair %d seed %d (%s%s): %s" % (
            i + 1, seed, order[0], order[1], "  ".join(
                "%s %.4g/%.4g" % (k, got["A"][0][k], got["B"][0][k])
                for k in got["A"][0])), flush=True)

    n = len(pairs)
    print("\n%s, %d pairs of %g s, ratio = B/A per pair" %
          (args.workload, n, args.seconds))
    print("%-14s %30s %30s %7s %16s %6s %s" %
          ("metric", "A median [q1, q3]", "B median [q1, q3]", "ratio",
           "95% interval", "B won", "|B-A| > IQR(A)"))
    for name, ma, qa, mb, qb, r, ci, wins in summarize(pairs, better):
        interval = ("[%.3f, %.3f]" % (ci[0], ci[1]) if ci
                    else "(n < 6: none)")
        print("%-14s %30s %30s %7.3f %16s %3d/%d %s" % (
            name, "%.5g [%.5g, %.5g]" % (ma, qa[0], qa[1]),
            "%.5g [%.5g, %.5g]" % (mb, qb[0], qb[1]), r, interval, wins, n,
            "yes" if abs(mb - ma) > qa[1] - qa[0] else "no"))
    print("checksums: %s" % ("equal in every pair" if same_checksums
                             else "DIFFER in some pair"))
    return 0 if same_checksums else 1


if __name__ == "__main__":
    sys.exit(main())
