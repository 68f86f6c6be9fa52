#!/usr/bin/env python3
"""Self-test for bench_ab.py's statistics, runnable standalone or via ctest.

Checks the median, the sign-test interval (its order statistics and exact
coverage against textbook values) and the per-metric summary on synthetic
ratios; no benchmark binary is run. `python3 bench_ab_selftest.py` runs
every test_* function and exits nonzero on the first failure.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_ab  # noqa: E402


def close(a, b, tol=1e-12):
    return abs(a - b) <= tol


def test_median_odd_and_even():
    assert bench_ab.median([3.0, 1.0, 2.0]) == 2.0
    assert bench_ab.median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_quartiles_interpolate():
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert bench_ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 3.25)
    assert bench_ab.quartiles([7.0]) == (7.0, 7.0)


def test_binomial_cdf():
    assert close(bench_ab.binom_cdf_half(-1, 6), 0.0)
    assert close(bench_ab.binom_cdf_half(0, 6), 1 / 64)
    assert close(bench_ab.binom_cdf_half(6, 6), 1.0)
    assert close(bench_ab.binom_cdf_half(2, 10), 56 / 1024)


def test_too_few_pairs_have_no_interval():
    # Five pairs: even the full range covers only 1 - 2/32 = 93.75%.
    assert bench_ab.median_interval([1.0, 1.1, 1.2, 1.3, 1.4]) is None


def test_six_and_eight_pairs_use_the_extremes():
    lo, hi, cov = bench_ab.median_interval([1.3, 0.9, 1.1, 1.2, 1.0, 1.4])
    assert (lo, hi) == (0.9, 1.4)
    assert close(cov, 1 - 2 / 64)
    # Eight pairs: k = 2 would cover only 1 - 2 * 9/256 = 92.97%.
    lo, hi, cov = bench_ab.median_interval([float(x) for x in range(8)])
    assert (lo, hi) == (0.0, 7.0)
    assert close(cov, 1 - 2 / 256)


def test_ten_and_twenty_pairs_trim_order_statistics():
    # n = 10: k = 2 (coverage 97.85%); k = 3 would give 89.06%.
    xs = [float(x) for x in range(1, 11)]
    lo, hi, cov = bench_ab.median_interval(xs)
    assert (lo, hi) == (2.0, 9.0)
    assert close(cov, 1 - 2 * 11 / 1024)
    # n = 20: the textbook pair is x_(6), x_(15), coverage 95.86%.
    xs = [float(x) for x in range(1, 21)]
    lo, hi, cov = bench_ab.median_interval(xs)
    assert (lo, hi) == (6.0, 15.0)
    assert 0.958 < cov < 0.959


def test_interval_ignores_input_order():
    xs = [1.31, 1.24, 1.44, 1.28, 1.30, 1.27, 1.29, 1.35, 1.26, 1.33]
    assert (bench_ab.median_interval(xs) ==
            bench_ab.median_interval(list(reversed(xs))))
    lo, hi, _ = bench_ab.median_interval(xs)
    assert lo > 1.0 and hi < 1.5


def test_summary_counts_wins_by_direction():
    pairs = [({"rate": 10.0, "rss": 8.0}, {"rate": 12.0, "rss": 7.0}),
             ({"rate": 10.0, "rss": 8.0}, {"rate": 9.0, "rss": 9.0}),
             ({"rate": 10.0, "rss": 8.0}, {"rate": 13.0, "rss": 6.0})]
    rows = {r[0]: r for r in bench_ab.summarize(
        pairs, {"rate": "higher", "rss": "lower"})}
    name, ma, qa, mb, qb, ratio, ci, wins = rows["rate"]
    assert (ma, mb, wins) == (10.0, 12.0, 2)
    assert qa == (10.0, 10.0) and qb == (10.5, 12.5)
    assert close(ratio, 1.2) and ci is None
    assert rows["rss"][7] == 2
    assert close(rows["rss"][5], 7.0 / 8.0)


def test_benchmark_directions_cover_every_metric():
    better = bench_ab.directions()
    for name in ("setup_s", "delivered_pps", "rounds_per_s", "peak_rss_mb"):
        assert better[name] in ("higher", "lower"), name


def main():
    tests = [(k, v) for k, v in sorted(globals().items())
             if k.startswith("test_") and callable(v)]
    for name, fn in tests:
        fn()
        print("ok", name)
    print("%d bench_ab self-tests passed" % len(tests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
