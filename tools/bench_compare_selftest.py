#!/usr/bin/env python3
"""Self-test for bench_compare.py, runnable standalone or via ctest.

Each test_* function drives the real script through subprocess with
synthetic BENCH_kernels.json inputs and asserts on exit code and output.
No third-party test framework: `python3 bench_compare_selftest.py` runs
every test_* function and exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "bench_compare.py")


def run_compare(tmp, baseline, fresh, *extra):
    """Write the two docs into tmp and run bench_compare.py on them."""
    bpath = os.path.join(tmp, "baseline.json")
    fpath = os.path.join(tmp, "fresh.json")
    with open(bpath, "w", encoding="utf-8") as f:
        json.dump(baseline, f)
    with open(fpath, "w", encoding="utf-8") as f:
        json.dump(fresh, f)
    return subprocess.run(
        [sys.executable, SCRIPT, bpath, fpath, *extra],
        capture_output=True, text=True, check=False)


def record(kernel="build_gstar", n=1000, threads=1, ms=10.0, **kw):
    r = {"kernel": kernel, "n": n, "threads": threads, "ms": ms}
    r.update(kw)
    return r


def test_identical_files_pass(tmp):
    doc = {"results": [record(), record(kernel="theta", ms=5.0)]}
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "0 regressions" in p.stdout


def test_regression_detected(tmp):
    base = {"results": [record(ms=10.0)]}
    fresh = {"results": [record(ms=20.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "FAIL" in p.stdout


def test_improvement_is_not_failure(tmp):
    base = {"results": [record(ms=20.0)]}
    fresh = {"results": [record(ms=10.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout


def test_noise_floor_skips_fast_entries(tmp):
    base = {"results": [record(ms=0.01)]}
    fresh = {"results": [record(ms=0.05)]}  # 5x, but below --min-ms
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "1 below noise floor" in p.stdout


def test_determinism_violation_fails(tmp):
    doc = {"results": [record()]}
    fresh = {"results": [record()],
             "outputs_bit_identical_across_threads": False}
    p = run_compare(tmp, doc, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "determinism" in p.stdout


def test_missing_entry_fields_exit_3(tmp):
    # The old behaviour was a bare KeyError traceback (exit 1, masking the
    # diff); a malformed record must now exit 3 and name the culprit.
    base = {"results": [record()]}
    fresh = {"results": [{"kernel": "build_gstar", "n": 1000}]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "results[0] is missing" in p.stderr
    assert "threads" in p.stderr and "ms" in p.stderr
    assert "Traceback" not in p.stderr


def test_malformed_baseline_also_exit_3(tmp):
    base = {"results": [{"n": 5}]}
    fresh = {"results": [record()]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "baseline.json" in p.stderr


def test_duplicate_key_exit_3(tmp):
    # A later record with the same key used to replace the earlier one
    # silently, so one of the two was never compared.
    base = {"results": [record()]}
    fresh = {"results": [record(ms=10.0), record(kernel="theta"),
                         record(ms=99.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "results[0] and results[2]" in p.stderr
    assert "fresh.json" in p.stderr


def test_unreadable_file_exit_2(tmp):
    doc = {"results": [record()]}
    bpath = os.path.join(tmp, "baseline.json")
    with open(bpath, "w", encoding="utf-8") as f:
        json.dump(doc, f)
    p = subprocess.run(
        [sys.executable, SCRIPT, bpath, os.path.join(tmp, "missing.json")],
        capture_output=True, text=True, check=False)
    assert p.returncode == 2, p.stdout + p.stderr


def test_rss_regression_detected(tmp):
    base = {"results": [record(ms=10.0, peak_rss_mb=1000.0)]}
    fresh = {"results": [record(ms=10.0, peak_rss_mb=2000.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "peak RSS" in p.stdout and "FAIL" in p.stdout


def test_rss_improvement_is_not_failure(tmp):
    base = {"results": [record(ms=10.0, peak_rss_mb=2000.0)]}
    fresh = {"results": [record(ms=10.0, peak_rss_mb=1000.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "peak RSS" in p.stdout and "smaller" in p.stdout


def test_rss_below_floor_is_skipped(tmp):
    # 10x growth, but both sides under --min-rss-mb: allocator baseline
    # noise, not a kernel regression.
    base = {"results": [record(ms=10.0, peak_rss_mb=2.0)]}
    fresh = {"results": [record(ms=10.0, peak_rss_mb=20.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "FAIL" not in p.stdout


def test_rss_missing_field_tolerated(tmp):
    # Baselines recorded before the peak_rss_mb field existed must still
    # compare cleanly on time alone.
    base = {"results": [record(ms=10.0)]}
    fresh = {"results": [record(ms=10.0, peak_rss_mb=5000.0)]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "FAIL" not in p.stdout


def router_record(workload="poisson", engine="soa", n=1000, rate=4.0,
                  rounds=20000, threads=1, ms=100.0, **kw):
    r = {"workload": workload, "engine": engine, "n": n, "rate": rate,
         "rounds": rounds, "threads": threads, "ms": ms}
    r.update(kw)
    return r


def router_doc(*records, **top):
    doc = {"schema": "thetanet-bench-router/1", "results": list(records)}
    doc.update(top)
    return doc


def test_router_identical_files_pass(tmp):
    doc = router_doc(router_record(packets_per_sec=1e6, rss_flat=True),
                     router_record(engine="reference", ms=400.0))
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "0 regressions" in p.stdout


def test_router_throughput_drop_fails(tmp):
    # Same wall time, fewer packets delivered: the ms gate is blind to this,
    # the packets_per_sec gate is not.
    base = router_doc(router_record(packets_per_sec=1_000_000.0))
    fresh = router_doc(router_record(packets_per_sec=500_000.0))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "packets/s" in p.stdout and "FAIL" in p.stdout


def test_router_throughput_gain_is_not_failure(tmp):
    base = router_doc(router_record(packets_per_sec=500_000.0))
    fresh = router_doc(router_record(packets_per_sec=1_000_000.0))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout


def test_router_trickle_throughput_is_noise(tmp):
    # A 3x drop between two delivery trickles (both under --min-pps) is
    # diffusion noise at large n, not a hot-path regression.
    base = router_doc(router_record(packets_per_sec=9.0))
    fresh = router_doc(router_record(packets_per_sec=3.0))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "FAIL" not in p.stdout


def test_router_reference_mismatch_fails(tmp):
    doc = router_doc(router_record())
    fresh = router_doc(router_record(), reference_plans_match=False)
    p = run_compare(tmp, doc, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "oracle" in p.stdout


def test_router_growing_rss_fails(tmp):
    doc = router_doc(router_record(rss_flat=True, peak_rss_mb=100.0,
                                   warm_rss_mb=90.0))
    fresh = router_doc(router_record(rss_flat=False, peak_rss_mb=100.0,
                                     warm_rss_mb=40.0))
    p = run_compare(tmp, doc, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "warm-up" in p.stdout


def test_router_growing_rss_below_floor_is_noise(tmp):
    # rss_flat=false on a tiny smoke footprint is allocator jitter.
    doc = router_doc(router_record())
    fresh = router_doc(router_record(rss_flat=False, peak_rss_mb=20.0))
    p = run_compare(tmp, doc, fresh)
    assert p.returncode == 0, p.stdout + p.stderr


def control_row(n=1000, quantum=2, rounds=20000, msgs=0.05, byt=0.55):
    return {"n": n, "quantum": quantum, "rounds": rounds,
            "control_messages": int(msgs * n * rounds),
            "control_bytes": int(byt * n * rounds),
            "msgs_per_node_per_round": msgs,
            "bytes_per_node_per_round": byt}


def test_router_control_plane_flat_sweep_passes(tmp):
    # Per-node rate constant (or dropping) as n grows: the claim holds.
    doc = router_doc(router_record(),
                     control_plane=[control_row(n=1000, byt=0.55),
                                    control_row(n=10000, byt=0.50)])
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 0, p.stdout + p.stderr


def test_router_control_plane_growth_with_n_fails(tmp):
    # Bytes/node/round doubling from n=1000 to n=10000 breaks the constant
    # per-node bandwidth claim even with an identical baseline.
    doc = router_doc(router_record(),
                     control_plane=[control_row(n=1000, byt=0.5, msgs=0.04),
                                    control_row(n=10000, byt=1.1,
                                                msgs=0.04)])
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "must stay flat" in p.stdout


def test_router_control_plane_regression_vs_baseline_fails(tmp):
    base = router_doc(router_record(),
                      control_plane=[control_row(byt=0.5)])
    fresh = router_doc(router_record(),
                       control_plane=[control_row(byt=0.9)])
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "bytes_per_node_per_round" in p.stdout


def test_router_control_plane_missing_in_baseline_is_tolerated(tmp):
    # First run that records the section: only the in-file flatness gate.
    base = router_doc(router_record())
    fresh = router_doc(router_record(),
                       control_plane=[control_row(n=1000),
                                      control_row(n=10000)])
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr


def test_router_control_plane_malformed_row_exit_3(tmp):
    doc = router_doc(router_record())
    bad = router_doc(router_record(),
                     control_plane=[{"n": 1000, "quantum": 2}])
    p = run_compare(tmp, doc, bad)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "control_plane[0] is missing" in p.stderr


def test_router_missing_key_field_exit_3(tmp):
    doc = router_doc(router_record())
    bad = router_doc({"workload": "poisson", "engine": "soa", "n": 1000})
    p = run_compare(tmp, doc, bad)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "results[0] is missing" in p.stderr


def scoreboard_record(builder="theta", n=200, seed=7, dist="uniform", **kw):
    r = {"builder": builder, "n": n, "seed": seed, "dist": dist,
         "distance_stretch": 1.2, "energy_stretch": 1.0, "max_degree": 14,
         "interference": 60, "compass_ratio": 2.1, "theta_ratio": 2.4,
         "throughput": 0.8}
    r.update(kw)
    return r


def scoreboard_doc(*records):
    return {"schema": "thetanet-scoreboard/1", "results": list(records)}


def test_scoreboard_identical_files_pass(tmp):
    doc = scoreboard_doc(scoreboard_record(),
                         scoreboard_record(builder="gstar", max_degree=30))
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "0 regressions" in p.stdout


def test_scoreboard_stretch_growth_fails(tmp):
    base = scoreboard_doc(scoreboard_record(distance_stretch=1.2))
    fresh = scoreboard_doc(scoreboard_record(distance_stretch=2.0))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "distance_stretch" in p.stdout and "FAIL" in p.stdout


def test_scoreboard_throughput_drop_fails(tmp):
    # Throughput regresses DOWNWARD, unlike the grow-bad quality metrics.
    base = scoreboard_doc(scoreboard_record(throughput=0.8))
    fresh = scoreboard_doc(scoreboard_record(throughput=0.4))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "throughput" in p.stdout and "FAIL" in p.stdout


def test_scoreboard_throughput_gain_is_improvement(tmp):
    base = scoreboard_doc(scoreboard_record(throughput=0.4))
    fresh = scoreboard_doc(scoreboard_record(throughput=0.8))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout


def test_scoreboard_disconnection_fails(tmp):
    # null stretch = the structure went disconnected.
    base = scoreboard_doc(scoreboard_record(distance_stretch=1.2))
    fresh = scoreboard_doc(scoreboard_record(distance_stretch=None))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "disconnected" in p.stdout


def test_scoreboard_reconnection_is_improvement(tmp):
    base = scoreboard_doc(scoreboard_record(distance_stretch=None,
                                            energy_stretch=None))
    fresh = scoreboard_doc(scoreboard_record(distance_stretch=1.2,
                                             energy_stretch=1.0))
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "reconnected" in p.stdout


def test_scoreboard_both_null_is_comparable(tmp):
    doc = scoreboard_doc(scoreboard_record(distance_stretch=None,
                                           energy_stretch=None))
    p = run_compare(tmp, doc, doc)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "1 comparable entries" in p.stdout


def test_scoreboard_missing_metric_exit_3(tmp):
    doc = scoreboard_doc(scoreboard_record())
    bad = scoreboard_doc({"builder": "theta", "n": 200, "seed": 7,
                          "dist": "uniform"})
    p = run_compare(tmp, doc, bad)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "results[0] is missing" in p.stderr


def test_scoreboard_vs_kernels_schema_mismatch_exit_2(tmp):
    p = run_compare(tmp, {"results": [record()]},
                    scoreboard_doc(scoreboard_record()))
    assert p.returncode == 2, p.stdout + p.stderr
    assert "schema mismatch" in p.stderr


def test_schema_mismatch_exit_2(tmp):
    kernels = {"results": [record()]}
    router = router_doc(router_record())
    p = run_compare(tmp, kernels, router)
    assert p.returncode == 2, p.stdout + p.stderr
    assert "schema mismatch" in p.stderr


def test_disjoint_entries_warn_but_pass(tmp):
    base = {"results": [record(kernel="a")]}
    fresh = {"results": [record(kernel="b")]}
    p = run_compare(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "no overlapping" in p.stdout


def main():
    tests = sorted(
        (name, fn) for name, fn in globals().items()
        if name.startswith("test_") and callable(fn))
    for name, fn in tests:
        with tempfile.TemporaryDirectory() as tmp:
            try:
                fn(tmp)
            except AssertionError as e:
                print(f"FAIL {name}: {e}")
                return 1
            print(f"ok {name}")
    print(f"bench_compare_selftest: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
