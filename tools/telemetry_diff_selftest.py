#!/usr/bin/env python3
"""Self-test for telemetry_diff.py, runnable standalone or via ctest.

Each test_* function drives the real script through subprocess with
synthetic thetanet-telemetry/2 documents and asserts on exit code and
output. No third-party test framework: `python3 telemetry_diff_selftest.py`
runs every test_* function and exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys
import tempfile

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "telemetry_diff.py")


def doc(counters=None, distributions=None, series=None,
        schema="thetanet-telemetry/2"):
    d = {"counters": counters or {}, "distributions": distributions or {},
         "schema": schema, "series": series or {}, "spans": []}
    if schema is None:
        del d["schema"]
    return d


def dist(count=4, mn=1, mx=9, p50=3, p99=15, total=18):
    return {"count": count, "max": mx, "min": mn, "p50": p50, "p99": p99,
            "sum": total}


def series(points, agg="max", kind="u64", stride=1, rounds=None):
    return {"agg": agg, "kind": kind, "points": points, "stride": stride,
            "rounds": len(points) * stride if rounds is None else rounds}


def run_diff(tmp, baseline, fresh, *extra):
    bpath = os.path.join(tmp, "baseline.json")
    fpath = os.path.join(tmp, "fresh.json")
    with open(bpath, "w", encoding="utf-8") as f:
        json.dump(baseline, f)
    with open(fpath, "w", encoding="utf-8") as f:
        json.dump(fresh, f)
    return subprocess.run(
        [sys.executable, SCRIPT, bpath, fpath, *extra],
        capture_output=True, text=True, check=False)


def test_identical_dumps_pass(tmp):
    d = doc({"grid.queries": 100, "theta.edges": 42},
            {"router.round_peak_buffer": dist()})
    p = run_diff(tmp, d, d)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "OK" in p.stdout


def test_counter_regression_fails(tmp):
    base = doc({"grid.points_examined": 1000})
    fresh = doc({"grid.points_examined": 1500})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "REGRESSION" in p.stdout
    assert "grid.points_examined" in p.stdout


def test_allow_growth_tolerates_small_increase(tmp):
    base = doc({"grid.points_examined": 1000})
    fresh = doc({"grid.points_examined": 1040})
    p = run_diff(tmp, base, fresh, "--allow-growth", "5")
    assert p.returncode == 0, p.stdout + p.stderr


def test_counter_improvement_passes(tmp):
    base = doc({"interference.pairs": 5000})
    fresh = doc({"interference.pairs": 4000})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout


def test_new_counter_is_informational(tmp):
    base = doc({"a": 1})
    fresh = doc({"a": 1, "b": 99})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "new counter b" in p.stdout


def test_distribution_regression_fails(tmp):
    base = doc(distributions={"router.round_peak_buffer": dist(mx=9)})
    fresh = doc(distributions={"router.round_peak_buffer": dist(mx=30)})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "router.round_peak_buffer.max" in p.stdout


def test_dumps_with_identical_series_pass(tmp):
    d = doc({"router.rounds": 64},
            series={"router.peak_buffer": series([1, 4, 7, 3])})
    p = run_diff(tmp, d, d)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "OK" in p.stdout


def test_distribution_p99_regression_fails(tmp):
    base = doc(distributions={"router.round_peak_buffer": dist(p99=15)})
    fresh = doc(distributions={"router.round_peak_buffer": dist(p99=40)})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "router.round_peak_buffer.p99" in p.stdout


def test_series_peak_regression_fails(tmp):
    base = doc(series={"router.peak_buffer": series([1, 4, 7, 3])})
    fresh = doc(series={"router.peak_buffer": series([1, 4, 12, 3])})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "series router.peak_buffer peak" in p.stdout


def test_series_total_regression_fails_for_sum_agg(tmp):
    base = doc(series={"router.tx_failed": series([2, 2, 2], agg="sum")})
    fresh = doc(series={"router.tx_failed": series([2, 2, 9], agg="sum")})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "series router.tx_failed" in p.stdout


def test_series_meaning_change_fails(tmp):
    base = doc(series={"s": series([1, 2], agg="sum")})
    fresh = doc(series={"s": series([1, 2], agg="max")})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "changed meaning" in p.stdout


def test_new_series_is_informational(tmp):
    base = doc()
    fresh = doc(series={"mobility.displacement":
                        series([1.5, 2.5], agg="sum", kind="f64")})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "new series mobility.displacement" in p.stdout


def test_lifetime_counter_shrink_fails(tmp):
    base = doc({"dynamics.lifetime_to_first_partition": 40})
    fresh = doc({"dynamics.lifetime_to_first_partition": 25})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "dynamics.lifetime_to_first_partition shrank" in p.stdout


def test_lifetime_counter_growth_passes(tmp):
    base = doc({"dynamics.lifetime_to_first_partition": 25})
    fresh = doc({"dynamics.lifetime_to_first_partition": 40})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "improved" in p.stdout


def test_lifetime_counter_new_appearance_fails(tmp):
    # The baseline run never partitioned; the fresh run did.
    base = doc({"router.rounds": 64})
    fresh = doc({"router.rounds": 64,
                 "dynamics.lifetime_to_first_partition": 12})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "appeared" in p.stdout


def test_lifetime_counter_disappearance_is_informational(tmp):
    # The fresh run never partitioned where the baseline did: improvement.
    base = doc({"dynamics.lifetime_to_first_partition": 12})
    fresh = doc()
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "never hit the event" in p.stdout


def test_nodes_awake_floor_shrink_fails(tmp):
    base = doc(series={"dynamics.nodes_awake": series([16, 12, 14, 16])})
    fresh = doc(series={"dynamics.nodes_awake": series([16, 7, 14, 16])})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "series dynamics.nodes_awake floor" in p.stdout


def test_nodes_awake_peak_growth_with_stable_floor_passes(tmp):
    # Peak growth would fail an ordinary series; the floor class exempts it.
    base = doc(series={"dynamics.nodes_awake": series([16, 12, 14, 16])})
    fresh = doc(series={"dynamics.nodes_awake": series([24, 12, 20, 24])})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr


def test_nodes_awake_floor_rise_is_informational(tmp):
    base = doc(series={"dynamics.nodes_awake": series([16, 8, 16])})
    fresh = doc(series={"dynamics.nodes_awake": series([16, 12, 16])})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "floor improved" in p.stdout


def test_f64_points_in_u64_series_exit_3(tmp):
    bad = doc(series={"s": series([1, 2.5])})
    p = run_diff(tmp, bad, doc())
    assert p.returncode == 3, p.stdout + p.stderr
    assert "non-integer point" in p.stderr


def test_series_bad_agg_exits_3(tmp):
    bad = doc(series={"s": series([1], agg="median")})
    p = run_diff(tmp, doc(), bad)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "bad agg" in p.stderr


def test_schema_v1_dump_exits_3(tmp):
    # /1 had no "series" section; only /2 is read.
    v1 = doc({"grid.queries": 100}, schema="thetanet-telemetry/1")
    del v1["series"]
    p = run_diff(tmp, v1, doc({"grid.queries": 100}))
    assert p.returncode == 3, p.stdout + p.stderr
    assert "thetanet-telemetry/1" in p.stderr


def test_missing_series_exits_3(tmp):
    fresh = doc({"a": 1})
    del fresh["series"]
    p = run_diff(tmp, doc({"a": 1}), fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "series" in p.stderr


def test_wrong_schema_exits_3(tmp):
    base = doc({"a": 1})
    fresh = doc({"a": 1}, schema="something-else/9")
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "schema" in p.stderr


def test_missing_schema_exits_3(tmp):
    p = run_diff(tmp, doc({"a": 1}, schema=None), doc({"a": 1}))
    assert p.returncode == 3, p.stdout + p.stderr


def test_non_integer_counter_exits_3_with_diagnostic(tmp):
    base = doc({"a": 1})
    fresh = doc({"a": 1.5})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "'a'" in p.stderr and "1.5" in p.stderr


def test_negative_counter_exits_3(tmp):
    # The C++ reader rejects this document; the diff must not call it an
    # improvement.
    p = run_diff(tmp, doc({"a": 3}), doc({"a": -5}))
    assert p.returncode == 3, p.stdout + p.stderr
    assert "'a'" in p.stderr and "-5" in p.stderr


def test_negative_distribution_count_exits_3(tmp):
    bad = dist()
    bad["count"] = -4
    p = run_diff(tmp, doc(distributions={"d": dist()}),
                 doc(distributions={"d": bad}))
    assert p.returncode == 3, p.stdout + p.stderr
    assert "'count'" in p.stderr and "-4" in p.stderr


def test_negative_u64_point_exits_3(tmp):
    p = run_diff(tmp, doc(series={"s": series([1, 2])}),
                 doc(series={"s": series([1, -2])}))
    assert p.returncode == 3, p.stdout + p.stderr
    assert "negative point -2" in p.stderr


def test_malformed_distribution_exits_3(tmp):
    base = doc(distributions={"d": dist()})
    bad = dist()
    del bad["p99"]
    fresh = doc(distributions={"d": bad})
    p = run_diff(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "p99" in p.stderr


def test_unreadable_file_exits_2(tmp):
    d = os.path.join(tmp, "only.json")
    with open(d, "w", encoding="utf-8") as f:
        json.dump(doc(), f)
    p = subprocess.run(
        [sys.executable, SCRIPT, d, os.path.join(tmp, "missing.json")],
        capture_output=True, text=True, check=False)
    assert p.returncode == 2, p.stdout + p.stderr


def test_invalid_json_exits_2(tmp):
    bad = os.path.join(tmp, "bad.json")
    with open(bad, "w", encoding="utf-8") as f:
        f.write("{not json")
    good = os.path.join(tmp, "good.json")
    with open(good, "w", encoding="utf-8") as f:
        json.dump(doc(), f)
    p = subprocess.run(
        [sys.executable, SCRIPT, bad, good],
        capture_output=True, text=True, check=False)
    assert p.returncode == 2, p.stdout + p.stderr


# ---- stream mode -----------------------------------------------------------


def sframe(seq, counters=None, series=None):
    return {"counters": counters or {}, "distributions": {}, "frame": seq,
            "schema": "thetanet-telemetry-stream/1", "series": series or {}}


def sencode(frames):
    out = b""
    for body in frames:
        blob = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
        out += f"FRAME {body['frame']} {len(blob)}\n".encode("utf-8") + blob
    return out


def run_stream_diff(tmp, base_frames, fresh_frames, *extra):
    bpath = os.path.join(tmp, "baseline.stream")
    fpath = os.path.join(tmp, "fresh.stream")
    with open(bpath, "wb") as f:
        f.write(sencode(base_frames))
    with open(fpath, "wb") as f:
        f.write(sencode(fresh_frames))
    return subprocess.run(
        [sys.executable, SCRIPT, bpath, fpath, "--stream", *extra],
        capture_output=True, text=True, check=False)


def test_stream_identical_streams_pass(tmp):
    frames = [sframe(0, {"router.delivered": 5}),
              sframe(1, {"router.delivered": 3})]
    p = run_stream_diff(tmp, frames, frames)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "compared 2 frame pair(s)" in p.stdout
    assert "OK" in p.stdout


def test_stream_regression_is_tagged_with_first_frame(tmp):
    base = [sframe(0, {"grid.queries": 10}), sframe(1, {"grid.queries": 10})]
    fresh = [sframe(0, {"grid.queries": 10}), sframe(1, {"grid.queries": 25})]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "frame 1: REGRESSION: counter grid.queries: 20 -> 35" in p.stdout


def test_stream_catches_mid_run_spike_a_dump_diff_misses(tmp):
    # Fresh spikes at frame 0 and recovers by frame 1: the final cumulative
    # values are identical, so a dump diff would say OK — stream mode flags
    # frame 0 and still reports the metric only once.
    base = [sframe(0, {"grid.queries": 10}), sframe(1, {"grid.queries": 10})]
    fresh = [sframe(0, {"grid.queries": 18}), sframe(1, {"grid.queries": 2})]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "frame 0: REGRESSION: counter grid.queries" in p.stdout
    assert p.stdout.count("REGRESSION") == 1


def test_stream_metric_reported_once_across_frames(tmp):
    base = [sframe(i, {"grid.queries": 10}) for i in range(3)]
    fresh = [sframe(i, {"grid.queries": 20}) for i in range(3)]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert p.stdout.count("REGRESSION: counter grid.queries") == 1
    assert "telemetry_diff: 1 regression(s)" in p.stdout


def test_stream_allow_growth_applies(tmp):
    base = [sframe(0, {"grid.queries": 100})]
    fresh = [sframe(0, {"grid.queries": 104})]
    p = run_stream_diff(tmp, base, fresh, "--allow-growth", "5")
    assert p.returncode == 0, p.stdout + p.stderr


def test_stream_polarity_rules_apply_to_folded_state(tmp):
    # The survival counter shrinking across the fold is the regression,
    # exactly as in dump mode.
    base = [sframe(0, {"dynamics.lifetime_to_first_partition": 500})]
    fresh = [sframe(0, {"dynamics.lifetime_to_first_partition": 200})]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "shrank" in p.stdout


def test_stream_series_totals_compare_at_frame_boundaries(tmp):
    def ser(vals, rounds):
        return {"s": {"agg": "sum", "kind": "u64", "points": vals,
                      "rounds": rounds, "stride": 1}}
    base = [sframe(0, series=ser({"0": 4}, 1))]
    fresh = [sframe(0, series=ser({"0": 9}, 1))]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 1, p.stdout + p.stderr
    assert "series s total: 4 -> 9" in p.stdout


def test_stream_length_mismatch_is_informational(tmp):
    base = [sframe(0, {"a": 1})]
    fresh = [sframe(0, {"a": 1}), sframe(1, {"a": 0})]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 0, p.stdout + p.stderr
    assert "frame counts differ: baseline 1, fresh 2" in p.stdout


def test_stream_malformed_framing_exits_3(tmp):
    bpath = os.path.join(tmp, "baseline.stream")
    fpath = os.path.join(tmp, "fresh.stream")
    with open(bpath, "wb") as f:
        f.write(b"FRAME 0 nonsense\n{}\n")
    with open(fpath, "wb") as f:
        f.write(sencode([sframe(0)]))
    p = subprocess.run(
        [sys.executable, SCRIPT, bpath, fpath, "--stream"],
        capture_output=True, text=True, check=False)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "bad frame header" in p.stderr


def test_stream_negative_counter_delta_exits_3(tmp):
    base = [sframe(0, {"a": 3}), sframe(1, {"a": 1})]
    fresh = [sframe(0, {"a": 3}), sframe(1, {"a": -5})]
    p = run_stream_diff(tmp, base, fresh)
    assert p.returncode == 3, p.stdout + p.stderr
    assert "'a'" in p.stderr and "-5" in p.stderr


def test_stream_negative_u64_window_exits_3(tmp):
    def ser(v):
        return {"s": {"agg": "max", "kind": "u64", "points": {"0": v},
                      "rounds": 1, "stride": 1}}
    p = run_stream_diff(tmp, [sframe(0, series=ser(4))],
                        [sframe(0, series=ser(-2))])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "-2" in p.stderr


def test_stream_rejects_dump_schema_bodies(tmp):
    frames = [sframe(0)]
    frames[0]["schema"] = "thetanet-telemetry/2"
    p = run_stream_diff(tmp, frames, [sframe(0)])
    assert p.returncode == 3, p.stdout + p.stderr
    assert "schema" in p.stderr


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
    print(f"telemetry_diff_selftest: {len(tests)} tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
