#!/usr/bin/env python3
"""Diff two telemetry dumps (obs::write_telemetry_json output) or streams.

Usage:
    telemetry_diff.py BASELINE.json FRESH.json [--allow-growth PCT]
    telemetry_diff.py BASELINE.stream FRESH.stream --stream
                      [--allow-growth PCT]

Compares the counter, distribution, and series sections of two
`thetanet-telemetry/2` documents. A counter REGRESSES when its
fresh value exceeds the baseline by more than --allow-growth percent
(default 0: any increase fails) — counters here measure *work* (cells
scanned, points examined, pairs emitted, transmissions), so growth means
the code got more expensive on the same input. Counters that shrink or
disappear are reported informationally; new counters are informational too
(new instrumentation is not a regression). Distributions compare on
count/max/sum/p50/p99 under the same rule. Series compare on the peak
point value and, for sum-aggregated series, the total across points; a
series whose agg or kind changed between dumps is a regression (one name,
one meaning). Span wall times are never compared (timing is
excluded from deterministic dumps by design); span structure differences
are informational.

Two dynamics metrics invert the rules because bigger is healthier there:

* `dynamics.lifetime_to_first_partition` counts the rounds a deployment
  survived before first disconnecting, so it REGRESSES when the fresh
  value is *smaller* (the network died earlier) or when the counter
  newly *appears* (the baseline run never partitioned at all, the fresh
  one did). Growth and disappearance are improvements.
* `dynamics.nodes_awake` is compared on its FLOOR (the minimum point):
  a shrinking floor means duty-cycling or churn now drives the network
  deeper into sleep, and that is the regression; its peak is exempt
  from the growth rule (more awake nodes is never a problem).

--stream treats both inputs as `thetanet-telemetry-stream/1` frame
sequences (written by `thetanet_cli soak --stream` or saved from a serve
telemetry subscription). Each stream is folded frame by frame with
telemetry_tail's folder — the Python twin of the C++ StreamFolder — and
the cumulative states are compared at every common frame boundary under
exactly the rules above. A metric that regresses mid-run and recovers by
the end is invisible to a dump diff but caught here, tagged with the
first frame where it tripped; each metric is reported once, at that
frame. When the streams carry different frame counts the common prefix
is compared and the mismatch is reported informationally.

Exit status: 0 = no regression, 1 = regression, 2 = usage/IO error,
3 = malformed dump or stream (wrong schema, a count that is not a
non-negative integer, missing sections, broken framing).
"""

import argparse
import json
import signal
import sys

# Die quietly on a closed pipe (`... | head`) like every other line tool.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

SCHEMA = "thetanet-telemetry/2"

# Counters where the value measures survival, not work: shrinking (or newly
# appearing, when the baseline never emitted it) is the regression.
HIGHER_IS_BETTER_COUNTERS = frozenset({
    "dynamics.lifetime_to_first_partition",
})

# Series compared on their floor (minimum point) instead of their peak:
# dipping lower is the regression, growth is always fine.
FLOOR_SERIES = frozenset({
    "dynamics.nodes_awake",
})


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"telemetry_diff: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def malformed(path, why):
    print(f"telemetry_diff: {path}: {why}", file=sys.stderr)
    sys.exit(3)


def check_count(path, what, v):
    """Counts are plain non-negative integers, as the C++ reader requires."""
    if not isinstance(v, int) or isinstance(v, bool):
        malformed(path, f"{what} has non-integer value {v!r}")
    if v < 0:
        malformed(path, f"{what} has negative value {v!r}")


def validate(doc, path):
    """Check the document shape; exit 3 with a pointed diagnostic if off."""
    if not isinstance(doc, dict):
        malformed(path, f"top level is {type(doc).__name__}, expected object")
    schema = doc.get("schema")
    if schema != SCHEMA:
        malformed(path, f"schema is {schema!r}, expected {SCHEMA!r}")
    counters = doc.get("counters")
    if not isinstance(counters, dict):
        malformed(path, "missing or non-object 'counters' section")
    for name, v in counters.items():
        check_count(path, f"counter {name!r}", v)
    dists = doc.get("distributions")
    if not isinstance(dists, dict):
        malformed(path, "missing or non-object 'distributions' section")
    for name, d in dists.items():
        if not isinstance(d, dict):
            malformed(path, f"distribution {name!r} is not an object")
        for field in ("count", "max", "min", "p50", "p99", "sum"):
            check_count(path, f"distribution {name!r} field {field!r}",
                        d.get(field))
    series = doc.get("series")
    if not isinstance(series, dict):
        malformed(path, "missing or non-object 'series' section")
    for name, s in series.items():
        if not isinstance(s, dict):
            malformed(path, f"series {name!r} is not an object")
        if s.get("agg") not in ("sum", "max"):
            malformed(path, f"series {name!r} has bad agg {s.get('agg')!r}")
        if s.get("kind") not in ("u64", "f64"):
            malformed(path, f"series {name!r} has bad kind {s.get('kind')!r}")
        for field in ("stride", "rounds"):
            check_count(path, f"series {name!r} field {field!r}",
                        s.get(field))
        pts = s.get("points")
        if not isinstance(pts, list):
            malformed(path, f"series {name!r} has no points array")
        integral = s["kind"] == "u64"
        for v in pts:
            bad = (isinstance(v, bool) or not isinstance(v, int)) if integral \
                else (isinstance(v, bool) or not isinstance(v, (int, float)))
            if bad:
                malformed(path, f"series {name!r} has non-"
                                f"{'integer' if integral else 'numeric'} "
                                f"point {v!r}")
            if integral and v < 0:
                malformed(path, f"series {name!r} has negative point {v!r}")
    return counters, dists, series


def grew(base, fresh, allow_pct):
    return fresh > base * (1.0 + allow_pct / 100.0)


def compare_docs(base_sections, fresh_sections, allow_pct, emit):
    """Apply every polarity rule to two validated (counters, dists, series)
    tuples. Each judgement goes through emit(is_regression, key, text) —
    the key names the metric and the judgement kind so stream mode can
    report each one exactly once across frames."""
    base_counters, base_dists, base_series = base_sections
    fresh_counters, fresh_dists, fresh_series = fresh_sections

    for name in sorted(base_counters):
        base = base_counters[name]
        if name not in fresh_counters:
            if name in HIGHER_IS_BETTER_COUNTERS:
                emit(False, ("counter-gone", name),
                     f"info: counter {name} gone (was {base}) — "
                     f"fresh run never hit the event")
            else:
                emit(False, ("counter-gone", name),
                     f"info: counter {name} gone (was {base})")
            continue
        fresh = fresh_counters[name]
        if name in HIGHER_IS_BETTER_COUNTERS:
            # Survival counter: the network dying earlier is the regression.
            if grew(fresh, base, allow_pct):
                emit(True, ("counter", name),
                     f"REGRESSION: counter {name} shrank: {base} -> {fresh} "
                     f"(survival metric, lower is worse)")
            elif fresh > base:
                emit(False, ("counter-improved", name),
                     f"info: counter {name} improved: {base} -> {fresh}")
        elif grew(base, fresh, allow_pct):
            pct = 0.0 if base == 0 else 100.0 * (fresh - base) / base
            emit(True, ("counter", name),
                 f"REGRESSION: counter {name}: {base} -> {fresh} "
                 f"(+{pct:.1f}%)")
        elif fresh < base:
            emit(False, ("counter-improved", name),
                 f"info: counter {name} improved: {base} -> {fresh}")
    for name in sorted(set(fresh_counters) - set(base_counters)):
        if name in HIGHER_IS_BETTER_COUNTERS:
            # The baseline run never emitted this survival counter (it never
            # partitioned); the fresh run did — that event is new, and bad.
            emit(True, ("counter-appeared", name),
                 f"REGRESSION: counter {name} appeared = "
                 f"{fresh_counters[name]} (baseline never hit the event)")
        else:
            emit(False, ("counter-new", name),
                 f"info: new counter {name} = {fresh_counters[name]}")

    for name in sorted(base_dists):
        if name not in fresh_dists:
            emit(False, ("dist-gone", name),
                 f"info: distribution {name} gone")
            continue
        for field in ("count", "max", "sum", "p50", "p99"):
            base = base_dists[name][field]
            fresh = fresh_dists[name][field]
            if grew(base, fresh, allow_pct):
                emit(True, ("dist", name, field),
                     f"REGRESSION: distribution {name}.{field}: "
                     f"{base} -> {fresh}")
    for name in sorted(set(fresh_dists) - set(base_dists)):
        emit(False, ("dist-new", name), f"info: new distribution {name}")

    for name in sorted(base_series):
        if name not in fresh_series:
            emit(False, ("series-gone", name), f"info: series {name} gone")
            continue
        b, f = base_series[name], fresh_series[name]
        if (b["agg"], b["kind"]) != (f["agg"], f["kind"]):
            emit(True, ("series-meaning", name),
                 f"REGRESSION: series {name} changed meaning: "
                 f"{b['agg']}/{b['kind']} -> {f['agg']}/{f['kind']}")
            continue
        if name in FLOOR_SERIES:
            # Floor series: the minimum point is the health signal, and a
            # deeper dip is the regression; peak growth is always fine.
            base = min(b["points"], default=0)
            fresh = min(f["points"], default=0)
            if grew(fresh, base, allow_pct):
                emit(True, ("series", name, "floor"),
                     f"REGRESSION: series {name} floor: {base} -> {fresh}")
            elif fresh > base:
                emit(False, ("series-improved", name, "floor"),
                     f"info: series {name} floor improved: "
                     f"{base} -> {fresh}")
            continue
        comparisons = [("peak", max(b["points"], default=0),
                        max(f["points"], default=0))]
        if b["agg"] == "sum":
            comparisons.append(("total", sum(b["points"]), sum(f["points"])))
        for what, base, fresh in comparisons:
            if grew(base, fresh, allow_pct):
                emit(True, ("series", name, what),
                     f"REGRESSION: series {name} {what}: {base} -> {fresh}")
            elif fresh < base:
                emit(False, ("series-improved", name, what),
                     f"info: series {name} {what} improved: "
                     f"{base} -> {fresh}")
    for name in sorted(set(fresh_series) - set(base_series)):
        emit(False, ("series-new", name), f"info: new series {name}")


def verdict(regressions):
    if regressions:
        print(f"telemetry_diff: {regressions} regression(s)")
        return 1
    print("telemetry_diff: OK")
    return 0


def diff_dumps(args):
    base = validate(load(args.baseline), args.baseline)
    fresh = validate(load(args.fresh), args.fresh)

    regressions = 0

    def emit(is_regression, _key, text):
        nonlocal regressions
        if is_regression:
            regressions += 1
        print(text)

    compare_docs(base, fresh, args.allow_growth, emit)
    return verdict(regressions)


def diff_streams(args):
    # telemetry_tail lives next to this script; its parser and folder are
    # the single Python implementation of the stream contract.
    sys.path.insert(0, __file__.rsplit("/", 1)[0])
    import telemetry_tail as tail

    def load_frames(path):
        try:
            with open(path, "rb") as f:
                data = f.read()
        except OSError as e:
            print(f"telemetry_diff: cannot read {path}: {e}",
                  file=sys.stderr)
            sys.exit(2)
        try:
            return tail.parse_stream(data, path)
        except tail.StreamError as e:
            malformed(path, str(e))

    base_frames = load_frames(args.baseline)
    fresh_frames = load_frames(args.fresh)
    common = min(len(base_frames), len(fresh_frames))
    if len(base_frames) != len(fresh_frames):
        print(f"info: frame counts differ: baseline {len(base_frames)}, "
              f"fresh {len(fresh_frames)}; comparing the first {common}")

    base_folder, fresh_folder = tail.Folder(), tail.Folder()
    regressions = 0
    seen = set()
    for k in range(common):
        try:
            base_folder.fold(base_frames[k])
        except tail.StreamError as e:
            malformed(args.baseline, str(e))
        try:
            fresh_folder.fold(fresh_frames[k])
        except tail.StreamError as e:
            malformed(args.fresh, str(e))
        base = validate(base_folder.to_dump(), f"{args.baseline} (frame {k})")
        fresh = validate(fresh_folder.to_dump(), f"{args.fresh} (frame {k})")

        def emit(is_regression, key, text):
            nonlocal regressions
            if key in seen:
                return
            seen.add(key)
            if is_regression:
                regressions += 1
            print(f"frame {k}: {text}")

        compare_docs(base, fresh, args.allow_growth, emit)

    print(f"info: compared {common} frame pair(s)")
    return verdict(regressions)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--allow-growth", type=float, default=0.0, metavar="PCT",
                    help="allowed counter growth in percent (default 0)")
    ap.add_argument("--stream", action="store_true",
                    help="treat both inputs as telemetry stream files and "
                         "diff the folded state at every frame boundary")
    args = ap.parse_args()
    return diff_streams(args) if args.stream else diff_dumps(args)


if __name__ == "__main__":
    sys.exit(main())
