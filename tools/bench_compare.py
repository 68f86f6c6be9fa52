#!/usr/bin/env python3
"""Diff a fresh benchmark JSON against a committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                     [--min-ms 1.0] [--min-rss-mb 50.0]

Three schemas are understood, detected from the document's "schema" field:

  * BENCH_kernels.json (no schema field, or anything that is not a known
    schema): entries are matched on (kernel, n, threads).
  * BENCH_router.json ("schema": "thetanet-bench-router/..."): entries are
    matched on (workload, engine, n, rate, rounds, threads), and two extra
    gates apply — a fresh entry whose packets_per_sec drops by more than
    --threshold below the baseline FAILS (throughput is the router
    benchmark's headline number, so it is gated directly, not only via ms),
    and any fresh entry reporting "rss_flat": false with a peak RSS above
    the noise floor FAILS (the sustained loop must hold a flat footprint
    after warm-up). A fresh "reference_plans_match": false (the SoA engine
    diverged from the brute-force oracle) also fails.
    A router document may also carry a "control_plane" section (the
    quantized router's advertise/retire ledger across the node sweep).
    Two gates apply to it: within the fresh file, bytes/node/round and
    msgs/node/round must not GROW with n beyond --threshold relative to the
    smallest-n entry (the constant per-node control-bandwidth claim), and
    at entries matched on (n, quantum, rounds) against the baseline, the
    per-node figures must not grow beyond --threshold either. Baselines
    without the section skip the cross-file check silently.
  * scoreboard.json ("schema": "thetanet-scoreboard/..."): the quality
    scoreboard emitted by `thetanet_cli scoreboard`. Entries are matched on
    (builder, n, seed, dist) and there is no timing — the gates are the
    quality metrics themselves: distance/energy stretch, max degree,
    interference, and the compass/theta routing ratios regress when they
    GROW by more than --threshold; throughput regresses when it DROPS by
    more than --threshold. A null stretch means the structure is
    disconnected: finite -> null is a regression, null -> finite an
    improvement, null -> null comparable-but-skipped.

Both files must use the same schema; mixing them exits 2.

A benchmark REGRESSES when its fresh time exceeds the baseline by more than
--threshold (default 25%); entries faster than --min-ms in both files are
skipped as noise. Peak RSS is held to the same gate: growth beyond
--threshold at a matched entry fails, with --min-rss-mb (default 50) as the
noise floor — footprints below it are dominated by runtime/allocator
baseline, not the kernel. Entries without a peak_rss_mb field (pre-RSS
baselines) skip the memory check silently. The script also fails when the
fresh run reports a cross-thread determinism violation. Exit status:
0 = no regression, 1 = regression or determinism failure, 2 = usage/parse
error, 3 = malformed results (a record is missing a key field or ms).
Improvements are reported informationally.
"""

import argparse
import json
import sys

ROUTER_SCHEMA_PREFIX = "thetanet-bench-router"
SCOREBOARD_SCHEMA_PREFIX = "thetanet-scoreboard"
KERNEL_KEY = ("kernel", "n", "threads")
ROUTER_KEY = ("workload", "engine", "n", "rate", "rounds", "threads")
SCOREBOARD_KEY = ("builder", "n", "seed", "dist")
# Quality gates of the scoreboard schema: (field, direction that regresses).
SCOREBOARD_GATES = (
    ("distance_stretch", "up"),
    ("energy_stretch", "up"),
    ("max_degree", "up"),
    ("interference", "up"),
    ("compass_ratio", "up"),
    ("theta_ratio", "up"),
    ("throughput", "down"),
)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def schema_of(doc):
    schema = str(doc.get("schema", ""))
    if schema.startswith(ROUTER_SCHEMA_PREFIX):
        return "router"
    if schema.startswith(SCOREBOARD_SCHEMA_PREFIX):
        return "scoreboard"
    return "kernels"


def entries(doc, path, key_fields, metric_fields=("ms",)):
    """Index records by the schema's key tuple, validating fields up front.

    A malformed record used to surface as a bare KeyError traceback, which
    masked the actual diff; exit 3 with the file and record index instead.
    """
    required = key_fields + metric_fields
    out = {}
    for i, r in enumerate(doc.get("results", [])):
        missing = [k for k in required if k not in r]
        if missing:
            print(f"bench_compare: {path}: results[{i}] is missing "
                  f"{', '.join(missing)} (has: {sorted(r)})", file=sys.stderr)
            sys.exit(3)
        out[tuple(r[k] for k in key_fields)] = r
    return out


def label(key_fields, key):
    head = str(key[0])
    if key_fields[1] == "engine":  # router schema: workload/engine lead
        head = f"{key[0]}/{key[1]}"
        pairs = zip(key_fields[2:], key[2:])
    else:
        pairs = zip(key_fields[1:], key[1:])
    return head + "".join(f" {k}={v}" for k, v in pairs)


def compare_scoreboard(base, fresh, key_fields, threshold):
    """Gate the scoreboard's quality metrics; returns (#regr, #impr).

    Prints one FAIL/improved line per metric move beyond the threshold.
    """
    regressions, improvements = 0, 0
    common = sorted(set(base) & set(fresh))
    for key in common:
        name = label(key_fields, key)
        for field, bad in SCOREBOARD_GATES:
            b, f = base[key][field], fresh[key][field]
            if b is None and f is None:
                continue
            if b is None or f is None:
                # Stretch nulls encode disconnection; appearing is a
                # regression, clearing is an improvement.
                if f is None:
                    print(f"FAIL: {name}: {field} became null "
                          f"(structure disconnected, was {b})")
                    regressions += 1
                else:
                    print(f"improved: {name}: {field} {b} -> {f} "
                          f"(structure reconnected)")
                    improvements += 1
                continue
            if b <= 0:
                continue
            ratio = f / b
            worse = (ratio > 1.0 + threshold if bad == "up"
                     else ratio < 1.0 / (1.0 + threshold))
            better = (ratio < 1.0 / (1.0 + threshold) if bad == "up"
                      else ratio > 1.0 + threshold)
            if worse:
                print(f"FAIL: {name}: {field} {b:.4g} -> {f:.4g} "
                      f"({ratio:.2f}x)")
                regressions += 1
            elif better:
                print(f"improved: {name}: {field} {b:.4g} -> {f:.4g} "
                      f"({ratio:.2f}x)")
                improvements += 1
    print(f"bench_compare: {len(common)} comparable entries, "
          f"{regressions} regressions, {improvements} improvements")
    if not common:
        print("bench_compare: warning: no overlapping "
              f"({', '.join(key_fields)}) entries between the two files")
    return regressions, improvements


CONTROL_RATE_FIELDS = ("bytes_per_node_per_round", "msgs_per_node_per_round")


def check_control_plane(base_doc, fresh_doc, fresh_path, threshold):
    """Gate the router control_plane section; returns the failure count.

    The claim under test is ROADMAP item 2's: per-node control-plane
    bandwidth stays *constant* as the mesh grows. Within the fresh sweep,
    every entry's per-node rate must stay within --threshold of the
    smallest-n entry (dropping is fine — fewer advertisements per node at
    scale is an improvement, growth is the regression). Across files, the
    same fields are gated at entries matched on (n, quantum, rounds).
    """
    rows = fresh_doc.get("control_plane", [])
    failures = 0
    for i, r in enumerate(rows):
        missing = [k for k in ("n", "quantum", "rounds")
                   + CONTROL_RATE_FIELDS if k not in r]
        if missing:
            print(f"bench_compare: {fresh_path}: control_plane[{i}] is "
                  f"missing {', '.join(missing)}", file=sys.stderr)
            sys.exit(3)
    if len(rows) >= 2:
        anchor = min(rows, key=lambda r: r["n"])
        for r in rows:
            if r is anchor:
                continue
            for field in CONTROL_RATE_FIELDS:
                a, v = anchor[field], r[field]
                if a > 0 and v > a * (1.0 + threshold):
                    print(f"FAIL: control_plane n={r['n']} "
                          f"quantum={r['quantum']}: {field} {v:.4f} grows "
                          f"over n={anchor['n']}'s {a:.4f} "
                          f"({v / a:.2f}x) — per-node control bandwidth "
                          f"must stay flat as the mesh grows")
                    failures += 1
    base_rows = {(r.get("n"), r.get("quantum"), r.get("rounds")): r
                 for r in base_doc.get("control_plane", [])}
    for r in rows:
        b = base_rows.get((r["n"], r["quantum"], r["rounds"]))
        if b is None:
            continue
        for field in CONTROL_RATE_FIELDS:
            bv, fv = b.get(field), r[field]
            if bv and fv > bv * (1.0 + threshold):
                print(f"FAIL: control_plane n={r['n']} "
                      f"quantum={r['quantum']}: {field} "
                      f"{bv:.4f} -> {fv:.4f} ({fv / bv:.2f}x)")
                failures += 1
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional slowdown (default 0.25 = 25%%)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="ignore entries below this many ms in both files")
    ap.add_argument("--min-rss-mb", type=float, default=50.0,
                    help="ignore peak-RSS below this many MB in both files")
    ap.add_argument("--min-pps", type=float, default=1000.0,
                    help="router schema: ignore packets_per_sec below this "
                         "in both files (delivery trickles are noise)")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    fresh_doc = load(args.fresh)
    mode = schema_of(fresh_doc)
    if schema_of(base_doc) != mode:
        print(f"bench_compare: schema mismatch: {args.baseline} is "
              f"{schema_of(base_doc)}, {args.fresh} is {mode}",
              file=sys.stderr)
        sys.exit(2)
    if mode == "scoreboard":
        metric_fields = tuple(f for f, _ in SCOREBOARD_GATES)
        base = entries(base_doc, args.baseline, SCOREBOARD_KEY, metric_fields)
        fresh = entries(fresh_doc, args.fresh, SCOREBOARD_KEY, metric_fields)
        n_regr, _ = compare_scoreboard(base, fresh, SCOREBOARD_KEY,
                                       args.threshold)
        sys.exit(1 if n_regr else 0)

    key_fields = ROUTER_KEY if mode == "router" else KERNEL_KEY
    base = entries(base_doc, args.baseline, key_fields)
    fresh = entries(fresh_doc, args.fresh, key_fields)

    failed = False
    if fresh_doc.get("outputs_bit_identical_across_threads") is False:
        print("FAIL: fresh run reports a cross-thread determinism violation")
        failed = True
    if mode == "router":
        if fresh_doc.get("reference_plans_match") is False:
            print("FAIL: fresh run reports SoA plans diverging from the "
                  "reference oracle")
            failed = True
        for key, r in sorted(fresh.items()):
            if (r.get("rss_flat") is False
                    and r.get("peak_rss_mb", 0.0) >= args.min_rss_mb):
                print(f"FAIL: {label(key_fields, key)}: RSS kept growing "
                      f"after warm-up (warm {r.get('warm_rss_mb', 0.0):.1f} "
                      f"MB -> peak {r.get('peak_rss_mb', 0.0):.1f} MB)")
                failed = True
        if check_control_plane(base_doc, fresh_doc, args.fresh,
                               args.threshold):
            failed = True

    common = sorted(set(base) & set(fresh))
    regressions, improvements, skipped = [], [], 0
    rss_regressions, rss_improvements = [], []
    pps_regressions, pps_improvements = [], []
    for key in common:
        b, f = base[key]["ms"], fresh[key]["ms"]
        below_floor = b < args.min_ms and f < args.min_ms
        if below_floor:
            skipped += 1
        else:
            ratio = f / b if b > 0 else float("inf")
            if ratio > 1.0 + args.threshold:
                regressions.append((key, b, f, ratio))
            elif ratio < 1.0 / (1.0 + args.threshold):
                improvements.append((key, b, f, ratio))

        # Router throughput gate: packets/sec is the headline number, so a
        # drop is gated directly (a run can keep its ms while delivering
        # less if the workload drifts).
        if mode == "router" and not below_floor:
            bpps = base[key].get("packets_per_sec")
            fpps = fresh[key].get("packets_per_sec")
            if (bpps and fpps and bpps > 0
                    and not (bpps < args.min_pps and fpps < args.min_pps)):
                pps_ratio = fpps / bpps
                if pps_ratio < 1.0 / (1.0 + args.threshold):
                    pps_regressions.append((key, bpps, fpps, pps_ratio))
                elif pps_ratio > 1.0 + args.threshold:
                    pps_improvements.append((key, bpps, fpps, pps_ratio))

        # Memory gate, same threshold as time. Old baselines predate the
        # peak_rss_mb field; skip the check rather than punishing the first
        # run that records it.
        brss = base[key].get("peak_rss_mb")
        frss = fresh[key].get("peak_rss_mb")
        if brss is None or frss is None:
            continue
        if brss < args.min_rss_mb and frss < args.min_rss_mb:
            continue
        rss_ratio = frss / brss if brss > 0 else float("inf")
        if rss_ratio > 1.0 + args.threshold:
            rss_regressions.append((key, brss, frss, rss_ratio))
        elif rss_ratio < 1.0 / (1.0 + args.threshold):
            rss_improvements.append((key, brss, frss, rss_ratio))

    for key, b, f, ratio in regressions:
        print(f"FAIL: {label(key_fields, key)}: "
              f"{b:.2f} ms -> {f:.2f} ms ({ratio:.2f}x)")
    for key, b, f, ratio in pps_regressions:
        print(f"FAIL: {label(key_fields, key)}: "
              f"{b:.0f} packets/s -> {f:.0f} packets/s ({ratio:.2f}x)")
    for key, b, f, ratio in rss_regressions:
        print(f"FAIL: {label(key_fields, key)}: peak RSS "
              f"{b:.1f} MB -> {f:.1f} MB ({ratio:.2f}x)")
    for key, b, f, ratio in improvements:
        print(f"improved: {label(key_fields, key)}: "
              f"{b:.2f} ms -> {f:.2f} ms ({1.0 / ratio:.2f}x faster)")
    for key, b, f, ratio in pps_improvements:
        print(f"improved: {label(key_fields, key)}: "
              f"{b:.0f} packets/s -> {f:.0f} packets/s ({ratio:.2f}x)")
    for key, b, f, ratio in rss_improvements:
        print(f"improved: {label(key_fields, key)}: peak RSS "
              f"{b:.1f} MB -> {f:.1f} MB ({1.0 / ratio:.2f}x smaller)")

    n_regressions = (len(regressions) + len(rss_regressions)
                     + len(pps_regressions))
    n_improvements = (len(improvements) + len(rss_improvements)
                      + len(pps_improvements))
    print(f"bench_compare: {len(common)} comparable entries "
          f"({skipped} below noise floor), "
          f"{n_regressions} regressions, "
          f"{n_improvements} improvements")
    if not common:
        print("bench_compare: warning: no overlapping "
              f"({', '.join(key_fields)}) entries between the two files")
    sys.exit(1 if (n_regressions or failed) else 0)


if __name__ == "__main__":
    main()
