#!/usr/bin/env python3
"""Diff a fresh benchmark JSON against a committed baseline.

Usage:
    bench_compare.py BASELINE.json FRESH.json [--threshold 0.25]
                     [--min-ms 1.0] [--min-rss-mb 50.0] [--min-pps 1000]

The document's "schema" field picks a row of SCHEMAS (no or unknown schema:
BENCH_kernels.json). Both files must use the same schema; mixing them
exits 2. A schema row names:

  * its sections: lists of records, each matched across the two files on
    its key fields. BENCH_kernels.json has "results" keyed on
    (kernel, n, threads). BENCH_router.json has "results" keyed on
    (workload, engine, n, rate, rounds) and "control_plane" (the quantized
    router's advertise/retire ledger) keyed on (n, quantum, rounds). The
    thetanet_cli scoreboard has "results" keyed on (builder, n, seed, dist).
  * each section's gates: (field, bad direction, noise floor, null rule).
    At a matched record a gate REGRESSES when the fresh value moves in the
    bad direction by more than --threshold (default 25%); a move the other
    way is reported as an improvement. A gate is skipped when both values
    sit below its noise floor (--min-ms for time, --min-rss-mb for peak
    RSS, --min-pps for router packets/s). Null rule "skip": a record
    without the field (an older baseline) skips the gate. Null rule
    "disconnected" (scoreboard stretch): null means the structure is
    disconnected, so finite -> null regresses, null -> finite improves and
    null -> null is skipped.
  * per-record flags of the fresh file: a router record reporting
    "rss_flat": false with a peak RSS at or above --min-rss-mb fails (the
    sustained loop must hold a flat footprint after warm-up).
  * a flatness row: within the fresh control_plane section, every gated
    per-node rate must stay within --threshold of the smallest-n record
    (constant per-node control bandwidth as the mesh grows).
  * document-level flags: a fresh "outputs_bit_identical_across_threads":
    false (kernels) or "reference_plans_match": false (router: the SoA
    engine diverged from the brute-force oracle) fails.

Exit status: 0 = no regression, 1 = regression or failed flag, 2 =
usage/parse error, 3 = malformed records (one is missing a key field or a
required field, or two share a key).
"""

import argparse
import json
import sys
from typing import NamedTuple


class Gate(NamedTuple):
    field: str
    what: str         # how a report line names the value
    bad: str          # "up": growth regresses; "down": a drop regresses
    floor: str        # option holding the noise floor, or None
    null: str         # "skip" or "disconnected"


class Section(NamedTuple):
    name: str
    key: tuple
    required: tuple   # fields every record must carry besides the key
    gates: tuple
    flags: tuple = ()  # (field, size field, size floor option, message)
    flat_over: str = None  # key field whose smallest record anchors flatness


class Schema(NamedTuple):
    prefix: str       # "schema" prefix that selects the row
    sections: tuple
    doc_flags: tuple  # (field, what a false value means)


TIME = Gate("ms", "time (ms)", "up", "min_ms", "skip")
RSS = Gate("peak_rss_mb", "peak RSS (MB)", "up", "min_rss_mb", "skip")
PPS = Gate("packets_per_sec", "packets/s", "down", "min_pps", "skip")
CONTROL_GATES = tuple(Gate(f, f, "up", None, "skip")
                      for f in ("bytes_per_node_per_round",
                                "msgs_per_node_per_round"))
SCOREBOARD_GATES = tuple(
    Gate(f, f, bad, None, "disconnected") for f, bad in (
        ("distance_stretch", "up"),
        ("energy_stretch", "up"),
        ("max_degree", "up"),
        ("interference", "up"),
        ("compass_ratio", "up"),
        ("theta_ratio", "up"),
        ("throughput", "down"),
    ))

SCHEMAS = {
    "kernels": Schema(
        prefix="",
        sections=(Section("results", ("kernel", "n", "threads"), ("ms",),
                          (TIME, RSS)),),
        doc_flags=(("outputs_bit_identical_across_threads",
                    "a cross-thread determinism violation"),)),
    "router": Schema(
        prefix="thetanet-bench-router",
        sections=(
            Section("results", ("workload", "engine", "n", "rate", "rounds"),
                    ("ms",), (TIME, PPS, RSS),
                    flags=(("rss_flat", "peak_rss_mb", "min_rss_mb",
                            "RSS kept growing after warm-up"),)),
            Section("control_plane", ("n", "quantum", "rounds"),
                    tuple(g.field for g in CONTROL_GATES), CONTROL_GATES,
                    flat_over="n")),
        doc_flags=(("reference_plans_match",
                    "SoA plans diverging from the reference oracle"),)),
    "scoreboard": Schema(
        prefix="thetanet-scoreboard",
        sections=(Section("results", ("builder", "n", "seed", "dist"),
                          tuple(g.field for g in SCOREBOARD_GATES),
                          SCOREBOARD_GATES),),
        doc_flags=()),
}


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def schema_of(doc):
    schema = str(doc.get("schema", ""))
    for name, row in SCHEMAS.items():
        if row.prefix and schema.startswith(row.prefix):
            return name
    return "kernels"


def entries(doc, path, section):
    """Index a section's records by key, validating them up front.

    A malformed record or a repeated key exits 3 naming the file and the
    record indices, instead of a traceback or a silently dropped record.
    """
    out, index = {}, {}
    for i, r in enumerate(doc.get(section.name, [])):
        missing = [k for k in section.key + section.required if k not in r]
        if missing:
            print(f"bench_compare: {path}: {section.name}[{i}] is missing "
                  f"{', '.join(missing)} (has: {sorted(r)})", file=sys.stderr)
            sys.exit(3)
        key = tuple(r[k] for k in section.key)
        if key in out:
            print(f"bench_compare: {path}: {section.name}[{index[key]}] and "
                  f"{section.name}[{i}] share the key "
                  f"{label(section, key)}", file=sys.stderr)
            sys.exit(3)
        out[key], index[key] = r, i
    return out


def label(section, key):
    text = " ".join(f"{k}={v}" for k, v in zip(section.key, key))
    return text if section.name == "results" else f"{section.name} {text}"


def judge(gate, b, f, args):
    """Classify one gated move: None, "noise", "regressed" or "improved"."""
    if b is None or f is None:
        if gate.null == "disconnected" and (b is None) != (f is None):
            return "regressed" if f is None else "improved"
        return None
    floor = getattr(args, gate.floor) if gate.floor else None
    if floor is not None and b < floor and f < floor:
        return "noise"
    ratio = f / b if b > 0 else (float("inf") if f > 0 else 1.0)
    limit = 1.0 + args.threshold
    grew, shrank = ratio > limit, ratio < 1.0 / limit
    if (grew and gate.bad == "up") or (shrank and gate.bad == "down"):
        return "regressed"
    if grew or shrank:
        return "improved"
    return None


def move(gate, b, f):
    if b is None or f is None:
        return (f"{gate.what} became null (structure disconnected, was {b})"
                if f is None else
                f"{gate.what} {b} -> {f} (structure reconnected)")
    if b <= 0 or f <= 0:
        ratio = ""
    elif f < b:
        ratio = f" ({b / f:.2f}x smaller)"
    else:
        ratio = f" ({f / b:.2f}x larger)"
    return f"{gate.what} {b:.6g} -> {f:.6g}{ratio}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("fresh")
    ap.add_argument("--threshold", type=float, default=0.25,
                    help="allowed fractional move (default 0.25 = 25%%)")
    ap.add_argument("--min-ms", type=float, default=1.0,
                    help="ignore time below this many ms in both files")
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
    schema = SCHEMAS[mode]

    fails, gains = [], []
    for field, what in schema.doc_flags:
        if fresh_doc.get(field) is False:
            fails.append(f"fresh run reports {what}")
    compared, noise = 0, 0
    for section in schema.sections:
        base = entries(base_doc, args.baseline, section)
        fresh = entries(fresh_doc, args.fresh, section)
        for key, r in sorted(fresh.items()):
            for field, size, floor, what in section.flags:
                if (r.get(field) is False
                        and r.get(size, 0.0) >= getattr(args, floor)):
                    fails.append(f"{label(section, key)}: {what} "
                                 f"({size} {r.get(size)})")
        if section.flat_over and fresh:
            anchor = min(fresh, key=lambda k: fresh[k][section.flat_over])
            for key, r in sorted(fresh.items()):
                for gate in section.gates:
                    a, v = fresh[anchor][gate.field], r[gate.field]
                    if judge(gate, a, v, args) == "regressed":
                        fails.append(
                            f"{label(section, key)}: {move(gate, a, v)} "
                            f"from {section.flat_over}="
                            f"{fresh[anchor][section.flat_over]} — it must "
                            f"stay flat as the mesh grows")
        common = sorted(set(base) & set(fresh))
        compared += len(common)
        for key in common:
            for gate in section.gates:
                b = base[key].get(gate.field)
                f = fresh[key].get(gate.field)
                verdict = judge(gate, b, f, args)
                noise += verdict == "noise"
                line = f"{label(section, key)}: {move(gate, b, f)}"
                if verdict == "regressed":
                    fails.append(line)
                elif verdict == "improved":
                    gains.append(line)

    for line in fails:
        print(f"FAIL: {line}")
    for line in gains:
        print(f"improved: {line}")
    print(f"bench_compare: {compared} comparable entries "
          f"({noise} below noise floor), "
          f"{len(fails)} regressions, {len(gains)} improvements")
    if not compared:
        print("bench_compare: warning: no overlapping entries between the "
              "two files")
    sys.exit(1 if fails else 0)


if __name__ == "__main__":
    main()
