#!/usr/bin/env python3
"""Tail a thetanet telemetry stream and pretty-print what each frame says.

Usage:
    telemetry_tail.py [STREAM] [--verify DUMP.json] [--quiet]

STREAM is a file produced by `thetanet_cli soak --stream FILE` (or the
FRAME blocks of a `serve` telemetry subscription saved to a file); `-` or
no argument reads stdin. Each frame prints as a short header plus one line
per counter delta, changed distribution, changed series, and span-forest
replacement, so a soak run can be skimmed frame by frame without decoding
JSON by hand.

--verify DUMP.json folds the whole stream with the same rules the C++
StreamFolder applies — counters add, distributions and f64 series replace,
u64 series re-window pairwise when their stride grew, spans replace — and
compares the reconstruction structurally against the one-shot
`thetanet-telemetry/2` dump in DUMP.json (written by `soak --dump`). This
is the fold-equals-dump law checked from the outside: an independent
reimplementation agreeing with the emitter catches one-sided bugs that a
C++-only round trip cannot.

--quiet suppresses per-frame output (useful with --verify under ctest).

Exit status: 0 = ok (and verified, when asked), 1 = verify mismatch,
2 = usage/IO error, 3 = malformed stream (bad framing, out-of-order
sequence numbers, a shrinking series stride, windows out of range).
"""

import argparse
import json
import signal
import sys

# Die quietly on a closed pipe (`... | head`) like every other line tool.
if hasattr(signal, "SIGPIPE"):
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)

STREAM_SCHEMA = "thetanet-telemetry-stream/1"
DUMP_SCHEMA = "thetanet-telemetry/2"


class StreamError(Exception):
    """Contract violation in the framing or a frame body."""


def parse_stream(data, name):
    """Split `FRAME <seq> <nbytes>` framed bytes into a list of frame dicts.

    Enforces the wire contract: headers parse, bodies are exactly nbytes
    long and newline-terminated, sequence numbers are contiguous from 0,
    and every body is a JSON object carrying the stream schema.
    """
    frames = []
    pos = 0
    while pos < len(data):
        nl = data.find(b"\n", pos)
        if nl < 0:
            raise StreamError(f"{name}: truncated frame header at byte {pos}")
        header = data[pos:nl].decode("utf-8", errors="replace")
        parts = header.split(" ")
        if len(parts) != 3 or parts[0] != "FRAME":
            raise StreamError(f"{name}: bad frame header {header!r}")
        try:
            seq, nbytes = int(parts[1]), int(parts[2])
        except ValueError:
            raise StreamError(f"{name}: bad frame header {header!r}")
        if seq != len(frames):
            raise StreamError(f"{name}: expected frame {len(frames)}, "
                              f"got {seq}")
        body = data[nl + 1:nl + 1 + nbytes]
        if len(body) != nbytes or not body.endswith(b"\n"):
            raise StreamError(f"{name}: frame {seq} body truncated "
                              f"({len(body)} of {nbytes} bytes)")
        pos = nl + 1 + nbytes
        try:
            frame = json.loads(body)
        except json.JSONDecodeError as e:
            raise StreamError(f"{name}: frame {seq} body is not JSON: {e}")
        if not isinstance(frame, dict):
            raise StreamError(f"{name}: frame {seq} body is not an object")
        if frame.get("schema") != STREAM_SCHEMA:
            raise StreamError(f"{name}: frame {seq} schema is "
                              f"{frame.get('schema')!r}, "
                              f"expected {STREAM_SCHEMA!r}")
        if frame.get("frame") != seq:
            raise StreamError(f"{name}: frame {seq} body says frame "
                              f"{frame.get('frame')!r}")
        for section in ("counters", "distributions", "series"):
            if not isinstance(frame.get(section), dict):
                raise StreamError(f"{name}: frame {seq} missing or "
                                  f"non-object {section!r} section")
        frames.append(frame)
    return frames


def rewindow_u64(points, from_stride, to_stride, agg):
    """Pairwise window fold, mirroring the C++ folder exactly: sum and max
    are associative over integers, so re-windowed values are exact."""
    s = from_stride
    while s < to_stride:
        half = [0] * ((len(points) + 1) // 2)
        for i, v in enumerate(points):
            half[i // 2] = half[i // 2] + v if agg == "sum" \
                else max(half[i // 2], v)
        points = half
        s *= 2
    return points


class Folder:
    """Python twin of obs::StreamFolder: reconstructs the cumulative
    telemetry state from a frame sequence. fold() raises StreamError on the
    same contract violations the C++ folder rejects."""

    def __init__(self):
        self.counters = {}
        self.distributions = {}
        self.series = {}  # name -> {agg, kind, stride, rounds, points}
        self.spans = []

    def fold(self, frame):
        for name, delta in frame["counters"].items():
            if isinstance(delta, bool) or not isinstance(delta, int) \
                    or delta < 0:
                raise StreamError(f"counter {name!r} delta {delta!r} "
                                  f"is not a non-negative integer")
            self.counters[name] = self.counters.get(name, 0) + delta
        for name, dist in frame["distributions"].items():
            self.distributions[name] = dist
        for name, sd in frame["series"].items():
            self._fold_series(name, sd)
        if "spans" in frame:
            self.spans = frame["spans"]

    def _fold_series(self, name, sd):
        st = self.series.setdefault(
            name, {"agg": "sum", "kind": "u64", "stride": 1, "rounds": 0,
                   "points": []})
        agg, kind = sd.get("agg"), sd.get("kind")
        if agg not in ("sum", "max"):
            raise StreamError(f"series {name!r} has unknown agg {agg!r}")
        if kind not in ("u64", "f64"):
            raise StreamError(f"series {name!r} has unknown kind {kind!r}")
        stride, rounds = sd.get("stride"), sd.get("rounds")
        if not isinstance(stride, int) or not isinstance(rounds, int):
            raise StreamError(f"series {name!r} has non-integer "
                              f"stride/rounds")
        if stride == 0 or stride < st["stride"] or stride % st["stride"]:
            raise StreamError(f"series {name!r} stride regressed "
                              f"({st['stride']} -> {stride})")
        if kind == "u64":
            points = st["points"]
            if stride > st["stride"]:
                points = rewindow_u64(points, st["stride"], stride, agg)
            windows = 0 if rounds == 0 else (rounds - 1) // stride + 1
            points = (points + [0] * windows)[:windows]
            updates = sd.get("points", {})
            if not isinstance(updates, dict):
                raise StreamError(f"series {name!r} u64 points is not a "
                                  f"sparse window map")
            for w, v in updates.items():
                try:
                    w = int(w)
                except ValueError:
                    raise StreamError(f"series {name!r} window key {w!r} "
                                      f"is not an integer")
                if w >= windows:
                    raise StreamError(f"series {name!r} window {w} out of "
                                      f"range ({windows} windows)")
                if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                    raise StreamError(f"series {name!r} window {w} value "
                                      f"{v!r} is not a non-negative integer")
                points[w] = v
            st["points"] = points
        else:
            points = sd.get("points", [])
            if not isinstance(points, list):
                raise StreamError(f"series {name!r} f64 points is not an "
                                  f"array")
            st["points"] = list(points)
        st["agg"], st["kind"] = agg, kind
        st["stride"], st["rounds"] = stride, rounds

    def to_dump(self):
        """The reconstructed state shaped like a parsed /2 dump."""
        return {
            "counters": dict(self.counters),
            "distributions": dict(self.distributions),
            "schema": DUMP_SCHEMA,
            "series": {
                name: {"agg": st["agg"], "kind": st["kind"],
                       "points": list(st["points"]), "rounds": st["rounds"],
                       "stride": st["stride"]}
                for name, st in self.series.items()
            },
            "spans": self.spans,
        }


def print_frame(frame):
    counters = frame["counters"]
    dists = frame["distributions"]
    series = frame["series"]
    spans = "spans" in frame
    print(f"frame {frame['frame']}: {len(counters)} counter(s), "
          f"{len(dists)} distribution(s), {len(series)} series"
          f"{', spans replaced' if spans else ''}")
    width = max((len(n) for n in counters), default=0)
    for name in sorted(counters):
        print(f"  {name:<{width}}  +{counters[name]}")
    for name in sorted(dists):
        d = dists[name]
        print(f"  dist {name}: count={d.get('count')} max={d.get('max')} "
              f"p50={d.get('p50')} p99={d.get('p99')} sum={d.get('sum')}")
    for name in sorted(series):
        s = series[name]
        pts = s.get("points", {})
        print(f"  series {name}: {s.get('kind')}/{s.get('agg')} "
              f"stride={s.get('stride')} rounds={s.get('rounds')} "
              f"({len(pts)} point(s) carried)")
    if spans:
        print(f"  spans: {len(frame['spans'])} root(s)")


def first_difference(folded, dump, path="$"):
    """One pointed line describing where two parsed documents diverge."""
    if type(folded) is not type(dump):
        return f"{path}: fold has {type(folded).__name__}, " \
               f"dump has {type(dump).__name__}"
    if isinstance(folded, dict):
        for k in sorted(set(folded) | set(dump)):
            if k not in folded:
                return f"{path}.{k}: only in dump"
            if k not in dump:
                return f"{path}.{k}: only in fold"
            d = first_difference(folded[k], dump[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(folded, list):
        if len(folded) != len(dump):
            return f"{path}: fold has {len(folded)} item(s), " \
                   f"dump has {len(dump)}"
        for i, (a, b) in enumerate(zip(folded, dump)):
            d = first_difference(a, b, f"{path}[{i}]")
            if d:
                return d
        return None
    if folded != dump:
        return f"{path}: fold says {folded!r}, dump says {dump!r}"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("stream", nargs="?", default="-",
                    help="stream file, or - for stdin (default)")
    ap.add_argument("--verify", metavar="DUMP.json",
                    help="fold the stream and compare against this one-shot "
                         "telemetry dump")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress per-frame output")
    args = ap.parse_args()

    try:
        if args.stream == "-":
            data = sys.stdin.buffer.read()
            name = "<stdin>"
        else:
            with open(args.stream, "rb") as f:
                data = f.read()
            name = args.stream
    except OSError as e:
        print(f"telemetry_tail: cannot read {args.stream}: {e}",
              file=sys.stderr)
        return 2

    try:
        frames = parse_stream(data, name)
        folder = Folder()
        for frame in frames:
            if not args.quiet:
                print_frame(frame)
            folder.fold(frame)
    except StreamError as e:
        print(f"telemetry_tail: {e}", file=sys.stderr)
        return 3

    if not args.quiet:
        print(f"{len(frames)} frame(s)")

    if args.verify:
        try:
            with open(args.verify, "r", encoding="utf-8") as f:
                dump = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"telemetry_tail: cannot read {args.verify}: {e}",
                  file=sys.stderr)
            return 2
        if dump.get("schema") != DUMP_SCHEMA:
            print(f"telemetry_tail: {args.verify}: schema is "
                  f"{dump.get('schema')!r}, expected {DUMP_SCHEMA!r}",
                  file=sys.stderr)
            return 2
        diff = first_difference(folder.to_dump(), dump)
        if diff:
            print(f"telemetry_tail: fold does NOT match {args.verify}: "
                  f"{diff}")
            return 1
        print(f"telemetry_tail: fold of {len(frames)} frame(s) matches "
              f"{args.verify}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
