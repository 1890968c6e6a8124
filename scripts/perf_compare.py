#!/usr/bin/env python3
"""Wall-clock perf diff for BENCH_sim_throughput.json against a committed
baseline.

The sim_throughput bench reports its host-dependent results under "wall":
engine events/s, coroutine frames/s, ns per simulated shootdown, and the
protocol-shard scaling sweep. This script compares a fresh run against the
baseline under bench/baselines/ and WARNS when any tracked metric regressed
by more than the threshold (10% by default). Wall-clock numbers vary across
hosts, so the default mode never fails the build — it is a tripwire, not a
gate. Pass --strict (the perf CI job does, on pinned runner hardware) to
exit nonzero on regression instead.

Usage: perf_compare.py [--baseline FILE] [--threshold PCT] [--strict]
                       BENCH_sim_throughput.json
Only standard-library Python.
"""

import argparse
import json
import sys

# (label, path under "wall", higher_is_better). The two headline metrics the
# issue names — events/s and ns/shootdown — plus the rest of the engine hot
# paths so a regression in any phase trips the wire.
METRICS = [
    ("plain events/s", ("events_per_sec",), True),
    ("coro frames/s", ("coro_frames_per_sec",), True),
    ("ns/shootdown (serial)", ("ns_per_shootdown",), False),
]


def walk(obj, path):
    for key in path:
        if not isinstance(obj, dict) or key not in obj:
            return None
        obj = obj[key]
    return obj


def collect(report):
    wall = report.get("wall", {})
    vals = {}
    for label, path, higher in METRICS:
        v = walk(wall, path)
        if isinstance(v, (int, float)) and v > 0:
            vals[label] = (float(v), higher)
    # Per-point sweep throughput: the protocol storm's events/s and
    # ns/shootdown by (sharded, threads).
    for row in wall.get("protocol_sweep", []) or []:
        tag = "serial" if not row.get("sharded") else f"threads={row.get('threads')}"
        v = row.get("events_per_sec")
        if isinstance(v, (int, float)) and v > 0:
            vals[f"protocol_sweep events/s ({tag})"] = (float(v), True)
        v = row.get("ns_per_shootdown")
        if isinstance(v, (int, float)) and v > 0:
            vals[f"protocol_sweep ns/shootdown ({tag})"] = (float(v), False)
    return vals


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("report", help="fresh BENCH_sim_throughput.json")
    ap.add_argument("--baseline", default="bench/baselines/sim_throughput.json")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression warning threshold, percent (default 10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 on regression instead of warning")
    args = ap.parse_args()

    with open(args.report) as f:
        current = collect(json.load(f))
    try:
        with open(args.baseline) as f:
            base = collect(json.load(f))
    except FileNotFoundError:
        print(f"perf_compare: no baseline at {args.baseline}; nothing to compare")
        return 0

    regressions = []
    print(f"perf_compare: {args.report} vs {args.baseline} "
          f"(warn at {args.threshold:.0f}% regression)")
    for label in sorted(base):
        if label not in current:
            print(f"  {label:45s} MISSING from current report")
            regressions.append(label)
            continue
        b, higher = base[label]
        c, _ = current[label]
        delta_pct = (c - b) / b * 100.0
        regressed = (-delta_pct if higher else delta_pct) > args.threshold
        marker = " <-- REGRESSED" if regressed else ""
        print(f"  {label:45s} {b:14.1f} -> {c:14.1f}  ({delta_pct:+6.1f}%){marker}")
        if regressed:
            regressions.append(label)

    if regressions:
        print(f"\nWARNING: {len(regressions)} metric(s) regressed beyond "
              f"{args.threshold:.0f}%: {', '.join(regressions)}", file=sys.stderr)
        if args.strict:
            return 1
        print("(wall-clock comparison across differing hosts; not failing the build)",
              file=sys.stderr)
    else:
        print("\nperf_compare: no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
