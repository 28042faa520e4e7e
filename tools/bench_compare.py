#!/usr/bin/env python3
"""Diff two `ftm_bench gate` JSON files and fail on cycle regressions.

Usage: bench_compare.py BASELINE CURRENT [--tolerance PCT]

The simulator is bit-reproducible, so any difference is a real code
change, not noise; the default tolerance of 0.5% only absorbs intended
small refactors. Rules:

  * an entry present in BASELINE but missing from CURRENT fails (a
    variant silently dropped out of the gate matrix);
  * an entry whose cycles grew by more than the tolerance fails;
  * entries with 0 cycles (strategy not applicable to the shape) are
    compared for equality of applicability only;
  * new entries in CURRENT are allowed (the matrix can grow).

Entries may also carry an informational "wall_us" field (host wall-clock
of the run). Its aggregate drift is printed for visibility but can never
fail the gate: wall time is machine- and load-dependent, unlike the
bit-reproducible cycle counts.

An entry marked "informational": true (e.g. the replay goodput figures
`ftm_bench replay --json` emits) is exempt from every rule above: it
is printed for trend visibility, never compared, and never required to
be present in CURRENT — the perf-gate matrix and informational metrics
come from different producers.

Baseline refresh procedure: docs/tuning.md.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported schema {doc.get('schema')!r}")
    entries = {}
    walls = {}
    info = {}
    for e in doc["entries"]:
        key = (e["shape"], e["variant"])
        if e.get("informational"):
            info[key] = int(e["cycles"])
            continue
        entries[key] = int(e["cycles"])
        walls[key] = int(e.get("wall_us", 0))
    return entries, walls, info


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.5,
                    help="max allowed cycle growth in percent (default 0.5)")
    args = ap.parse_args()

    base, base_walls, base_info = load(args.baseline)
    cur, cur_walls, cur_info = load(args.current)

    failures = []
    improved = 0
    for key, b in sorted(base.items()):
        shape, variant = key
        c = cur.get(key)
        if c is None:
            failures.append(f"{shape}/{variant}: missing from {args.current}")
            continue
        if b == 0 or c == 0:
            if b != c:
                failures.append(
                    f"{shape}/{variant}: applicability changed "
                    f"({b} -> {c} cycles)")
            continue
        delta = 100.0 * (c - b) / b
        if delta > args.tolerance:
            failures.append(
                f"{shape}/{variant}: {b} -> {c} cycles (+{delta:.2f}%)")
        elif delta < 0:
            improved += 1

    added = sorted(set(cur) - set(base))
    for shape, variant in added:
        print(f"note: new entry {shape}/{variant}")

    # Informational entries (never gated, never required to be present).
    for key in sorted(set(base_info) | set(cur_info)):
        shape, variant = key
        b, c = base_info.get(key), cur_info.get(key)
        if b is not None and c is not None and b != 0:
            drift = 100.0 * (c - b) / b
            print(f"informational: {shape}/{variant}: {b} -> {c} "
                  f"({drift:+.1f}%)")
        else:
            print(f"informational: {shape}/{variant}: "
                  f"baseline {b}, current {c}")

    # Informational wall-clock drift (never gated: host-dependent).
    base_wall = sum(base_walls.get(k, 0) for k in base)
    cur_wall = sum(cur_walls.get(k, 0) for k in base)
    if base_wall > 0 and cur_wall > 0:
        drift = 100.0 * (cur_wall - base_wall) / base_wall
        print(f"wall-clock (informational): {base_wall} -> {cur_wall} us "
              f"total ({drift:+.1f}%)")

    if failures:
        print(f"PERF GATE FAILED ({len(failures)} regressions, "
              f"tolerance {args.tolerance}%):")
        for f in failures:
            print(f"  {f}")
        sys.exit(1)
    print(f"perf gate ok: {len(base)} entries compared, "
          f"{improved} improved, {len(added)} added")


if __name__ == "__main__":
    main()
