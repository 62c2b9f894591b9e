#!/usr/bin/env python3
"""Regression gate over BENCH_*.json reports.

Compares a freshly produced set of bench reports against the committed
baselines and fails (exit 1) when any deterministic row moved by more than
--tolerance (relative). Rows whose op starts with "wall" or ends with "_pct"
are machine wall-time measurements and are reported but never gated; the
remaining rows are simulated/deterministic quantities (simulated seconds,
calibration errors, straggler counts) that must be reproducible anywhere.

Usage:
  tools/bench_compare.py --baseline-dir baselines --fresh-dir . \
      --files BENCH_metrics.json BENCH_trace.json
"""

import argparse
import json
import os
import sys

EPS = 1e-12


def is_machine_row(op: str) -> bool:
    return op.startswith("wall") or op.endswith("_pct")


def load_rows(path: str) -> dict:
    """Map (op, shape) -> ns_per_iter. Every key must be unique."""
    with open(path, "r", encoding="utf-8") as f:
        rows = json.load(f)
    out = {}
    for row in rows:
        key = (row["op"], row["shape"])
        if key in out:
            raise SystemExit(f"{path}: duplicate row {key}")
        out[key] = float(row["ns_per_iter"])
    return out


def compare_file(name: str, baseline_dir: str, fresh_dir: str,
                 tolerance: float) -> int:
    base_path = os.path.join(baseline_dir, name)
    fresh_path = os.path.join(fresh_dir, name)
    if not os.path.exists(base_path):
        print(f"  {name}: no committed baseline, skipping")
        return 0
    if not os.path.exists(fresh_path):
        print(f"  {name}: FRESH REPORT MISSING (bench did not run?)")
        return 1
    base = load_rows(base_path)
    fresh = load_rows(fresh_path)

    failures = 0
    for key in sorted(base):
        op, shape = key
        if key not in fresh:
            print(f"  {op} [{shape}]: ROW DISAPPEARED")
            failures += 1
            continue
        b, f = base[key], fresh[key]
        if is_machine_row(op):
            print(f"  {op} [{shape}]: {b:.1f} -> {f:.1f} (wall-time, not gated)")
            continue
        if abs(b) < EPS:
            # A zero baseline (e.g. straggler_false_alarms) must stay zero.
            ok = abs(f) < EPS
            delta_txt = "0 -> 0" if ok else f"0 -> {f:.6g}"
        else:
            rel = (f - b) / b
            ok = abs(rel) <= tolerance
            delta_txt = f"{b:.6g} -> {f:.6g} ({rel:+.1%})"
        print(f"  {op} [{shape}]: {delta_txt}{'' if ok else '  REGRESSION'}")
        if not ok:
            failures += 1
    for key in sorted(set(fresh) - set(base)):
        print(f"  {key[0]} [{key[1]}]: new row (no baseline), skipping")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline-dir", required=True)
    ap.add_argument("--fresh-dir", required=True)
    ap.add_argument("--files", nargs="+", required=True)
    ap.add_argument("--tolerance", type=float, default=0.15,
                    help="max |relative delta| for deterministic rows")
    args = ap.parse_args()

    total = 0
    for name in args.files:
        print(f"{name}:")
        total += compare_file(name, args.baseline_dir, args.fresh_dir,
                              args.tolerance)
    if total:
        print(f"\n{total} row(s) regressed beyond {args.tolerance:.0%}")
        return 1
    print("\nall deterministic rows within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
