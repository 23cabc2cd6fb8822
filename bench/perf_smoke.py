#!/usr/bin/env python3
"""Perf-smoke comparator for the canonical suite summary.

Diffs the per-phase seconds of a fresh BENCH_suite.json against the
checked-in baseline (bench/BENCH_baseline.json) at matching thread
counts and fails when any phase regressed by more than the threshold
(default 25%). Sub-10ms phases are skipped - at that scale the numbers
are scheduler noise, not kernel behavior.

The gate is binding in CI: the workflow does not set
OPTABS_PERF_ADVISORY. On hardware far from the machine that produced the
baseline, OPTABS_PERF_ADVISORY=1 demotes it to a warning.

Usage: perf_smoke.py NEW_JSON [BASELINE_JSON] [--threshold PCT]
Exit status: 0 ok / advisory, 1 regression (binding mode), 2 bad input.
"""

import json
import os
import sys

MIN_PHASE_SECONDS = 0.010


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        print(f"perf-smoke: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    threshold = 25.0
    for a in argv[1:]:
        if a.startswith("--threshold"):
            threshold = float(a.split("=", 1)[1])
    if not args:
        print(__doc__, file=sys.stderr)
        return 2
    new_path = args[0]
    base_path = args[1] if len(args) > 1 else os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "BENCH_baseline.json")

    new, base = load(new_path), load(base_path)
    base_runs = {r["threads"]: r for r in base.get("runs", [])}
    regressions = []
    rows = []
    for run in new.get("runs", []):
        ref = base_runs.get(run["threads"])
        if ref is None:
            continue
        for phase, secs in run["phase_seconds"].items():
            ref_secs = ref["phase_seconds"].get(phase)
            if ref_secs is None or ref_secs < MIN_PHASE_SECONDS:
                continue
            delta = 100.0 * (secs - ref_secs) / ref_secs
            rows.append((run["threads"], phase, ref_secs, secs, delta))
            if delta > threshold:
                regressions.append((run["threads"], phase, delta))

    if not rows:
        print("perf-smoke: no comparable phases (thread counts disjoint?)",
              file=sys.stderr)
        return 2

    # The before/after table prints on every outcome - a green run should
    # still record where the time went.
    print(f"{'threads':>7}  {'phase':>9}  {'baseline':>9}  "
          f"{'new':>9}  {'delta':>7}")
    for threads, phase, ref_secs, secs, delta in rows:
        marker = "  <-- REGRESSION" if delta > threshold else ""
        print(f"{threads:>7}  {phase:>9}  {ref_secs:8.3f}s  "
              f"{secs:8.3f}s  {delta:+6.1f}%{marker}")

    if not regressions:
        print(f"perf-smoke: ok, no phase regressed beyond {threshold:.0f}%")
        return 0
    for threads, phase, delta in regressions:
        print(f"perf-smoke: {phase} at {threads} threads regressed "
              f"{delta:+.1f}% (limit {threshold:.0f}%)", file=sys.stderr)
    if os.environ.get("OPTABS_PERF_ADVISORY"):
        print("perf-smoke: OPTABS_PERF_ADVISORY set - reporting only",
              file=sys.stderr)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
