#!/usr/bin/env python3
"""Compares two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 bench/suite/compare.py A.jsonl [B.jsonl]

Each file holds run records, one JSON object per line, as run.sh appends
them (--out). For every (workload, metric) the script prints the run count,
the quartiles and median of each set, and the spread (quartile distance over
the median). It flags every end-to-end spread wider than the metric's bound
(setup_s excepted: set-up time is judged by its median alone) and every run
that failed its output check or was marked invalid; given two sets, it also
flags every end-to-end metric whose medians differ by more than its bound,
in either direction. Exits 1 when anything is flagged.
"""
import json
import os
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(HERE, "..", "..", "BENCHMARK.json")


def load_runs(path):
    """(workload, metric) -> list of values, plus the set's validity notes."""
    values = defaultdict(list)
    notes = []
    with open(path) as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            run = json.loads(line)
            where = f"{path}:{line_no} {run['workload']} seed {run['seed']}"
            if not run.get("correct", False):
                notes.append(f"{where}: output check failed")
            if not run.get("valid", True):
                notes.append(f"{where}: generator lag invalidates the run")
            for name, metric in run["metrics"].items():
                values[(run["workload"], name)].append(metric["value"])
    return values, notes


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(BENCHMARK) as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [load_runs(p) for p in argv[1:]]
    flagged = []
    for path, (_, notes) in zip(argv[1:], sets):
        flagged += notes
    keys = sorted(set().union(*(values.keys() for values, _ in sets)))

    header = f"{'workload':<18} {'metric':<32} {'n':>3} {'q1':>11} " \
             f"{'median':>11} {'q3':>11} {'spread':>7}"
    if len(sets) == 2:
        header += f" {'n':>3} {'median B':>11} {'spread':>7} {'diff':>8} " \
                  f"{'bound':>6}"
    print(header)
    for workload, metric in keys:
        row = f"{workload:<18} {metric:<32}"
        spreads = []
        for i, (values, _) in enumerate(sets):
            v = values.get((workload, metric), [])
            spreads.append(spread(v) if v else None)
            if i == 1:  # the second set shows only its median and spread
                row += f" {len(v):>3} " + (
                    f"{quartiles(v)[1]:>11.5g} {spreads[-1]:>7.3f}" if v
                    else f"{'-':>11} {'-':>7}")
            elif v:
                q1, q2, q3 = quartiles(v)
                row += f" {len(v):>3} {q1:>11.5g} {q2:>11.5g} {q3:>11.5g} " \
                       f"{spreads[-1]:>7.3f}"
            else:
                row += f" {0:>3} {'-':>11} {'-':>11} {'-':>11} {'-':>7}"
        spec = bounds.get(metric)
        if spec is not None:
            bound = spec["bound"]
            for s, path in zip(spreads, argv[1:]):
                if s is not None and metric != "setup_s" and s > bound:
                    flagged.append(f"{workload} {metric}: spread {s:.3f} "
                                   f"in {path} exceeds bound {bound}")
            if len(sets) == 2:
                a = sets[0][0].get((workload, metric))
                b = sets[1][0].get((workload, metric))
                if a and b:
                    ma, mb = statistics.median(a), statistics.median(b)
                    diff = (mb - ma) / abs(ma) if ma else 0.0
                    worse = diff > 0 if spec["better"] == "lower" else diff < 0
                    row += f" {diff:>+8.3f} {bound:>6.2f}"
                    if abs(diff) > bound:
                        flagged.append(
                            f"{workload} {metric}: B is "
                            f"{'worse' if worse else 'better'} by "
                            f"{abs(diff):.3f} (bound {bound})")
        print(row)
    for line in flagged:
        print("FLAG " + line)
    if not flagged:
        print("no metric outside its bound")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
