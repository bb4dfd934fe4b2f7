#!/usr/bin/env python3
"""Compares two sets of perfbench run records.

    python3 perfbench/compare.py BASE [CHANGE]

BASE and CHANGE are directories of run records, as perfbench/run.py writes
them under $PERFBENCH_RECORDS (default .bench_records). For every workload
and end-to-end metric it prints each side's median and quartiles (Python's
statistics.quantiles, n=4), the spread (Q3 - Q1) / median, and the change of
CHANGE's median against BASE's in the metric's "worse" direction. A change
worse than the metric's BENCHMARK.json bound is flagged REGRESSION; a
spread wider than the bound is flagged NOISY (the metric is then
unresolved, not unchanged). Per-layer metrics of traced runs are listed by
median, without bounds. With one set, only its spreads are checked.
The exit code is 1 when anything is flagged.
"""

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{(workload, trace): {metric: [values]}} from every record file."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            doc = json.load(f)
        key = (doc["workload"], doc["trace"])
        for name, m in doc["result"]["metrics"].items():
            runs.setdefault(key, {}).setdefault(name, []).append(m["value"])
    return runs


def summary(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base = load(argv[1])
    change = load(argv[2]) if len(argv) == 3 else None
    flagged = False
    for (workload, trace) in sorted(base):
        label = "traced" if trace else "untraced"
        sides = [base[(workload, trace)]]
        if change is not None:
            sides.append(change.get((workload, trace), {}))
        n = [len(next(iter(s.values()), [])) for s in sides]
        print("== %s (%s), runs: %s" % (workload, label, " vs ".join(map(str, n))))
        for name in sorted(sides[0]):
            row = "  %-34s" % name
            stats = []
            for s in sides:
                if name not in s:
                    row += "  %40s" % "-"
                    continue
                med, q1, q3, spread = summary(s[name])
                stats.append((med, spread))
                row += "  %12.5g [%11.5g, %11.5g] %6.1f%%" % (med, q1, q3, 100 * spread)
            bound = bounds.get(name) if not trace else None
            if bound is not None:
                row += "  bound %4.1f%%" % (100 * bound["bound"])
                if any(sp > bound["bound"] for _, sp in stats):
                    row += "  NOISY"
                    flagged = True
                if len(stats) == 2 and stats[0][0]:
                    gap = (stats[1][0] - stats[0][0]) / abs(stats[0][0])
                    worse = -gap if bound["better"] == "higher" else gap
                    row += "  change %+6.1f%%" % (100 * gap)
                    if worse > bound["bound"]:
                        row += "  REGRESSION"
                        flagged = True
            print(row)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
