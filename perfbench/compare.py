#!/usr/bin/env python3
"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.json CHANGE.json

Each file is a series written by perfbench/series.py (or one result
file from .perfbench_work/results/). For every workload and metric it
prints each side's median and quartiles. Runs are paired by workload
and seed. For the end-to-end metrics of BENCHMARK.json the verdict is:

  improved    the change wins at least 9 of every 10 pairs (at least 10
              pairs), and the medians differ by more than the base's
              quartile spread;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the run-to-run spread of either side is wider than the
              bound, unless every change run beats every base run;
  no worse    otherwise.

Per-layer metrics get no verdict: counts are marked same or changed.
Exits 1 if any verdict is worse.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from spans import COUNT_UNITS

ROOT = Path(__file__).resolve().parent.parent


def summary(values):
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def spread(values):
    """Quartile distance as a share of the median."""
    med, q1, q3 = summary(values)
    return (q3 - q1) / abs(med) if med else 0.0


def load_runs(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    return doc["runs"] if "runs" in doc else [doc]


def by_metric(runs):
    """(workload, metric) -> {seed: value}, plus the metric units."""
    table = defaultdict(dict)
    units = {}
    for run in runs:
        for name, m in run["metrics"].items():
            table[run["workload"], name][run["seed"]] = m["value"]
            units[name] = m["unit"]
    return table, units


def verdict(base, change, pairs, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    mb, qb1, qb3 = summary(base)
    mc, _, _ = summary(change)
    gain = sign * (mc - mb)
    wins = sum(sign * (c - b) > 0 for b, c in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > qb3 - qb1:
        return "improved"
    if -gain > bound * abs(mb):
        return "worse"
    dominates = all(sign * (c - b) > 0 for b in base for c in change)
    if max(spread(base), spread(change)) > bound and not dominates:
        return "unresolved"
    return "no worse"


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, units = by_metric(load_runs(args.base))
    change, units_c = by_metric(load_runs(args.change))
    units.update(units_c)

    header = f"{'workload':<11} {'metric':<46} {'base median [q1, q3]':<34} {'change median [q1, q3]':<34} {'ratio':>7} {'wins':>6}  verdict"
    print(header)
    verdicts = []
    for key in sorted(set(base) & set(change)):
        workload, name = key
        b, c = base[key], change[key]
        seeds = sorted(set(b) & set(c))
        pairs = [(b[s], c[s]) for s in seeds]
        bv, cv = list(b.values()), list(c.values())
        mb, qb1, qb3 = summary(bv)
        mc, qc1, qc3 = summary(cv)
        ratio = f"{mc / mb:7.3f}" if mb else "      -"
        if name in bounds:
            m = bounds[name]
            v = verdict(bv, cv, pairs, m["better"], m["bound"])
            sign = 1.0 if m["better"] == "higher" else -1.0
            wins = f"{sum(sign * (y - x) > 0 for x, y in pairs)}/{len(pairs)}"
            verdicts.append(v)
        else:
            v = "" if units[name] not in COUNT_UNITS else ("same" if sorted(bv) == sorted(cv) else "changed")
            wins = ""
        print(f"{workload:<11} {name:<46} {mb:>11.5g} [{qb1:.5g}, {qb3:.5g}]".ljust(94)
              + f"{mc:>11.5g} [{qc1:.5g}, {qc3:.5g}]".ljust(35) + f"{ratio} {wins:>6}  {v}")
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:<11} {key[1]:<46} only in {'base' if key in base else 'change'}")
    overall = next((v for v in ("worse", "unresolved", "improved") if v in verdicts), "no worse")
    print(f"overall: {overall}")
    return 1 if overall == "worse" else 0


if __name__ == "__main__":
    sys.exit(main())
