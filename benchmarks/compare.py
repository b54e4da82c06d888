"""Compare two sets of benchmark runs, one line per (metric, workload).

    python3 benchmarks/compare.py BASE.json CHANGE.json

Each file is a JSON list of run records as written by ``run.py --append``
(a single record is accepted too).  Run i of BASE is paired with run i of
CHANGE, so make the runs alternate: base, change, change, base, ...  For
every end-to-end metric in BENCHMARK.json, and failed_ratio, a line shows
each side's median and quartiles, the share of pairs the change wins (ties
count for neither side) and a verdict:

  better      the change wins at least 9 in 10 of at least 10 pairs and the
              medians differ by more than the base's quartile distance;
  worse       the change's median is worse than the base's by more than
              the metric's bound;
  unresolved  the base's own quartile distance exceeds the bound, and not
              every change run beats every base run;
  same        otherwise: within the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load(path):
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data if isinstance(data, list) else [data]


def _values(runs, workload, metric):
    return [r["workloads"][workload]["metrics"][metric]["value"]
            for r in runs if workload in r["workloads"]]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _summary(values) -> str:
    q1, med, q3 = _quartiles(values)
    return "%.5g [%.5g, %.5g]" % (med, q1, q3)


def verdict(base, change, higher_better: bool, bound: float):
    """(win fraction, verdict) by the rule in the module docstring."""
    sign = 1 if higher_better else -1
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    win = wins / len(pairs) if pairs else 0.0
    q1b, mb, q3b = _quartiles(base)
    _, mc, _ = _quartiles(change)
    if mb == 0:
        worse = sign * (mc - mb) < 0
        spread = 0.0
    else:
        worse = sign * (mc - mb) / abs(mb) < -bound
        spread = (q3b - q1b) / abs(mb)
    all_better = min(sign * c for c in change) > max(sign * b for b in base)
    if win >= 0.9 and sign * (mc - mb) > (q3b - q1b):
        return win, "better" if len(pairs) >= 10 else "unresolved (fewer than 10 pairs)"
    if worse:
        return win, "worse"
    if spread > bound and not all_better:
        return win, "unresolved"
    return win, "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change = _load(argv[0]), _load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = [(m["name"], m["better"] == "higher", m["bound"]) for m in spec["end_to_end"]]
    metrics.append(("failed_ratio", False, 0.0))
    workloads = sorted({w for r in base + change for w in r["workloads"]})
    print("%-13s %-14s %-34s %-34s %5s  %s" % ("metric", "workload", "base median [q1, q3]",
                                                "change median [q1, q3]", "win", "verdict"))
    for name, higher, bound in metrics:
        for wl in workloads:
            b, c = _values(base, wl, name), _values(change, wl, name)
            if not b or not c:
                continue
            win, word = verdict(b, c, higher, bound)
            print("%-13s %-14s %-34s %-34s %5.2f  %s (n=%d/%d, bound %g)"
                  % (name, wl, _summary(b), _summary(c), win, word, len(b), len(c), bound))
    return 0


if __name__ == "__main__":
    sys.exit(main())
