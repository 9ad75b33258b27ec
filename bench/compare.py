"""Compare repeated runs of a parent commit and a change, metric by metric.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds result documents written by ``run.py --out`` (any
file names ending in .json). Runs are paired in file-name order within each
workload, so name them by run index and alternate which side runs first.
For every workload and metric this prints both sides' median and
quartiles, the change in the median, and the share of pairs the change
wins. An end-to-end metric is marked:

- ``gain`` when the change wins at least 9 of 10 pairs and the medians
  differ by more than the parent's own quartile spread;
- ``regression`` when the change's median is worse than the parent's by
  more than the metric's bound;
- ``unresolved`` when the parent's own spread is wider than the bound and
  not every change run beats every parent run;
- ``same`` otherwise.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from spec import END_TO_END, per_layer_metrics

BETTER = {name: better for name, _, better, _ in END_TO_END}
BETTER.update({name: better for name, _, better in per_layer_metrics()})
BOUND = {name: bound for name, _, _, bound in END_TO_END}


def load(directory) -> dict:
    """{(workload, metric): [values in file-name order]}"""
    out = defaultdict(list)
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        for name, m in doc["metrics"].items():
            out[doc["workload"], name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change) -> str:
    bound = BOUND.get(metric)
    if bound is None:
        return ""
    lower = BETTER[metric] == "lower"
    pm, cm = statistics.median(parent), statistics.median(change)
    worse = (cm - pm) if lower else (pm - cm)
    q1, q3 = quartiles(parent)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if (c < p if lower else c > p))
    if wins >= 0.9 * len(pairs) and -worse > q3 - q1:
        return "gain"
    if worse > bound * pm:
        return "regression"
    all_better = all((c < p if lower else c > p) for p in parent for c in change)
    if (q3 - q1) > bound * pm and not all_better:
        return "unresolved"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    for key in sorted(parent.keys() & change.keys()):
        p, c = parent[key], change[key]
        pm, cm = statistics.median(p), statistics.median(c)
        (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
        lower = BETTER.get(key[1], "lower") == "lower"
        pairs = list(zip(p, c))
        wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
        delta = f"{(cm / pm - 1) * 100:+.1f}%" if pm else "n/a"
        print(f"{key[0]} {key[1]}: parent {pm:.6g} [{p1:.6g}, {p3:.6g}] n={len(p)}  "
              f"change {cm:.6g} [{c1:.6g}, {c3:.6g}] n={len(c)}  {delta}  "
              f"wins {wins}/{len(pairs)}  {verdict(key[1], p, c)}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
