#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs: parent and change.

Each directory holds the documents ``run.py --json`` writes, one per run.
For every workload and end-to-end metric the script prints each side's
median and quartiles, the share of (parent, change) pairs the change won
(pairs are formed in run order, so alternate the sides when running), and
a verdict from the metric's bound in ``BENCHMARK.json``:

- ``improved``: the change won at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's interquartile range;
- ``unresolved``: the parent's interquartile range is wider than the
  bound, and not every change run beats every parent run;
- ``regressed``: the change's median is worse by more than the bound;
- ``within bound``: anything else.

It also compares the error rate (failed / attempted) with no allowance.
The exit code is 1 when any verdict is ``regressed``.  Given a single
directory, it prints the medians and spreads of that set alone, in
reference-host and in wall time, and per workload the fit of log wall
throughput on log host factor (see ``HostSpeed`` in ``run.py``).

Usage::

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR
    python3 benchmarks/e2e/compare.py RUNS_DIR
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent.parent
WIN_SHARE = 0.9


def load_runs(directory) -> Dict[str, List[dict]]:
    """workload -> run documents, in file-name order."""
    runs: Dict[str, List[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        doc = json.loads(path.read_text())
        runs.setdefault(doc["info"]["workload"], []).append(doc)
    return runs


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(docs: List[dict], metric: str) -> List[float]:
    return [d["result"]["metrics"][metric]["value"] for d in docs if metric in d["result"]["metrics"]]


def error_rate(docs: List[dict]) -> float:
    attempted = sum(d["result"]["attempted"] for d in docs)
    failed = sum(d["result"]["failed"] for d in docs)
    return failed / max(1, attempted)


def verdict(parent: List[float], change: List[float], bound: float, lower_better: bool):
    """``(verdict, share of pairs the change won)`` for one metric."""
    sign = 1.0 if lower_better else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    win_share = won / len(pairs) if pairs else 0.0
    p1, pmed, p3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = sign * (pmed - cmed)  # > 0: change better
    if win_share >= WIN_SHARE and gain > p3 - p1:
        return "improved", win_share
    if (p3 - p1) / pmed > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "improved", win_share
        return "unresolved", win_share
    if -gain / pmed > bound:
        return "regressed", win_share
    return "within bound", win_share


def host_fit(docs: List[dict]) -> Optional[Tuple[float, float]]:
    """Slope and correlation of log wall events/s on log host factor over
    untraced runs.  A slope near 1 means that converting wall time to
    reference-host time cancels the host's drift; None when the runs give
    no spread of host factors to fit."""
    pairs = [
        (math.log(d["info"]["host_factor"]), math.log(d["info"]["wall"]["events_per_s"]))
        for d in docs
        if "host_factor" in d["info"]
    ]
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    if len(pairs) < 3 or min(xs) == max(xs) or min(ys) == max(ys):
        return None
    slope, _ = statistics.linear_regression(xs, ys)
    return slope, statistics.correlation(xs, ys)


def summarize(runs: Dict[str, List[dict]]) -> None:
    print(f"{'workload':<16} {'metric':<30} {'n':>3} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for workload, docs in sorted(runs.items()):
        rows = [(m, values(docs, m)) for m in docs[0]["result"]["metrics"]]
        wall = [d["info"]["wall"] for d in docs if "wall" in d["info"]]
        rows += [(f"wall.{m}", [w[m] for w in wall]) for m in (wall[0] if wall else ())]
        for metric, vs in rows:
            q1, med, q3 = quartiles(vs)
            spread = (q3 - q1) / med if med else 0.0
            print(f"{workload:<16} {metric:<30} {len(vs):>3} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {spread:>8.3f}")
        print(f"{workload:<16} {'error_rate':<30} {len(docs):>3} {error_rate(docs):>12.5g}")
        fit = host_fit(docs)
        if fit is not None:
            print(f"{workload:<16} host fit: slope {fit[0]:.2f}, correlation {fit[1]:.2f}")


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]], spec: dict) -> int:
    print(
        f"{'workload':<16} {'metric':<14} {'parent med [q1, q3]':>32} "
        f"{'change med [q1, q3]':>32} {'won':>5} {'bound':>6}  verdict"
    )
    regressed = False
    for workload in sorted(set(parent) | set(change)):
        p_docs, c_docs = parent.get(workload, []), change.get(workload, [])
        if not p_docs or not c_docs:
            print(f"{workload:<16} missing runs on one side")
            regressed = True
            continue
        for m in spec["end_to_end"]:
            p, c = values(p_docs, m["name"]), values(c_docs, m["name"])
            if not p or not c:
                print(f"{workload:<16} {m['name']:<14} missing")
                regressed = True
                continue
            result, won = verdict(p, c, m["bound"], m["better"] == "lower")
            regressed |= result == "regressed"
            cols = []
            for vs in (p, c):
                q1, med, q3 = quartiles(vs)
                cols.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}]")
            print(
                f"{workload:<16} {m['name']:<14} {cols[0]:>32} {cols[1]:>32} "
                f"{won:>5.2f} {m['bound']:>6.2f}  {result}"
            )
        p_err, c_err = error_rate(p_docs), error_rate(c_docs)
        result = "regressed" if c_err > p_err else "within bound"
        regressed |= result == "regressed"
        print(f"{workload:<16} {'error_rate':<14} {p_err:>32.5g} {c_err:>32.5g} {'':>5} {0:>6.2f}  {result}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="directory of run documents (parent)")
    ap.add_argument("change", nargs="?", help="directory of run documents (change)")
    args = ap.parse_args(argv)
    parent = load_runs(args.parent)
    if args.change is None:
        summarize(parent)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(parent, load_runs(args.change), spec)


if __name__ == "__main__":
    sys.exit(main())
