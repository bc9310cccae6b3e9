"""Compare two ``BENCH_pool.json`` artifacts and flag flush-cost regressions.

CI runs this against the previous successful build's artifact: a routed
pool-flush cost more than ``--threshold`` (default 1.25 = +25%) above the
previous build's number for the same scenario and pool size prints a
``::warning::`` annotation.  The step is **fail-soft** — exit code stays 0
unless ``--strict`` is passed — because shared runners are noisy and a
single slow VM must not block a merge; the warnings keep the trajectory
visible across builds instead of letting it drift silently.

Beyond the last-build delta, ``--trend`` accumulates a rolling
``BENCH_trend.json`` over artifact history: each run appends one snapshot
of every flush-cost entry (seeded from the previous build's trend file via
``--trend-previous``, so the history survives across builds as long as
artifacts do), capped at ``--trend-cap`` snapshots.  That gives the CI a
trajectory to plot — a slow drift that never trips the single-build +25%
threshold still shows up in the trend.

Usage::

    python benchmarks/compare_bench.py PREV.json CURR.json [--threshold 1.25] [--strict]
    python benchmarks/compare_bench.py PREV.json CURR.json \
        --trend BENCH_trend.json --trend-previous prev/BENCH_trend.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Per-scenario keys holding a flush-cost in milliseconds (lower = better).
COST_KEYS = (
    "pool_ms",
    "plan_shared_ms", "plan_naive_ms",
    "expiry_bulk_ms", "expiry_per_edge_ms", "windowed_ms",
    "bfs_ms", "landmark_ms",
)


def _rows(scenario_doc):
    """Yield (size, key, value) cost entries from one scenario document."""
    for row in scenario_doc.get("results", []):
        n = row.get("n")
        for key in COST_KEYS:
            if key in row:
                yield n, key, row[key]


def compare(prev: dict, curr: dict, threshold: float):
    """Return (compared_count, regressions) where each regression is
    (scenario, n, key, prev_ms, curr_ms, ratio).  Entries without a
    counterpart in the previous artifact are not compared (and not
    counted — the log must not overstate coverage)."""
    compared = 0
    regressions = []
    prev_scenarios = prev.get("scenarios", {})
    for name, curr_doc in curr.get("scenarios", {}).items():
        prev_doc = prev_scenarios.get(name)
        if prev_doc is None:
            continue
        prev_costs = {(n, key): ms for n, key, ms in _rows(prev_doc)}
        for n, key, curr_ms in _rows(curr_doc):
            prev_ms = prev_costs.get((n, key))
            if not prev_ms or not curr_ms:
                continue
            compared += 1
            ratio = curr_ms / prev_ms
            if ratio > threshold:
                regressions.append((name, n, key, prev_ms, curr_ms, ratio))
    return compared, regressions


def snapshot(curr: dict) -> dict:
    """One trend entry: every flush-cost of the current artifact, flat."""
    costs = {}
    for name, doc in curr.get("scenarios", {}).items():
        for n, key, ms in _rows(doc):
            costs[f"{name}/n={n}/{key}"] = ms
    return {
        "ts": round(time.time()),
        "build": os.environ.get("GITHUB_RUN_NUMBER")
        or os.environ.get("GITHUB_SHA", "")[:12]
        or None,
        "costs": costs,
    }


def update_trend(curr: dict, out_path: str, prev_path: str, cap: int) -> int:
    """Append the current snapshot to the rolling trend; returns its new
    length.  History is seeded from ``prev_path`` (the previous build's
    trend artifact) when present, else from ``out_path`` itself (local
    repeated runs accumulate in place)."""
    history = []
    for source in (prev_path, out_path):
        if not source:
            continue
        try:
            loaded = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(loaded, list):
            history = loaded
            break
    history.append(snapshot(curr))
    history = history[-cap:]
    Path(out_path).write_text(json.dumps(history, indent=2) + "\n")
    return len(history)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("previous", help="previous build's BENCH_pool.json")
    parser.add_argument("current", help="this build's BENCH_pool.json")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="warn when current/previous exceeds this ratio (default 1.25)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on regressions instead of warning",
    )
    parser.add_argument(
        "--trend",
        metavar="PATH",
        help="append this build's costs to a rolling trend file here",
    )
    parser.add_argument(
        "--trend-previous",
        metavar="PATH",
        help="previous build's trend file to seed the history from",
    )
    parser.add_argument(
        "--trend-cap",
        type=int,
        default=60,
        help="keep at most this many trend snapshots (default 60)",
    )
    args = parser.parse_args(argv)

    try:
        curr = json.loads(Path(args.current).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench compare skipped: {exc}")
        return 0

    # The trend accumulates whether or not a previous *pool* artifact is
    # available — a first build still contributes its own snapshot.
    if args.trend:
        length = update_trend(
            curr, args.trend, args.trend_previous, args.trend_cap
        )
        print(f"bench trend: {length} snapshot(s) in {args.trend}")

    try:
        prev = json.loads(Path(args.previous).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        # Fail-soft by design: a missing/corrupt artifact (first build,
        # expired retention) must not fail the pipeline.
        print(f"bench compare skipped: {exc}")
        return 0

    compared, regressions = compare(prev, curr, args.threshold)
    if not regressions:
        print(
            f"bench compare ok: {compared} flush-cost entries within "
            f"{args.threshold:.2f}x of the previous build"
        )
        return 0
    for name, n, key, prev_ms, curr_ms, ratio in regressions:
        print(
            f"::warning title=bench regression::{name} N={n} {key} "
            f"{prev_ms:.2f}ms -> {curr_ms:.2f}ms ({ratio:.2f}x, "
            f"threshold {args.threshold:.2f}x)"
        )
    print(
        f"bench compare: {len(regressions)}/{compared} compared entries "
        f"regressed beyond {args.threshold:.2f}x"
    )
    return 1 if args.strict else 0


if __name__ == "__main__":
    raise SystemExit(main())
