"""Command-line interface: ``python -m repro match ...`` / ``pool ...``.

``match`` runs one pattern against a data graph loaded from JSON,
optionally applies an update file incrementally afterwards, and prints the
match (or embeddings) as JSON.  ``pool`` registers *several* patterns as
continuous queries over one shared graph, applies the update file in one
routed flush, and prints each query's match-delta plus routing statistics.
File formats:

- graph:   ``{"nodes": [{"id": ..., "attrs": {...}}, ...], "edges": [[v, w], ...]}``
  (see :mod:`repro.graphs.io`);
- pattern: ``{"nodes": [{"id": ..., "predicate": "job = DB"}, ...],
  "edges": [{"source": ..., "target": ..., "bound": 2|null}, ...]}``
  (see :mod:`repro.patterns.io`; ``null`` bound = ``*``);
- updates: ``[["insert", v, w], ["delete", v, w], ...]``;
- trace (``pool --replay``): JSONL, one timestamped event per line —
  ``{"ts": 3.5, "op": "insert", "v": ..., "w": ...}`` or
  ``{"ts": 4.0, "op": "node", "v": ..., "attrs": {...}}``
  (see :mod:`repro.workloads.replay`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List

from .core.engine import Matcher
from .engine import POOL_DISTANCE_MODES, MatcherPool
from .graphs.io import load_json as load_graph
from .incremental.types import Update, validate_update
from .patterns.io import load_pattern


def load_updates(path: str) -> List[Update]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, list):
        raise ValueError("updates file must contain a JSON list")
    updates = []
    for entry in doc:
        if not isinstance(entry, list) or len(entry) != 3:
            raise ValueError(f"malformed update entry: {entry!r}")
        update = Update(entry[0], entry[1], entry[2])
        validate_update(update)
        updates.append(update)
    return updates


def _render_query(query) -> dict:
    if query.semantics == "isomorphism":
        return {"embeddings": query.embeddings()}
    return {
        "matches": {
            str(u): sorted(vs, key=repr)
            for u, vs in query.matches().items()
        }
    }


def _render(matcher: Matcher) -> dict:
    return _render_query(matcher.query)


def _render_delta(delta) -> dict:
    out = {
        "added": sorted([str(u), str(v)] for u, v in delta.added),
        "removed": sorted([str(u), str(v)] for u, v in delta.removed),
    }
    if delta.added_embeddings or delta.removed_embeddings:
        out["added_embeddings"] = list(delta.added_embeddings)
        out["removed_embeddings"] = list(delta.removed_embeddings)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Graph pattern matching via (bounded) simulation — "
        "batch and incremental.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    match = sub.add_parser("match", help="match a pattern against a graph")
    match.add_argument("--graph", required=True, help="graph JSON file")
    match.add_argument("--pattern", required=True, help="pattern JSON file")
    match.add_argument(
        "--semantics",
        default="bounded",
        choices=["bounded", "simulation", "isomorphism"],
    )
    match.add_argument(
        "--updates",
        help="optional JSON update list applied incrementally after the "
        "initial match",
    )
    match.add_argument(
        "--show-result-graph",
        action="store_true",
        help="also print the result graph Gr",
    )
    pool = sub.add_parser(
        "pool",
        help="register several patterns as continuous queries over one "
        "shared graph and apply updates in a single routed flush",
    )
    pool.add_argument("--graph", required=True, help="graph JSON file")
    pool.add_argument(
        "--patterns",
        required=True,
        nargs="+",
        help="one or more pattern JSON files (query name = file stem)",
    )
    pool.add_argument(
        "--semantics",
        default="simulation",
        choices=["bounded", "simulation", "isomorphism"],
        help="semantics applied to every registered pattern",
    )
    pool.add_argument(
        "--distance-mode",
        nargs="+",
        default=["bfs"],
        choices=POOL_DISTANCE_MODES,
        metavar="MODE",
        help="how bounded queries recheck suspect pairs after a deletion "
        f"({' | '.join(POOL_DISTANCE_MODES)}: bounded BFS probes, or the "
        "pool's shared landmark vectors); one value applies to every "
        "pattern, or give exactly one per --patterns entry",
    )
    pool.add_argument(
        "--updates",
        help="JSON update list applied as one coalesced, routed flush",
    )
    pool.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="W",
        help="temporal pool: stamp every inserted edge and bulk-expire "
        "edges older than W time units at each flush",
    )
    pool.add_argument(
        "--replay",
        metavar="TRACE.jsonl",
        help="replay a timestamped JSONL event trace (one event per "
        "line: {\"ts\": ..., \"op\": \"insert\"|\"delete\"|\"node\", ...}) "
        "through the pool as window-aligned flush batches instead of "
        "applying --updates",
    )
    pool.add_argument(
        "--flush-every",
        type=float,
        default=1.0,
        metavar="T",
        help="replay bucket width: trace events sharing floor(ts/T) are "
        "applied in one flush (default 1.0)",
    )
    args = parser.parse_args(argv)

    if args.command == "pool":
        return _run_pool(args)

    graph = load_graph(args.graph)
    pattern = load_pattern(args.pattern)
    matcher = Matcher(pattern, graph, semantics=args.semantics)
    output = {"initial": _render(matcher)}
    if args.updates:
        matcher.apply(load_updates(args.updates))
        output["after_updates"] = _render(matcher)
    if args.show_result_graph:
        gr = matcher.result_graph()
        output["result_graph"] = {
            "nodes": sorted((str(v) for v in gr.nodes())),
            "edges": sorted([str(v), str(w)] for v, w in gr.edges()),
        }
    json.dump(output, sys.stdout, indent=2, default=repr)
    sys.stdout.write("\n")
    return 0


def _routing_class(query) -> str:
    return "distance" if query.distance_routed else "endpoint"


def _run_pool(args) -> int:
    modes = list(args.distance_mode)
    if len(modes) == 1:
        modes = modes * len(args.patterns)
    if len(modes) != len(args.patterns):
        print(
            f"--distance-mode takes one value or exactly one per pattern "
            f"({len(args.patterns)} patterns, {len(args.distance_mode)} "
            f"modes given)",
            file=sys.stderr,
        )
        return 2

    def make_pool() -> MatcherPool:
        pool = MatcherPool(load_graph(args.graph), window=args.window)
        for path, mode in zip(args.patterns, modes):
            name = Path(path).stem
            suffix = 2
            while name in pool:  # distinct files may share a stem
                name = f"{Path(path).stem}{suffix}"
                suffix += 1
            pool.register(
                load_pattern(path),
                semantics=args.semantics,
                name=name,
                distance_mode=mode,
            )
        return pool

    if args.replay:
        return _run_replay(args, make_pool)

    pool = make_pool()
    output = {
        "queries": {
            q.name: dict(_render_query(q), routing=_routing_class(q))
            for q in pool.queries()
        },
    }
    if args.updates:
        report = pool.apply(load_updates(args.updates))
        output["flush"] = {
            "net_updates": len(report.net),
            "routed": report.routed,
            "skipped": report.skipped,
            "deltas": {
                name: _render_delta(delta)
                for name, delta in sorted(report.deltas.items())
            },
        }
        output["after_updates"] = {
            q.name: _render_query(q) for q in pool.queries()
        }
    output["shared_structures"] = pool.substrate.live_structures()
    output["shared_structures"]["eligibility_sets"] = (
        pool.eligibility.num_entries()
    )
    output["shared_structures"]["plan_joins"] = pool.plan.num_joins()
    output["shared_structures"]["plan_leases"] = pool.plan.num_leases()
    json.dump(output, sys.stdout, indent=2, default=repr)
    sys.stdout.write("\n")
    return 0


def _run_replay(args, make_pool) -> int:
    from .workloads.replay import Replayer, Trace, TraceError

    try:
        trace = Trace.load_jsonl(args.replay)
    except (OSError, TraceError) as exc:
        print(f"replay failed: {exc}", file=sys.stderr)
        return 2
    replayer = Replayer(trace, make_pool, flush_every=args.flush_every)
    pool = replayer.run()
    output = {
        "replay": {
            "trace": args.replay,
            "events": len(trace),
            "flush_every": args.flush_every,
            "window": args.window,
            "flushes": pool.stats.flushes,
            "checkpoints": len(replayer.checkpoints),
            "expired_edges": pool.stats.expired_edges,
            "final_ts": pool.now,
            "fingerprint": replayer.checkpoints[-1].fingerprint,
        },
        "queries": {
            q.name: dict(_render_query(q), routing=_routing_class(q))
            for q in pool.queries()
        },
    }
    json.dump(output, sys.stdout, indent=2, default=repr)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
