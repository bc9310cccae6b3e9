"""Stateful window-churn differential fuzzer: a temporal pool ≡ an
independent shadow model ≡ from-scratch recompute.

A *windowed* :class:`~repro.engine.pool.MatcherPool` — on the pool's
shared eligibility and distance substrates and the shared plan's
interned indexes — runs a seeded op stream: stamped inserts (default window, explicit
``ts`` backdating, per-edge ``ttl`` overrides), explicit deletes, node
attribute flips, clock advances, TTL'd query registration, and
deliberate **expire→re-insert collisions** (an edge scheduled to expire
at the coming flush re-inserted in the same batch).  A third,
independent *shadow model* — a from-scratch reimplementation of the
window semantics over plain dicts, sharing no code with the pool —
replays the identical stream; after every flush the pool's graph, live
stamp map, and surviving query set must equal the shadow's, and
every live query's match set must equal a batch recomputation on the
window-truncated graph.

The collision flushes double as a regression test for ``net_updates``
coalescing: when an expiring edge is re-inserted in the same flush, the
prepended expiry delete and the user insert must cancel — the edge may
not appear in ``report.net`` at all.

Mutation-tested: the sweep (at its default scale) catches each of these
bugs injected one at a time —
(1) bulk expiry bypassing the router's pre-edit deletion phase (edges
dropped straight from the graph with no routed repair: stale match sets
diverge from the from-scratch recompute, and orphaned stamps trip the
temporal invariants) — injected live by
``test_mutation_expiry_bypassing_router_is_caught`` below, so the
detector itself is pinned by CI;
(2) expiry deletes *appended* after user ops instead of prepended (the
re-insert loses the ``net_updates`` last-write race: the collision edge
vanishes from the graph while the shadow keeps it);
(3) stamps applied before the deletion phase reads them (a same-flush
refresh resurrects the old expiry, retiring the edge a window early).
In landmark mode the landmark index's own invariants run after every
flush, and they catch (4) ``LandmarkIndex.apply_batch`` skipping InsLM's
cover step and (5) it skipping one column's repair.
"""

from __future__ import annotations

import os
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.relation import as_pairs, totalize
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate

MODES = ["bfs", "landmark"]
SEQUENCES = int(os.environ.get("WINDOW_CHURN_SEQUENCES", "20"))
BASE_SEED = 0xC1C
FLUSHES = 5
WINDOW = 4.0
LABELS = ["A", "B", "C"]


def _random_graph(rng: random.Random) -> DiGraph:
    n = rng.randint(3, 6)
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=rng.choice(LABELS))
    for _ in range(rng.randint(1, 2 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def _random_pattern(rng: random.Random) -> Pattern:
    n = rng.randint(1, 3)
    p = Pattern()
    for u in range(n):
        if rng.random() < 0.3:
            p.add_node(u, Predicate.true())
        else:
            p.add_node(u, Predicate([Atom("label", "=", rng.choice(LABELS))]))
    for u in range(n):
        for w in range(n):
            if u != w and rng.random() < 0.4:
                p.add_edge(u, w, rng.choice([1, 2, 3, None]))
    return p


class _ShadowModel:
    """From-scratch reimplementation of the window semantics: plain
    dicts, sequential op application, no pool code shared."""

    def __init__(self, graph: DiGraph) -> None:
        self.attrs: Dict = {v: dict(graph.attrs(v)) for v in graph.nodes()}
        self.edges = set(graph.edges())
        self.stamps: Dict[Tuple, Tuple[float, float]] = {}
        self.query_expiry: Dict[str, float] = {}

    def flush(
        self,
        t: float,
        node_ops: List[Tuple],
        edge_ops: List[Tuple],  # (op, v, w, ts, ttl)
    ) -> None:
        for v, attrs in node_ops:
            self.attrs.setdefault(v, {}).update(attrs)
        expired = [e for e, (_b, x) in self.stamps.items() if x <= t]
        ops: List[Tuple] = [("delete", v, w, None, None) for v, w in expired]
        ops += edge_ops
        # Dead-on-arrival stamps: deletes appended after the user ops.
        pending: Dict[Tuple, Tuple[Optional[float], Optional[float]]] = {}
        for op, v, w, ts, ttl in edge_ops:
            if op == "insert":  # a temporal pool stamps every insert
                pending[(v, w)] = (ts, ttl)
        doa = {
            e for e, (ts, ttl) in pending.items()
            if (t if ts is None else ts) + (WINDOW if ttl is None else ttl)
            <= t
        }
        ops += [("delete", v, w, None, None) for v, w in doa]
        for op, v, w, _ts, _ttl in ops:
            if op == "insert":
                self.edges.add((v, w))
                self.attrs.setdefault(v, {})
                self.attrs.setdefault(w, {})
            else:
                self.edges.discard((v, w))
        self.stamps = {
            e: st for e, st in self.stamps.items() if e in self.edges
        }
        for e, (ts, ttl) in pending.items():
            if e not in self.edges or e in doa:
                continue
            birth = t if ts is None else ts
            life = WINDOW if ttl is None else ttl
            self.stamps[e] = (birth, birth + life)
        self.query_expiry = {
            name: exp for name, exp in self.query_expiry.items() if exp > t
        }

    def graph(self) -> DiGraph:
        g = DiGraph()
        for v, attrs in self.attrs.items():
            g.add_node(v, **attrs)
        for v, w in self.edges:
            g.add_edge(v, w)
        return g


class _ChurnHarness:
    """One windowed pool + one shadow model, one op stream."""

    def __init__(self, seed: int, mode: str) -> None:
        self.rng = random.Random(seed)
        self.mode = mode
        base = _random_graph(self.rng)
        self.pool = MatcherPool(base.copy(), window=WINDOW)
        self.shadow = _ShadowModel(base)
        self.t = 0.0
        self.patterns: Dict[str, Pattern] = {}
        self._counter = 0
        for _ in range(self.rng.randint(1, 2)):
            self.register()

    def register(self, ttl: Optional[float] = None) -> None:
        name = f"q{self._counter}"
        self._counter += 1
        pattern = _random_pattern(self.rng)
        self.pool.register(
            pattern, semantics="bounded", name=name,
            distance_mode=self.mode, ttl=ttl,
        )
        self.patterns[name] = pattern
        self.shadow.query_expiry[name] = (
            float("inf") if ttl is None else self.t + ttl
        )

    def step(self) -> None:
        rng = self.rng
        pool = self.pool
        self.t += rng.uniform(0.5, 4.0)
        pool.advance(self.t)
        if rng.random() < 0.2:
            self.register(ttl=rng.uniform(0.5, 8.0) if rng.random() < 0.5
                          else None)
        node_ops: List[Tuple] = []
        edge_ops: List[Tuple] = []
        collisions: List[Tuple] = []
        nodes = sorted(pool.graph.nodes(), key=repr)
        edges = sorted(pool.graph.edges(), key=repr)
        stamps = pool.live_edge_stamps()
        doomed = sorted((e for e, (_b, x) in stamps.items() if x <= self.t),
                        key=repr)
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.18 and doomed:
                # Expire→re-insert collision within one flush.
                v, w = rng.choice(doomed)
                edge_ops.append(("insert", v, w, self.t, None))
                collisions.append((v, w))
            elif roll < 0.38 and edges:
                v, w = rng.choice(edges)
                edge_ops.append(("delete", v, w, None, None))
            elif roll < 0.75 and nodes:
                v, w = rng.choice(nodes), rng.choice(nodes)
                ts = (self.t - rng.uniform(0.0, 1.5 * WINDOW)
                      if rng.random() < 0.2 else None)
                ttl = rng.uniform(0.5, 2 * WINDOW) if rng.random() < 0.2 \
                    else None
                edge_ops.append(("insert", v, w, ts, ttl))
            elif roll < 0.9 and nodes:
                node_ops.append(
                    (rng.choice(nodes), {"label": rng.choice(LABELS)})
                )
        for v, attrs in node_ops:
            pool.queue_node(v, **attrs)
        for op, v, w, ts, ttl in edge_ops:
            if op == "insert":
                pool.queue(insert(v, w), ts=ts, ttl=ttl)
            else:
                pool.queue(delete(v, w))
        report = pool.flush()
        self.shadow.flush(self.t, node_ops, edge_ops)
        self._check(report, collisions)

    def _check(self, report, collisions) -> None:
        pool = self.pool
        truth_graph = self.shadow.graph()
        assert pool.graph == truth_graph, "graph diverged from the shadow model"
        assert pool.live_edge_stamps() == self.shadow.stamps, (
            "stamp map diverged from the shadow model"
        )
        # Re-inserting an expiring edge in the same flush must net to
        # zero graph ops (prepended expiry delete loses last-write).
        for e in collisions:
            assert e not in {u.edge for u in report.net}, (
                f"collision edge {e!r} leaked into net updates"
            )
        pool.check_temporal_invariants()
        live = set(self.shadow.query_expiry)
        assert {q.name for q in pool.queries()} == live, (
            "TTL'd query retirement diverged from the shadow model"
        )
        for name in sorted(live):
            pattern = self.patterns[name]
            truth = as_pairs(totalize(bounded_match(pattern, truth_graph)))
            got = as_pairs(pool.query(name).matches())
            assert got == truth, (
                f"match mismatch for {name}: "
                f"extra={got - truth} missing={truth - got}"
            )
        pool.eligibility.check_invariants()
        lm = pool.substrate.landmark_index()
        if lm is not None:  # landmark mode, while a query leases it
            lm.check_invariants()


def _run_sequence(seed: int, mode: str) -> None:
    harness = _ChurnHarness(seed, mode)
    for _ in range(FLUSHES):
        harness.step()


@pytest.mark.parametrize("mode", MODES)
def test_window_churn_differential_fuzz(mode):
    for i in range(SEQUENCES):
        seed = BASE_SEED * 1_000 + i
        try:
            _run_sequence(seed, mode)
        except AssertionError as exc:
            raise AssertionError(
                f"window churn fuzz failure: mode={mode!r} seed={seed} — "
                f"replay with _run_sequence({seed}, {mode!r})"
            ) from exc


def test_mutation_expiry_bypassing_router_is_caught(monkeypatch):
    """Inject the bug this suite exists for — bulk expiry dropping edges
    straight out of the graph, skipping the router's pre-edit deletion
    phase — and assert the differential detects it.  If the detector
    ever stops firing, this test fails before the bug class can hide."""
    import heapq as _heapq

    def buggy_collect(self):
        heap = self._expiry_heap
        while heap and heap[0][0] <= self._now:
            expire_at, _, edge = _heapq.heappop(heap)
            st = self._edge_stamps.get(edge)
            if st is not None and st[1] == expire_at:
                self._edge_stamps.pop(edge, None)
                if self.graph.has_edge(*edge):
                    self.graph.remove_edge(*edge)
        return []

    monkeypatch.setattr(MatcherPool, "_collect_expired", buggy_collect)
    caught = 0
    for i in range(SEQUENCES):
        try:
            _run_sequence(BASE_SEED * 1_000 + i, "bfs")
        except AssertionError:
            caught += 1
    assert caught > 0, (
        "no sequence caught expiry bypassing the router pre-edit phase — "
        "the differential's detection power regressed"
    )
