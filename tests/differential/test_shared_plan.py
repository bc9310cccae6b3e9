"""Stateful differential fuzzer: shared plan ≡ per-query ≡ batch.

Two :class:`~repro.engine.pool.MatcherPool` instances — one with
``plan_scope='shared'`` (one canonical-fingerprint-interned index per
distinct pattern, read by every same-shape query; see
:mod:`repro.engine.plan`), one
with ``plan_scope='per-query'`` (every query owns its index, the seed
path) — are driven through the *same* seeded random op sequence: edge
churn, fresh attribute-less nodes wired mid-flush, brand-new labelled
nodes, and attribute flips that gain/lose predicate eligibility
mid-stream.  Patterns are drawn from a deliberately tiny leg vocabulary
(3 labels × bounds ``{1, 2, 3, *}``, self-loops and duplicate legs
included), so distinct registered patterns constantly collide on legs —
and often on whole-pattern fingerprints — exercising the interning,
lease refcounts, and multi-consumer join-delta cursors.  Queries mix
bounded and simulation semantics (both plannable) with occasional
isomorphism (which silently falls back to the per-query path inside the
shared-plan pool) and occasional per-register ``plan_scope='per-query'``
overrides, so planned and unplanned queries coexist in one pool.
Register/unregister mid-stream exercises join drop and rebuild.

After every flush: the graphs must be equal, each query's match
relation under BOTH pools must equal a from-scratch batch recomputation
on the current graph, the two pools' *non-empty* match deltas must agree
pairwise, and at sequence end every shared join's pair graph must mirror
true bounded distances (``check_invariants``).

All randomness flows from seeds derived from a pinned base; every
failure message names the seed that replays it:

    SHARED_PLAN_SEQUENCES=1 PYTHONPATH=src python -m pytest \
        tests/differential/test_shared_plan.py::test_shared_plan_differential_fuzz

Scale with ``SHARED_PLAN_SEQUENCES`` (default 150 sequences).
"""

from __future__ import annotations

import os
import random

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.isomorphism import iter_embeddings
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern

SEQUENCES = int(os.environ.get("SHARED_PLAN_SEQUENCES", "150"))
BASE_SEED = 0x9A17
FLUSHES = 3
LABELS = ["A", "B", "C"]
MODES = ["bfs", "landmark", "matrix"]


def _random_graph(rng: random.Random) -> DiGraph:
    n = rng.randint(2, 5)
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=rng.choice(LABELS))
    for _ in range(rng.randint(1, 2 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


def _random_pattern(rng: random.Random, normal: bool = False) -> Pattern:
    """A small pattern over a tiny leg vocabulary.  Self-loops and
    duplicate legs (same endpoint labels and bound on different edges)
    are deliberately common, and ~20% of nodes are wildcards (TRUE)."""
    n = rng.randint(1, 3)
    p = Pattern()
    for u in range(n):
        label = None if rng.random() < 0.2 else f"label = {rng.choice(LABELS)}"
        p.add_node(u, label)
    for u in range(n):
        for w in range(n):
            if rng.random() < (0.15 if u == w else 0.4):
                p.add_edge(u, w, 1 if normal else rng.choice([1, 2, 3, None]))
    return p


class _Harness:
    """One differential run: two pools, one op stream, one oracle."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        base = _random_graph(self.rng)
        self.planned = MatcherPool(base.copy(), plan_scope="shared")
        self.per_query = MatcherPool(base.copy(), plan_scope="per-query")
        self.patterns = {}
        self.feeds = {}
        self._counter = 0
        self._next_node = 100
        for _ in range(self.rng.randint(1, 3)):
            self.register()

    def pools(self):
        return (self.planned, self.per_query)

    def register(self) -> None:
        roll = self.rng.random()
        if roll < 0.6:
            semantics = "bounded"
            pattern = _random_pattern(self.rng)
        elif roll < 0.88:
            semantics = "simulation"
            pattern = _random_pattern(self.rng, normal=True)
        else:
            semantics = "isomorphism"
            pattern = _random_pattern(self.rng, normal=True)
        # Occasional per-register override: planned and unplanned queries
        # must coexist in the shared-plan pool.
        scope = "per-query" if self.rng.random() < 0.15 else None
        mode = self.rng.choice(MODES)
        name = f"q{self._counter}"
        self._counter += 1
        for pool in self.pools():
            pool.register(
                pattern, semantics=semantics, name=name, distance_mode=mode,
                plan_scope=scope,
            )
        self.patterns[name] = (semantics, pattern)
        self.feeds[name] = tuple(
            pool.query(name).subscribe() for pool in self.pools()
        )

    def unregister(self) -> None:
        if len(self.patterns) <= 1:
            return
        name = self.rng.choice(sorted(self.patterns))
        for pool in self.pools():
            pool.unregister(pool.query(name))
        del self.patterns[name]
        del self.feeds[name]

    def step(self) -> None:
        rng = self.rng
        nodes = sorted(self.planned.graph.nodes(), key=repr)
        edges = sorted(self.planned.graph.edges(), key=repr)
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.28 and edges:
                e = rng.choice(edges)
                for pool in self.pools():
                    pool.queue(delete(*e))
            elif roll < 0.60 and nodes:
                v, w = rng.choice(nodes), rng.choice(nodes)
                for pool in self.pools():
                    pool.queue(insert(v, w))
            elif roll < 0.75 and nodes:
                # Brand-new attribute-less node wired mid-flush.
                v, w = rng.choice(nodes), self._next_node
                self._next_node += 1
                if rng.random() < 0.5:
                    v, w = w, v
                for pool in self.pools():
                    pool.queue(insert(v, w))
            elif roll < 0.84:
                v = self._next_node
                self._next_node += 1
                label = rng.choice(LABELS)
                for pool in self.pools():
                    pool.queue_node(v, label=label)
            elif nodes:
                v = rng.choice(nodes)
                label = rng.choice(LABELS)
                for pool in self.pools():
                    pool.queue_node(v, label=label)
        self.planned.flush()
        self.per_query.flush()

    def check(self) -> None:
        assert self.planned.graph == self.per_query.graph, "graph divergence"
        for name, (semantics, pattern) in sorted(self.patterns.items()):
            if semantics == "isomorphism":
                truth_embs = {
                    frozenset(e.items())
                    for e in iter_embeddings(pattern, self.planned.graph)
                }
                for pool in self.pools():
                    got = {
                        frozenset(e.items())
                        for e in pool.query(name).embeddings()
                    }
                    assert got == truth_embs, (
                        f"embedding mismatch for {name}: "
                        f"extra={got - truth_embs} "
                        f"missing={truth_embs - got}"
                    )
                continue
            if semantics == "simulation":
                truth = as_pairs(
                    totalize(maximum_simulation(pattern, self.planned.graph))
                )
            else:
                truth = as_pairs(
                    totalize(bounded_match(pattern, self.planned.graph))
                )
            got_planned = as_pairs(self.planned.query(name).matches())
            got_per_query = as_pairs(self.per_query.query(name).matches())
            assert got_planned == truth, (
                f"shared-plan mismatch for {name} "
                f"(planned={self.planned.query(name).planned}): "
                f"extra={got_planned - truth} missing={truth - got_planned}"
            )
            assert got_per_query == truth, (
                f"per-query mismatch for {name}: "
                f"extra={got_per_query - truth} "
                f"missing={truth - got_per_query}"
            )
            # The two pools' *non-empty* deltas must agree pairwise (a
            # pool may publish an empty delta when routing touched a
            # query whose relation did not change).
            feed_p, feed_q = self.feeds[name]
            deltas_p = [
                (d.added, d.removed)
                for d in feed_p.drain()
                if d.added or d.removed
            ]
            deltas_q = [
                (d.added, d.removed)
                for d in feed_q.drain()
                if d.added or d.removed
            ]
            assert deltas_p == deltas_q, (
                f"delta stream divergence for {name}: "
                f"planned={deltas_p} per-query={deltas_q}"
            )
        self.planned.eligibility.check_invariants()
        self.per_query.eligibility.check_invariants()

    def check_deep(self) -> None:
        """Interned and per-query indexes must pass their own structural
        invariants (a bounded index's pair graph mirrors true bounded
        distances)."""
        for join in self.planned.plan._joins.values():
            join.check_invariants()
        for view in self.planned.plan.views():
            view.index.check_invariants()
        for name in self.patterns:
            for pool in self.pools():
                index = pool.query(name).index
                check = getattr(index, "check_invariants", None)
                if check is not None:
                    check()


def _run_sequence(seed: int) -> None:
    harness = _Harness(seed)
    for step in range(FLUSHES):
        roll = harness.rng.random()
        if roll < 0.18:
            harness.register()
        elif roll < 0.28:
            harness.unregister()
        harness.step()
        harness.check()
        if step == FLUSHES - 1:
            harness.check_deep()


def test_shared_plan_differential_fuzz():
    for i in range(SEQUENCES):
        seed = BASE_SEED * 1_000 + i
        try:
            _run_sequence(seed)
        except AssertionError as exc:
            raise AssertionError(
                f"differential fuzz failure: seed={seed} — replay with "
                f"_run_sequence({seed})"
            ) from exc


def test_unregister_drops_views_and_reregister_rebuilds():
    """Lease bookkeeping across churn: views and joins die with their
    last lease and rebuild fresh (and correct) on re-registration."""
    rng = random.Random(BASE_SEED)
    g = _random_graph(rng)
    pool = MatcherPool(g, plan_scope="shared")
    p = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    )
    q1 = pool.register(p, name="q1")
    pool.apply([insert(0, 1)])
    pool.unregister(q1)
    assert pool.plan.num_joins() == 0
    assert pool.eligibility.num_entries() == 0
    assert not any(pool.substrate.live_structures().values())
    # Mutate while nothing leases, then re-register: the join must be
    # built on the current graph and stay correct through more flushes.
    pool.apply([insert(1, 0), delete(0, 1)])
    q2 = pool.register(p, name="q2")
    pool.apply([insert(0, 1)])
    truth = as_pairs(totalize(bounded_match(p, pool.graph)))
    assert as_pairs(q2.matches()) == truth
    for join in pool.plan._joins.values():
        join.check_invariants()
