"""Stateful differential fuzzer: shared plan ≡ batch.

One :class:`~repro.engine.pool.MatcherPool` — every simulation and
bounded query reading the one canonical-fingerprint-interned index of
its pattern shape (see :mod:`repro.engine.plan`) — is driven through a
seeded random op sequence: edge churn, fresh attribute-less nodes wired
mid-flush, brand-new labelled nodes, and attribute flips that gain/lose
predicate eligibility mid-stream.  Patterns are drawn from a
deliberately tiny leg vocabulary (3 labels × bounds ``{1, 2, 3, *}``,
self-loops and duplicate legs included), so distinct registered
patterns constantly collide on legs — and often on whole-pattern
fingerprints — exercising the interning, join consumers, and
multi-consumer delta delivery.  A registration is sometimes a twin of a
live query: an exact copy, which joins that query's renaming group, or
a copy under other node names, which starts another group of the same
join, so one flush's totalized delta is delivered to several groups and
consumers.  Queries mix bounded and simulation semantics (both
interned) with occasional isomorphism (which owns its index), so
interned and per-query indexes coexist in one pool.  Register/unregister
mid-stream exercises join drop and rebuild.

After every flush each query's match relation must equal a from-scratch
batch recomputation on the current graph, and each simulation or
bounded query's feed must hold exactly the flush's change of that batch
relation: one delta ``(now - before, before - now)`` when it changed,
no non-empty delta when it did not.  At sequence end every interned
index's pair graph must mirror true bounded distances
(``check_invariants``).

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
MODES = ["bfs", "landmark"]


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


def _renamed(pattern: Pattern) -> Pattern:
    """``pattern`` under other node names (its nodes are small ints)."""
    p = Pattern()
    for u in pattern.nodes():
        p.add_node(u + 10, pattern.predicate(u))
    for u, w in pattern.edges():
        p.add_edge(u + 10, w + 10, pattern.bound(u, w))
    return p


class _Harness:
    """One differential run: one pool, one op stream, one oracle."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.pool = MatcherPool(_random_graph(self.rng))
        self.patterns = {}
        self.modes = {}
        self.feeds = {}
        # name -> the batch relation at the last check, as pairs.
        self.relations = {}
        self._counter = 0
        self._next_node = 100
        for _ in range(self.rng.randint(1, 3)):
            self.register()

    def truth(self, semantics, pattern):
        if semantics == "simulation":
            return as_pairs(
                totalize(maximum_simulation(pattern, self.pool.graph))
            )
        return as_pairs(totalize(bounded_match(pattern, self.pool.graph)))

    def register(self) -> None:
        planned = [n for n in sorted(self.patterns) if n in self.relations]
        roll = self.rng.random()
        if planned and roll < 0.3:
            # A twin of a live planned query: same join, and the same
            # renaming group unless its nodes are renamed.
            twin = self.rng.choice(planned)
            semantics, pattern = self.patterns[twin]
            mode = self.modes[twin]
            pattern = (
                _renamed(pattern) if self.rng.random() < 0.5
                else pattern.copy()
            )
        else:
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
            mode = self.rng.choice(MODES)
        name = f"q{self._counter}"
        self._counter += 1
        q = self.pool.register(
            pattern, semantics=semantics, name=name, distance_mode=mode
        )
        self.patterns[name] = (semantics, pattern)
        self.modes[name] = mode
        self.feeds[name] = q.subscribe()
        if semantics != "isomorphism":
            self.relations[name] = self.truth(semantics, pattern)
            assert as_pairs(q.matches()) == self.relations[name], (
                f"{name} registered with a wrong relation"
            )

    def unregister(self) -> None:
        if len(self.patterns) <= 1:
            return
        name = self.rng.choice(sorted(self.patterns))
        self.pool.unregister(self.pool.query(name))
        del self.patterns[name]
        del self.modes[name]
        del self.feeds[name]
        self.relations.pop(name, None)

    def step(self) -> None:
        rng = self.rng
        pool = self.pool
        nodes = sorted(pool.graph.nodes(), key=repr)
        edges = sorted(pool.graph.edges(), key=repr)
        for _ in range(rng.randint(0, 5)):
            roll = rng.random()
            if roll < 0.28 and edges:
                pool.queue(delete(*rng.choice(edges)))
            elif roll < 0.60 and nodes:
                pool.queue(insert(rng.choice(nodes), rng.choice(nodes)))
            elif roll < 0.75 and nodes:
                # Brand-new attribute-less node wired mid-flush.
                v, w = rng.choice(nodes), self._next_node
                self._next_node += 1
                if rng.random() < 0.5:
                    v, w = w, v
                pool.queue(insert(v, w))
            elif roll < 0.84:
                v = self._next_node
                self._next_node += 1
                pool.queue_node(v, label=rng.choice(LABELS))
            elif nodes:
                pool.queue_node(rng.choice(nodes), label=rng.choice(LABELS))
        pool.flush()

    def check(self) -> None:
        graph = self.pool.graph
        for name, (semantics, pattern) in sorted(self.patterns.items()):
            query = self.pool.query(name)
            if semantics == "isomorphism":
                truth_embs = {
                    frozenset(e.items())
                    for e in iter_embeddings(pattern, graph)
                }
                got = {frozenset(e.items()) for e in query.embeddings()}
                assert got == truth_embs, (
                    f"embedding mismatch for {name}: "
                    f"extra={got - truth_embs} "
                    f"missing={truth_embs - got}"
                )
                continue
            truth = self.truth(semantics, pattern)
            got = as_pairs(query.matches())
            assert got == truth, (
                f"shared-plan mismatch for {name}: "
                f"extra={got - truth} missing={truth - got}"
            )
            # The feed holds the flush's change of the batch relation (a
            # pool may also publish an empty delta when routing touched
            # a query whose relation did not change).
            before = self.relations[name]
            deltas = [
                (d.added, d.removed)
                for d in self.feeds[name].drain()
                if d.added or d.removed
            ]
            expected = (
                [(truth - before, before - truth)] if truth != before else []
            )
            assert deltas == expected, (
                f"delta stream of {name} is not the batch relation's "
                f"change: got={deltas} expected={expected}"
            )
            self.relations[name] = truth
        self.pool.eligibility.check_invariants()

    def check_deep(self) -> None:
        """Interned and per-query indexes must pass their own structural
        invariants (a bounded index's pair graph mirrors true bounded
        distances)."""
        for view in self.pool.plan.views():
            view.index.check_invariants()
        for name in self.patterns:
            index = self.pool.query(name).index
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
    pool = MatcherPool(g)
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
    for view in pool.plan.views():
        view.index.check_invariants()
