"""Stateful differential fuzzer: a shared-substrate pool ≡ batch.

A :class:`~repro.engine.pool.MatcherPool` — leasing every query's
eligible sets from the pool's
:class:`~repro.engine.eligibility.SharedEligibilityIndex` and every
bounded query's distance structures from its
:class:`~repro.engine.distances.SharedDistanceSubstrate` — is driven
through a seeded random op sequence: edge insert/delete churn,
brand-new labelled nodes, attribute flips (label *and* numeric
``score``) that gain/lose eligibility mid-stream — including for
conjunction predicates like ``label = A & score > 1`` whose canonical
interning the eligibility substrate relies on.  All conjunctions draw
from one tiny shared atom vocabulary (3 label-eq × 3 score atoms), so
distinct predicates overlap on atoms and the atom-tier posting sets are
multiply leased; a few are trivially unsatisfiable (two different
label-eq atoms) and must stay upkeep-free without perturbing sibling
conjunctions on the same atoms.  The stream also wires attribute-less
fresh nodes mid-flush, and query register/unregister mid-stream (which
exercises substrate lease/release and structure drop/rebuild).  Queries
mix all three semantics — mostly bounded (the distance substrate's
clients) with simulation and isomorphism blended in — so every index
family's flip adoption, withdrawal cascades and embedding re-anchoring
run under the same churn.

The sweep runs once per distance mode.  Simulation and bounded queries
read the shared multi-query plan's interned indexes, isomorphism
queries their own, all on the same substrates.
After every flush, each registered query's match set must equal a
from-scratch batch recomputation
(:func:`~repro.matching.bounded.bounded_match`) on the current graph,
and the eligibility member sets must pass their exactness invariants.
``check_oracles`` asks the pool's router, over every node pair at
quiescence, whether it routes the pair to each distance-routed interned
query: every mode routes by the edge legs, so the answer must be exact.

All randomness flows from ``random.Random`` seeds derived from a pinned
base, so every failure message names the exact seed that replays it:

    SHARED_SUBSTRATE_SEQUENCES=1 PYTHONPATH=src python -m pytest \
        "tests/differential/test_shared_substrate.py::test_shared_substrate_differential_fuzz[bfs]"

then rerun ``_run_sequence(<seed>, "<mode>")`` from a
REPL, or simply re-run the test — the sweep is
deterministic end to end.  Scale with ``SHARED_SUBSTRATE_SEQUENCES``
(default 200 sequences per parametrization).

Mutation-tested: the sweep (at its default scale) catches each of these
bugs injected one at a time into the substrates —
(1) the reconcile reporting a loss flip without removing the member
(set/report desync, caught by the member invariants), (2) the pool
routing only the predicates with a *gained* flip (demotions never
routed), (3) incsim's shared-layer adoption skipping the support-counter
init (KeyError / drift on later cascades), (4) the pool announcing
fresh-node gains only *after* insertion routing (a trivial-predicate
query's legs meet no ``TRUE`` member at the fresh endpoint when the
router applies the leg rule on the very batch that wired it, so
same-flush witness paths are declined), (5) the atom tier's reconcile
deriving a conjunction's membership from its *first* atom's posting set alone
(sibling atoms ignored — overlapping conjunctions diverge as soon as one
shared atom flips while another still fails), (6)/(7) the memoized edge
legs surviving ``observe_deleted`` / ``observe_inserted`` (routing and
repair read legs of a graph state that no longer exists), and (8) the
memoized recheck probes surviving ``observe_deleted`` (a
later flush's rechecks resume a BFS labelled on the previous flush's
graph and keep pairs whose witness path is gone).  In landmark mode the
landmark index's own invariants run after every flush, and they catch
(9) ``LandmarkIndex.apply_batch`` skipping InsLM's cover step (an edge
with no landmark endpoint) and (10) it skipping one column's repair (a
column that differs from a fresh BFS).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.isomorphism import iter_embeddings
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate
from tests.routing_truth import (
    distances_from_every_node,
    edge_routes,
    pool_routes,
)

MODES = ["bfs", "landmark"]
SEQUENCES = int(os.environ.get("SHARED_SUBSTRATE_SEQUENCES", "200"))
BASE_SEED = 0x5D1575
FLUSHES = 3
LABELS = ["A", "B", "C"]
SCORES = [0, 1, 2]


def _random_graph(rng: random.Random) -> DiGraph:
    n = rng.randint(2, 5)
    g = DiGraph()
    for v in range(n):
        g.add_node(v, label=rng.choice(LABELS), score=rng.choice(SCORES))
    for _ in range(rng.randint(1, 2 * n)):
        g.add_edge(rng.randrange(n), rng.randrange(n))
    return g


# Deliberately tiny, shared atom vocabulary: every conjunction below is
# drawn from these 3 + 3 atoms, so distinct predicates overlap on atoms
# and the atom tier's posting sets are leased by several conjunctions at
# once (the sharing the two-tier eligibility substrate exists for).
ATOM_VOCAB_LABEL = [Atom("label", "=", lb) for lb in LABELS]
ATOM_VOCAB_SCORE = [Atom("score", op, 1) for op in (">", ">=", "<")]


def _random_predicate(rng: random.Random) -> Predicate:
    """~1 in 3 trivial (TRUE, routed only thanks to the fresh-node
    announcement), else
    a conjunction over the small shared atom vocabulary — spelled in
    random conjunct order, so structurally-equal predicates exercise the
    canonical interning, and overlapping ones exercise atom-tier sharing.
    Occasionally (~6%) two *different* label-eq atoms are conjoined: a
    trivially-unsatisfiable predicate the substrate and router must keep
    upkeep-free without perturbing sibling conjunctions on those atoms."""
    if rng.random() < 0.35:
        return Predicate.true()
    atoms = [rng.choice(ATOM_VOCAB_LABEL)]
    if rng.random() < 0.06:
        atoms.append(rng.choice([a for a in ATOM_VOCAB_LABEL
                                 if a != atoms[0]]))
    elif rng.random() < 0.4:
        atoms.append(rng.choice(ATOM_VOCAB_SCORE))
        if rng.random() < 0.3:
            atoms.append(rng.choice([a for a in ATOM_VOCAB_SCORE
                                     if a != atoms[1]]))
    rng.shuffle(atoms)
    return Predicate(atoms)


def _random_pattern(rng: random.Random, normal: bool = False) -> Pattern:
    """A small b-pattern over label/score predicates (``normal=True``
    forces bound-1 edges, the class simulation/isomorphism accept)."""
    n = rng.randint(1, 3)
    p = Pattern()
    for u in range(n):
        p.add_node(u, _random_predicate(rng))
    for u in range(n):
        for w in range(n):
            if u != w and rng.random() < 0.4:
                p.add_edge(u, w, 1 if normal else rng.choice([1, 2, 3, None]))
    return p


class _Harness:
    """One differential run: one pool, one op stream, one oracle."""

    def __init__(self, seed: int, mode: str) -> None:
        self.rng = random.Random(seed)
        self.mode = mode
        self.pool = MatcherPool(_random_graph(self.rng))
        self.patterns = {}
        self._counter = 0
        self._next_node = 100
        for _ in range(self.rng.randint(1, 2)):
            self.register()

    def register(self) -> None:
        """Mostly bounded queries (the distance substrate's clients), with
        a mix of simulation and isomorphism so every index family's
        eligibility paths (flip adoption, withdrawal cascades, embedding
        re-anchoring) run under the same op stream."""
        roll = self.rng.random()
        if roll < 0.6:
            semantics = "bounded"
            pattern = _random_pattern(self.rng)
        elif roll < 0.85:
            semantics = "simulation"
            pattern = _random_pattern(self.rng, normal=True)
        else:
            semantics = "isomorphism"
            pattern = _random_pattern(self.rng, normal=True)
        name = f"q{self._counter}"
        self._counter += 1
        self.pool.register(
            pattern, semantics=semantics, name=name, distance_mode=self.mode
        )
        self.patterns[name] = (semantics, pattern)

    def unregister(self) -> None:
        if len(self.patterns) <= 1:
            return
        name = self.rng.choice(sorted(self.patterns))
        self.pool.unregister(self.pool.query(name))
        del self.patterns[name]

    def step(self) -> None:
        """Queue one random op batch, then flush."""
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
                # Wire a brand-new attribute-less node mid-flush: the case
                # only the substrate's fresh-node announcement makes
                # distance-routable for trivial predicates.
                v, w = rng.choice(nodes), self._next_node
                self._next_node += 1
                if rng.random() < 0.5:
                    v, w = w, v
                pool.queue(insert(v, w))
            elif roll < 0.84:
                v = self._next_node
                self._next_node += 1
                label = rng.choice(LABELS)
                pool.queue_node(v, label=label, score=rng.choice(SCORES))
            elif nodes:
                # Attribute flip on an existing node: eligibility may be
                # gained and lost, shrinking/growing member sets — a
                # label rewrite, a score-only merge (flipping conjunction
                # predicates without touching the label), or both.
                v = rng.choice(nodes)
                attrs = {}
                if rng.random() < 0.7:
                    attrs["label"] = rng.choice(LABELS)
                if rng.random() < 0.5 or not attrs:
                    attrs["score"] = rng.choice(SCORES)
                pool.queue_node(v, **attrs)
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
            if semantics == "simulation":
                truth = as_pairs(totalize(maximum_simulation(pattern, graph)))
            else:
                truth = as_pairs(totalize(bounded_match(pattern, graph)))
            got = as_pairs(query.matches())
            assert got == truth, (
                f"match mismatch for {name}: "
                f"extra={got - truth} missing={truth - got}"
            )
        self.pool.eligibility.check_invariants()
        lm = self.pool.substrate.landmark_index()
        if lm is not None:  # landmark mode, while a query leases it
            lm.check_invariants()

    def check_oracles(self) -> None:
        """At quiescence the router must route (x, y) to each
        distance-routed plan-interned query exactly when the textbook
        check holds on the current graph: some eligible source a and
        eligible target c with d(a, x) + 1 + d(y, c) <= k, for some
        pattern edge (:func:`tests.routing_truth.edge_routes`).
        (Mid-flush routing may lag by design — deletions consult
        pre-edit state — but between flushes exact structures admit no
        slack, so a stale memoized leg surfaces here even when no match
        pair happens to depend on the mis-routed edge.)
        """
        graph = self.pool.graph
        nodes = sorted(graph.nodes(), key=repr)
        dist = distances_from_every_node(graph)
        for q in self.pool.plan.views():
            if not q.distance_routed:
                continue
            for x in nodes:
                for y in nodes:
                    truth = edge_routes(dist, q.index, x, y)
                    got = pool_routes(self.pool, q, x, y)
                    assert got == truth, (
                        f"routing drift for {q.name} (mode={self.mode}): "
                        f"routes ({x!r}, {y!r}) = {got}, "
                        f"ground truth {truth}"
                    )

    def check_deep(self) -> None:
        """Pair-graph / counter drift checks — pricier, run on a sample of
        steps (isomorphism indexes have no structural invariants)."""
        for q in self.pool.queries() + self.pool.plan.views():
            check = getattr(q.index, "check_invariants", None)
            if check is not None:
                check()


def _run_sequence(seed: int, mode: str) -> None:
    harness = _Harness(seed, mode)
    for step in range(FLUSHES):
        roll = harness.rng.random()
        if roll < 0.15:
            harness.register()
        elif roll < 0.25:
            harness.unregister()
        harness.step()
        harness.check()
        harness.check_oracles()
        if step == FLUSHES - 1:
            harness.check_deep()


@pytest.mark.parametrize("mode", MODES)
def test_shared_substrate_differential_fuzz(mode):
    for i in range(SEQUENCES):
        seed = BASE_SEED * 1_000 + i
        try:
            _run_sequence(seed, mode)
        except AssertionError as exc:
            raise AssertionError(
                f"differential fuzz failure: mode={mode!r} seed={seed} — "
                f"replay with _run_sequence({seed}, {mode!r})"
            ) from exc


@pytest.mark.parametrize("mode", MODES)
def test_unregister_drops_structures_and_reregister_rebuilds(mode):
    """Lease bookkeeping across register/unregister churn: structures die
    with their last lease and are rebuilt fresh (and correct) on the next
    registration."""
    rng = random.Random(BASE_SEED)
    g = _random_graph(rng)
    pool = MatcherPool(g)
    p = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    )
    q1 = pool.register(p, semantics="bounded", name="q1", distance_mode=mode)
    pool.apply([insert(0, 1)])  # force routing legs / leases
    pool.unregister(q1)
    assert pool.substrate.live_structures() == {"landmark": 0}
    # Eligibility entries die with their last lease too (the query's
    # candidate views).
    assert pool.eligibility.num_entries() == 0
    # Mutate while nothing leases, then re-register: index must be built
    # on the current graph and stay correct through further flushes.
    pool.apply([insert(1, 0), delete(0, 1)])
    q2 = pool.register(p, semantics="bounded", name="q2", distance_mode=mode)
    pool.apply([insert(0, 1)])
    truth = as_pairs(totalize(bounded_match(p, pool.graph)))
    assert as_pairs(q2.matches()) == truth
    pool.eligibility.check_invariants()
