"""Stateful differential fuzzer: two shared-substrate pools ≡ batch.

Two :class:`~repro.engine.pool.MatcherPool` instances — both leasing every
query's eligible sets from the pool's
:class:`~repro.engine.eligibility.SharedEligibilityIndex` and every
bounded query's distance structures from its
:class:`~repro.engine.distances.SharedDistanceSubstrate` — are driven
through the *same* seeded random op sequence: edge insert/delete churn,
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

The sweep runs once per ``(distance mode × plan scope × graph backend ×
kernel mode)``.  The first pool takes the parametrized plan scope and
graph backend, its twin the *opposite* of each: every sequence pits
per-query indexes against the shared multi-query plan's interned
indexes (both reading the same substrates), and is simultaneously a dict ≡
columnar backend differential — the two pools run the same op stream on
opposite storage layouts and their graphs are asserted equal (via the
backend-generic ``DiGraph.__eq__``) after every flush.  The
``REPRO_KERNELS`` sweep makes each of those sequences also a kernel
differential: under ``numpy`` the columnar-backed pool runs the
vectorized atom/BFS/condensation kernels while the dict-backed pool runs
the pure-Python twins over the identical op stream (under ``python``
both pools run the twins).  Distance modes cover all four structures,
including the SCC-interval reachability oracle (``mode='interval'``).
After every flush, each registered query's match set under both pools
must equal a from-scratch batch recomputation
(:func:`~repro.matching.bounded.bounded_match`) on the current graph,
and the eligibility member sets must pass their exactness invariants.
``check_oracles`` probes ``can_affect_edge`` of every distance-routed
query and interned index over every node pair at quiescence: exact for the
modes routed by the edge legs, and — after forcing a
clean labelling — exact against the *reachability* ground truth for
interval mode (whose routing answer is by design the radius-free
over-approximation).

All randomness flows from ``random.Random`` seeds derived from a pinned
base, so every failure message names the exact seed that replays it:

    SHARED_SUBSTRATE_SEQUENCES=1 PYTHONPATH=src python -m pytest \
        "tests/differential/test_shared_substrate.py::test_shared_substrate_differential_fuzz[bfs-shared-dict-python]"

then rerun ``_run_sequence(<seed>, "<mode>", "<plan scope>",
"<backend>")`` from a REPL, or simply re-run the test — the sweep is
deterministic end to end.  Scale with ``SHARED_SUBSTRATE_SEQUENCES``
(default 200 sequences per parametrization).

Mutation-tested: the sweep (at its default scale) catches each of these
bugs injected one at a time into the substrates —
(1) ``ReachClosure`` ignoring the member-set version (interval routing
keeps a closure over members that have since flipped), (2) the
reconcile reporting a loss flip without removing the member (set/report
desync, caught by the member invariants), (3) the pool routing only the
predicates with a *gained* flip (demotions never routed), (4) incsim's
shared-layer adoption skipping the support-counter init (KeyError /
drift on later cascades), (5) the pool announcing fresh-node gains only
*after* insertion routing (a trivial-predicate query's legs meet no
``TRUE`` member at the fresh endpoint when the oracle rules on the very
batch that wired it, so same-flush witness paths are declined), (6) the
atom tier's reconcile deriving a conjunction's membership from its
*first* atom's posting set alone (sibling atoms ignored — overlapping
conjunctions diverge as soon as one shared atom flips while another
still fails), (7) the substrate's ``observe_inserted`` notifying the
interval reachability oracle via ``notify_edges_deleted``
(insert-staleness: new edges fall under the tolerated-deletion budget
instead of forcing the rebuild, so the closures miss freshly created
reachability and routing falsely declines edges — caught by the
pre-rebuild soundness pass in ``check_oracles``), (8)/(9) the
memoized edge legs surviving ``observe_deleted`` / ``observe_inserted``
(routing and repair read legs of a graph state that no longer exists),
and (10) the memoized recheck probes surviving ``observe_deleted`` (a
later flush's rechecks resume a BFS labelled on the previous flush's
graph and keep pairs whose witness path is gone).
"""

from __future__ import annotations

import os
import random

import pytest

from repro.engine import MatcherPool
from repro.graphs import kernels
from repro.graphs.digraph import DiGraph
from repro.incremental.types import delete, insert
from repro.matching.bounded import bounded_match
from repro.matching.isomorphism import iter_embeddings
from repro.matching.relation import as_pairs, totalize
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Atom, Predicate
from tests.routing_truth import distances_from_every_node, edge_routes

MODES = ["bfs", "landmark", "matrix", "interval"]
PLAN_SCOPES = ["shared", "per-query"]
GRAPH_BACKENDS = ["dict", "columnar"]
KERNEL_MODES = (
    ["numpy", "python"] if kernels.numpy_available() else ["python"]
)
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
    """One differential run: two pools, one op stream, one oracle."""

    def __init__(
        self,
        seed: int,
        mode: str,
        plan_scope: str = "shared",
        backend: str = "dict",
    ) -> None:
        self.rng = random.Random(seed)
        self.mode = mode
        base = _random_graph(self.rng)
        # The twin runs the opposite plan scope on the *opposite* graph
        # backend, so every sequence is also a dict ≡ columnar
        # differential: the graph equality in check() compares across
        # backends, and every index family runs its whole op stream on
        # both storage layouts.
        other_scope = "per-query" if plan_scope == "shared" else "shared"
        other_backend = "columnar" if backend == "dict" else "dict"
        self.first = MatcherPool(
            base.copy(), plan_scope=plan_scope, graph_backend=backend
        )
        self.twin = MatcherPool(
            base.copy(), plan_scope=other_scope, graph_backend=other_backend
        )
        self.patterns = {}
        self._counter = 0
        self._next_node = 100
        for _ in range(self.rng.randint(1, 2)):
            self.register()

    def pools(self):
        return (self.first, self.twin)

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
        for pool in self.pools():
            pool.register(
                pattern, semantics=semantics, name=name,
                distance_mode=self.mode,
            )
        self.patterns[name] = (semantics, pattern)

    def unregister(self) -> None:
        if len(self.patterns) <= 1:
            return
        name = self.rng.choice(sorted(self.patterns))
        for pool in self.pools():
            pool.unregister(pool.query(name))
        del self.patterns[name]

    def step(self) -> None:
        """Queue one random op batch into both pools, then flush both."""
        rng = self.rng
        nodes = sorted(self.first.graph.nodes(), key=repr)
        edges = sorted(self.first.graph.edges(), key=repr)
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
                # Wire a brand-new attribute-less node mid-flush: the case
                # only the substrate's fresh-node announcement makes
                # distance-routable for trivial predicates.
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
                score = rng.choice(SCORES)
                for pool in self.pools():
                    pool.queue_node(v, label=label, score=score)
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
                for pool in self.pools():
                    pool.queue_node(v, **attrs)
        for pool in self.pools():
            pool.flush()

    def check(self) -> None:
        graph = self.first.graph
        assert graph == self.twin.graph, "graph divergence"
        for name, (semantics, pattern) in sorted(self.patterns.items()):
            if semantics == "isomorphism":
                truth_embs = {
                    frozenset(e.items())
                    for e in iter_embeddings(pattern, graph)
                }
                for pool in self.pools():
                    got = {
                        frozenset(e.items())
                        for e in pool.query(name).embeddings()
                    }
                    assert got == truth_embs, (
                        f"embedding mismatch for {name} "
                        f"({_tag(pool)}): "
                        f"extra={got - truth_embs} "
                        f"missing={truth_embs - got}"
                    )
                continue
            if semantics == "simulation":
                truth = as_pairs(totalize(maximum_simulation(pattern, graph)))
            else:
                truth = as_pairs(totalize(bounded_match(pattern, graph)))
            for pool in self.pools():
                got = as_pairs(pool.query(name).matches())
                assert got == truth, (
                    f"match mismatch for {name} ({_tag(pool)}): "
                    f"extra={got - truth} missing={truth - got}"
                )
        for pool in self.pools():
            pool.substrate.check_invariants()
            pool.eligibility.check_invariants()

    def check_oracles(self) -> None:
        """At quiescence every distance-routed oracle — of a per-query
        index or of a plan-interned one — must agree with the textbook check
        on the current graph: some eligible source a and eligible target
        c with d(a, x) + 1 + d(y, c) <= k, for some pattern edge
        (:func:`tests.routing_truth.edge_routes`).  (Mid-flush the oracle
        may lag by design — deletions consult pre-edit state — but
        between flushes exact structures admit no slack, so a stale
        memoized leg surfaces here even when no match pair happens to
        depend on the mis-routed edge.)
        """
        graph = self.first.graph
        nodes = sorted(graph.nodes(), key=repr)
        dist = distances_from_every_node(graph)
        interval = self.mode == "interval"
        for pool in self.pools():
            routed = [q for q in pool.queries() if not q.planned]
            for q in routed + pool.plan.views():
                if not q.distance_routed:
                    continue
                name, idx = q.name, q.index
                if interval:
                    # Soundness pass FIRST, against whatever labelling the
                    # flush left behind: staleness may only ever widen the
                    # answer (stale deletions err True), never narrow it —
                    # a reachable pair the oracle calls False is a missed
                    # repair.  This is the probe that catches an insertion
                    # recorded in the wrong direction (bug 7 below): the
                    # later exact pass would mask it behind its forced
                    # rebuild.
                    for x in nodes:
                        for y in nodes:
                            if edge_routes(dist, idx, x, y, reachability=True):
                                assert idx.can_affect_edge(x, y), (
                                    f"unsound interval routing for {name} "
                                    f"({_tag(pool)}): "
                                    f"can_affect_edge({x!r}, {y!r}) is "
                                    f"False but the pair is reachable "
                                    f"through eligible endpoints"
                                )
                    # Now force an exact labelling: reachable() rebuilds
                    # when dirty, the closures recompute on the version
                    # bump, and the equality pass below admits no slack.
                    if nodes:
                        reach = idx.reachability_index()
                        if reach is not None:
                            reach.reachable(nodes[0], nodes[0])
                for x in nodes:
                    for y in nodes:
                        # Interval routing drops the radius caps: it
                        # answers pure reachability, an over-approximation
                        # of the bounded truth.
                        truth = edge_routes(
                            dist, idx, x, y, reachability=interval
                        )
                        got = idx.can_affect_edge(x, y)
                        assert got == truth, (
                            f"oracle drift for {name} "
                            f"({_tag(pool)}, mode={self.mode}): "
                            f"can_affect_edge({x!r}, {y!r}) = {got}, "
                            f"ground truth {truth}"
                        )

    def check_deep(self) -> None:
        """Pair-graph / counter drift checks — pricier, run on a sample of
        steps (isomorphism indexes have no structural invariants)."""
        for pool in self.pools():
            for q in pool.queries() + pool.plan.views():
                check = getattr(q.index, "check_invariants", None)
                if check is not None:
                    check()


def _tag(pool: MatcherPool) -> str:
    return f"plan_scope={pool.plan_scope}, backend={pool.graph_backend}"


def _run_sequence(
    seed: int, mode: str, plan_scope: str = "shared", backend: str = "dict"
) -> None:
    harness = _Harness(seed, mode, plan_scope, backend)
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


@pytest.mark.parametrize("kernels_mode", KERNEL_MODES)
@pytest.mark.parametrize("backend", GRAPH_BACKENDS)
@pytest.mark.parametrize("plan_scope", PLAN_SCOPES)
@pytest.mark.parametrize("mode", MODES)
def test_shared_substrate_differential_fuzz(
    mode, plan_scope, backend, kernels_mode, monkeypatch
):
    monkeypatch.setenv("REPRO_KERNELS", kernels_mode)
    for i in range(SEQUENCES):
        seed = BASE_SEED * 1_000 + i
        try:
            _run_sequence(seed, mode, plan_scope, backend)
        except AssertionError as exc:
            raise AssertionError(
                f"differential fuzz failure: mode={mode!r} "
                f"plan_scope={plan_scope!r} backend={backend!r} "
                f"kernels={kernels_mode!r} seed={seed} — replay with "
                f"REPRO_KERNELS={kernels_mode} "
                f"_run_sequence({seed}, {mode!r}, {plan_scope!r}, "
                f"{backend!r})"
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
    pool.apply([insert(0, 1)])  # force oracle consults / leases
    pool.unregister(q1)
    live = pool.substrate.live_structures()
    assert live["landmark"] == 0
    assert live["matrix"] == 0
    assert live["reach"] == 0
    assert live["closures"] == 0
    # Eligibility entries die with their last lease too (the query's
    # candidate views and the substrate's closure members).
    assert pool.eligibility.num_entries() == 0
    # Mutate while nothing leases, then re-register: index must be built
    # on the current graph and stay correct through further flushes.
    pool.apply([insert(1, 0), delete(0, 1)])
    q2 = pool.register(p, semantics="bounded", name="q2", distance_mode=mode)
    pool.apply([insert(0, 1)])
    truth = as_pairs(totalize(bounded_match(p, pool.graph)))
    assert as_pairs(q2.matches()) == truth
    pool.substrate.check_invariants()
