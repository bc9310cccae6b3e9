"""Unit tests for the ball fields behind distance-aware pool routing and
the substrate-backed ``BoundedSimulationIndex.can_affect_edge`` oracle."""

import random

import pytest

from repro.engine import MatcherPool
from repro.graphs.digraph import DiGraph
from repro.graphs.traversal import bfs_distances
from repro.incremental.ballsummary import BallField
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.patterns.pattern import Pattern


def chain_graph():
    """a -> m1 -> m2 -> b, with predicates only matching the ends."""
    g = DiGraph()
    g.add_node("a", label="A")
    g.add_node("b", label="B")
    g.add_node("m1", label="M")
    g.add_node("m2", label="M")
    g.add_edge("a", "m1")
    g.add_edge("m1", "m2")
    g.add_edge("m2", "b")
    return g


class _EdgeOracle:
    """One pattern edge's routing oracle, built the way the pool
    substrate builds it: a forward field over the source set and a
    backward field over the target set, both read at radius ``k - 1``."""

    def __init__(self, g, k, sources, targets):
        self.r = None if k is None else k - 1
        self.src = BallField(g, sources, self.r)
        self.tgt = BallField(g, targets, self.r, reverse=True)
        self.fields = (self.src, self.tgt)

    def can_affect(self, x, y):
        return self.src.within(x, self.r) and self.tgt.within(y, self.r)

    def note_inserted(self, edges):
        for field in self.fields:
            field.grow_edges(edges)

    def note_deleted(self, edges):
        for field in self.fields:
            field.shrink_edges(edges)

    def rebuilds(self):
        return [field.rebuilds for field in self.fields]

    def check_exact(self):
        for field in self.fields:
            field.check_exact()


class TestSummary:
    def test_membership_matches_true_balls(self):
        g = chain_graph()
        s = _EdgeOracle(g, 3, {"a"}, {"b"})
        # Every edge of the a ->(3) b witness path is relevant...
        assert s.can_affect("a", "m1")
        assert s.can_affect("m1", "m2")
        assert s.can_affect("m2", "b")
        # ... but an edge whose source is out of the radius-2 source ball
        # (d(a, b) = 3 > 2) is not.
        assert not s.can_affect("b", "a")
        s.check_exact()

    def test_grows_on_insert(self):
        g = DiGraph()
        for n, lab in [("a", "A"), ("b", "B"), ("c", "M")]:
            g.add_node(n, label=lab)
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        assert not s.can_affect("c", "b")
        g.add_edge("a", "c")
        s.note_inserted([("a", "c")])
        assert s.can_affect("c", "b")
        s.check_exact()

    def test_grows_on_eligibility_gain(self):
        g = chain_graph()
        sources = {"a"}
        s = _EdgeOracle(g, 2, sources, {"b"})
        # b is 3 hops from a: nothing near b is source-relevant yet.
        assert not s.can_affect("m2", "b")
        sources.add("m1")
        s.src.source_gained("m1")
        assert s.can_affect("m2", "b")
        s.check_exact()

    def test_tightens_immediately_on_deletion(self):
        """Decremental repair replaces threshold rebuilds: pruning power
        is restored by the deletion itself, with no rebuild at all."""
        g = chain_graph()
        s = _EdgeOracle(g, 3, {"a"}, {"b"})
        g.remove_edge("a", "m1")
        s.note_deleted([("a", "m1")])
        assert not s.can_affect("m1", "m2")
        assert s.rebuilds() == [1, 1]  # only the constructors' builds
        s.check_exact()

    def test_deletion_burst_repairs_without_rebuilds(self):
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("b", label="B")
        xs = [f"x{i}" for i in range(20)]
        for x in xs:
            g.add_node(x, label="M")
            g.add_edge("a", x)
            g.add_edge(x, "b")
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        for x in xs:
            g.remove_edge("a", x)
            s.note_deleted([("a", x)])
            assert not s.can_affect(x, "b")  # tight after every deletion
        assert s.rebuilds() == [1, 1]  # never rebuilt
        s.check_exact()

    def test_eligibility_loss_repairs_decrementally(self):
        g = chain_graph()
        sources = {"a", "m1"}
        s = _EdgeOracle(g, 2, sources, {"b"})
        assert s.can_affect("m2", "b")  # via the m1 source
        sources.remove("m1")
        s.src.source_lost("m1")
        assert not s.can_affect("m2", "b")
        s.check_exact()

    def test_irrelevant_updates_cost_nothing(self):
        g = chain_graph()
        for n in ("p", "q"):
            g.add_node(n, label="Z")
        g.add_edge("p", "q")
        s = _EdgeOracle(g, 2, {"a"}, {"b"})
        # Foreign-component churn neither routes nor perturbs the fields.
        assert not s.can_affect("p", "q")
        g.remove_edge("p", "q")
        s.note_deleted([("p", "q")])
        g.add_edge("p", "q")
        s.note_inserted([("p", "q")])
        assert not s.can_affect("p", "q")
        s.check_exact()


@pytest.mark.parametrize("mode", ["bfs", "landmark", "matrix"])
def test_oracle_agrees_with_ground_truth(mode):
    """On a freshly registered pool query the substrate-backed oracle
    must equal the textbook check: some eligible source within k-1
    (possibly-empty) hops of x AND y within k-1 hops of some eligible
    target, for some pattern edge."""
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(3, 7)
        g = DiGraph()
        for v in range(n):
            g.add_node(v, label=rng.choice(["A", "B", "M"]))
        for _ in range(rng.randint(2, 2 * n)):
            g.add_edge(rng.randrange(n), rng.randrange(n))
        k = rng.choice([2, 3, None])
        pattern = Pattern.from_spec(
            {"x": "label = A", "y": "label = B"},
            [("x", "y", k)],
        )
        pool = MatcherPool(g)
        q = pool.register(pattern, semantics="bounded", distance_mode=mode)
        assert q.distance_routed
        idx = q.index
        graph = pool.graph
        r = None if k is None else k - 1

        def leg_ok(src, dst, rad):
            d = bfs_distances(graph, src).get(dst)
            return d is not None and (rad is None or d <= rad)

        for x in graph.nodes():
            for y in graph.nodes():
                truth = any(
                    leg_ok(a, x, r) for a in idx.eligible["x"]
                ) and any(leg_ok(y, c, r) for c in idx.eligible["y"])
                assert idx.can_affect_edge(x, y) == truth, (mode, k, x, y)


def test_standalone_index_has_no_routing_oracle():
    """The routing oracle reads pool substrate structures only."""
    pattern = Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    )
    idx = BoundedSimulationIndex(pattern, chain_graph())
    with pytest.raises(RuntimeError):
        idx.can_affect_edge("a", "m1")


class TestStratifiedField:
    """One BallField per (sources, direction) answers *every* radius up
    to its cap: entries at d <= cap are cap-independent, so `within(v, r)`
    with r <= cap needs no per-radius field."""

    def _field(self, radius):
        g = DiGraph([("s", "a"), ("a", "b"), ("b", "c"), ("c", "d")])
        return g, BallField(g, {"s"}, radius)

    def test_within_answers_every_stratum(self):
        g, f = self._field(3)
        assert f.within("s", 0)
        assert f.within("a", 1) and not f.within("b", 1)
        assert f.within("b", 2) and f.within("c", 3)
        assert not f.within("d", 3)  # beyond the cap and beyond d=3

    def test_within_beyond_cap_rejected(self):
        _, f = self._field(2)
        with pytest.raises(ValueError):
            f.within("a", 3)

    def test_uncapped_field_serves_finite_radii(self):
        _, f = self._field(None)
        assert f.within("d", 4) and not f.within("d", 3)
        assert f.within("d")  # reachability stratum

    def test_finite_field_rejects_unbounded_query(self):
        _, f = self._field(2)
        with pytest.raises(ValueError):
            f.within("a")

    def test_shrink_then_regrow_is_exact(self):
        g, f = self._field(4)
        full = dict(f.dist)
        f.set_radius(2)
        assert f.dist == {v: d for v, d in full.items() if d <= 2}
        f.set_radius(4)  # regrow from the d == 2 frontier
        assert f.dist == full

    def test_grow_to_unbounded(self):
        g, f = self._field(1)
        f.set_radius(None)
        assert f.within("d")
        assert f.dist["d"] == 4

    def test_grow_sees_post_shrink_mutations(self):
        g, f = self._field(1)
        g.add_edge("a", "z")
        f.grow_edges([("a", "z")])
        f.set_radius(3)
        assert f.within("z", 2)
        assert f.within("c", 3)
