"""Tests for landmark (vertex cover) selection."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import (
    chain,
    complete_graph,
    cycle_graph,
    star,
    synthetic_graph,
)
from repro.landmarks.selection import cover_endpoint, select_landmarks
from repro.landmarks.vector import (
    RESELECT_FACTOR,
    RESELECT_FLOOR,
    LandmarkIndex,
)
from tests.shapes import SHAPES, shape_graph
from tests.strategies import small_graphs


def is_vertex_cover(g: DiGraph, cover) -> bool:
    return all(v in cover or w in cover for v, w in g.edges())


class TestCovers:
    def test_covers_cycle(self):
        g = cycle_graph(6)
        assert is_vertex_cover(g, select_landmarks(g))

    def test_covers_complete(self):
        g = complete_graph(5)
        assert is_vertex_cover(g, select_landmarks(g))

    def test_self_loop_forces_node(self):
        g = DiGraph([("a", "a"), ("a", "b")])
        assert "a" in select_landmarks(g)

    def test_empty_graph(self):
        assert select_landmarks(DiGraph()) == []

    def test_synthetic(self):
        g = synthetic_graph(50, 150, seed=2)
        assert is_vertex_cover(g, select_landmarks(g))

    def test_result_is_sorted_list(self):
        g = cycle_graph(4)
        lms = select_landmarks(g)
        assert lms == sorted(lms, key=repr)


class TestCoverEndpoint:
    """One rule picks every landmark: an uncovered edge's endpoint of
    higher degree, its source on a tie."""

    def test_higher_degree_endpoint(self):
        g = star(3, outward=False)  # leaves -> hub 0
        assert cover_endpoint(g, 1, 0) == 0
        assert select_landmarks(g) == [0]

    def test_source_on_a_tie(self):
        g = DiGraph([("a", "b"), ("b", "a")])
        assert cover_endpoint(g, "a", "b") == "a"
        assert cover_endpoint(g, "b", "a") == "b"

    def test_edges_in_order_each_uncovered_one_gains_its_endpoint(self):
        # (0, 1) gains 1, which covers (1, 2); (2, 3) gains 2.
        assert select_landmarks(chain(4)) == [1, 2]

    def test_self_loop_is_its_own_endpoint(self):
        g = DiGraph([("a", "a"), ("b", "a"), ("c", "a")])
        assert cover_endpoint(g, "a", "a") == "a"


class TestQuality:
    """Graphs whose minimum cover is known: the rule finds it."""

    @pytest.mark.parametrize("outward", [True, False])
    def test_hub_alone_covers_a_star(self, outward):
        # The hub's degree is 10, each leaf's 1, whichever way the
        # edges point.
        assert select_landmarks(star(10, outward=outward)) == [0]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_selection_on_every_shape(shape):
    """On each shape the selection covers every edge, and each landmark
    is the :func:`cover_endpoint` of an edge at it (so no isolated node
    is picked).  ``LandmarkIndex`` starts from it, and after InsLM growth
    ``rebuild`` (BatchLM) selects it again for the edited graph."""
    g = shape_graph(shape)
    lms = select_landmarks(g)
    assert is_vertex_cover(g, set(lms))
    for v in lms:
        assert any(
            cover_endpoint(g, x, y) == v
            for x, y in g.edges() if v in (x, y)
        ), v
    lm = LandmarkIndex(g)
    assert lm.landmarks() == lms and lm.selected_size == len(lms)
    # An edge from a fresh node into every node; InsLM covers each one
    # that no landmark covers.
    ins = [("fresh", v) for v in list(g.nodes())]
    for x, y in ins:
        g.add_edge(x, y)
    lm.apply_batch(inserted=ins)
    lm.check_invariants()
    lm.rebuild()
    assert lm.landmarks() == select_landmarks(g)
    assert lm.selected_size == len(lm.landmarks())
    lm.check_invariants()


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_selection_is_a_cover(g):
    assert is_vertex_cover(g, set(select_landmarks(g)))


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_inslm_grows_the_cover_batchlm_selects(g):
    """Re-selection and online growth choose alike: inserting every edge
    of ``g`` in one batch into an edgeless index adds the landmarks
    ``select_landmarks(g)`` picks."""
    empty = DiGraph()
    for v in g.nodes():
        empty.add_node(v)
    lm = LandmarkIndex(empty)
    assert lm.landmarks() == []
    edges = list(g.edges())
    for x, y in edges:
        empty.add_edge(x, y)
    lm.apply_batch(inserted=edges)
    assert sorted(lm.landmarks(), key=repr) == select_landmarks(g)
    lm.check_invariants()


def _grow(g, lm, count, tag="n"):
    """Wire ``count`` uncovered edges between fresh nodes into ``g`` and
    repair ``lm`` in one InsLM batch: each edge adds one landmark."""
    edges = [(f"{tag}{i}a", f"{tag}{i}b") for i in range(count)]
    for x, y in edges:
        g.add_edge(x, y)
    lm.apply_batch(inserted=edges)


class TestLandmarkBudget:
    """BatchLM re-selection point: it bounds InsLM's monotone growth at
    ``max(RESELECT_FLOOR, RESELECT_FACTOR * selected_size)`` landmarks."""

    def test_constants(self):
        assert (RESELECT_FACTOR, RESELECT_FLOOR) == (2, 16)

    def test_not_exceeded_at_baseline(self):
        lm = LandmarkIndex(cycle_graph(6))
        assert not lm.outgrown()

    def test_exceeded_after_inslm_growth(self):
        g = cycle_graph(4)
        lm = LandmarkIndex(g)
        _grow(g, lm, RESELECT_FLOOR + 1)
        assert len(lm.landmarks()) > lm.selected_size
        assert lm.outgrown()
        lm.rebuild()
        assert lm.selected_size == len(lm.landmarks())
        assert not lm.outgrown()

    def test_floor_suppresses_tiny_rebuilds(self):
        """A small selection: the floor, not twice the selection, is the
        point, and growth up to it re-selects nothing."""
        g = cycle_graph(4)
        lm = LandmarkIndex(g)
        assert RESELECT_FACTOR * lm.selected_size < RESELECT_FLOOR
        _grow(g, lm, RESELECT_FLOOR - lm.selected_size)
        assert len(lm.landmarks()) == RESELECT_FLOOR
        assert not lm.outgrown()
        _grow(g, lm, 1, tag="m")
        assert lm.outgrown()

    def test_factor_bounds_growth_past_the_floor(self):
        """A selection past half the floor: twice the selection is the
        point."""
        g = cycle_graph(12)
        lm = LandmarkIndex(g)
        selected = lm.selected_size
        assert RESELECT_FACTOR * selected > RESELECT_FLOOR
        _grow(g, lm, (RESELECT_FACTOR - 1) * selected)
        assert len(lm.landmarks()) == RESELECT_FACTOR * selected
        assert not lm.outgrown()
        _grow(g, lm, 1, tag="m")
        assert lm.outgrown()

    def test_pool_flush_triggers_batchlm_reselection(self):
        """Long-lived shared pools: landmark growth is re-selected away at
        flush once InsLM outgrows the selection, and matches stay
        correct."""
        from repro.engine import MatcherPool
        from repro.incremental.types import insert
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import as_pairs, totalize
        from repro.patterns.pattern import Pattern

        g = cycle_graph(4)
        for v in g.nodes():
            g.add_node(v, label="A")
        pool = MatcherPool(g)
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = A"}, [("x", "y", 2)]
        )
        q = pool.register(
            p, semantics="bounded", name="q", distance_mode="landmark"
        )
        lm = pool.substrate.landmark_index()
        for i in range(RESELECT_FLOOR + 1):
            pool.apply([insert(f"m{i}a", f"m{i}b")])
        assert pool.substrate.stats.lm_rebuilds > 0
        # Post-rebuild the live set matches a fresh selection and the
        # index is within its re-selection point again.
        assert not lm.outgrown()
        truth = as_pairs(totalize(bounded_match(p, pool.graph)))
        assert as_pairs(q.matches()) == truth
