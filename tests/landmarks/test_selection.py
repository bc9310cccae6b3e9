"""Tests for landmark (vertex cover) selection."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.graphs.generators import complete_graph, cycle_graph, star, synthetic_graph
from repro.landmarks.selection import (
    LandmarkBudget,
    greedy_degree_cover,
    matching_vertex_cover,
    select_landmarks,
    stability_weighted_cover,
)
from tests.strategies import small_graphs


def is_vertex_cover(g: DiGraph, cover) -> bool:
    return all(v in cover or w in cover for v, w in g.edges())


COVERS = [matching_vertex_cover, greedy_degree_cover, stability_weighted_cover]


@pytest.mark.parametrize("cover_fn", COVERS)
class TestCovers:
    def test_covers_cycle(self, cover_fn):
        g = cycle_graph(6)
        assert is_vertex_cover(g, cover_fn(g))

    def test_covers_complete(self, cover_fn):
        g = complete_graph(5)
        assert is_vertex_cover(g, cover_fn(g))

    def test_self_loop_forces_node(self, cover_fn):
        g = DiGraph([("a", "a"), ("a", "b")])
        assert "a" in cover_fn(g)

    def test_empty_graph(self, cover_fn):
        assert cover_fn(DiGraph()) == set()

    def test_synthetic(self, cover_fn):
        g = synthetic_graph(50, 150, seed=2)
        assert is_vertex_cover(g, cover_fn(g))


class TestQuality:
    def test_degree_cover_small_on_star(self):
        g = star(10)
        cover = greedy_degree_cover(g)
        assert cover == {0}  # the hub alone covers everything

    def test_matching_cover_at_most_double_optimal_on_star(self):
        g = star(10)
        cover = matching_vertex_cover(g)
        assert len(cover) <= 2

    def test_stability_prefers_stable_endpoint(self):
        g = DiGraph([("churner", "stable")])
        freq = {"churner": 10.0, "stable": 0.0}
        cover = stability_weighted_cover(g, update_frequency=freq.get)
        assert cover == {"stable"}


class TestEntryPoint:
    def test_strategies(self):
        g = cycle_graph(4)
        for strategy in ("matching", "degree", "stability"):
            assert is_vertex_cover(g, set(select_landmarks(g, strategy)))

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            select_landmarks(DiGraph(), "psychic")

    def test_result_is_sorted_list(self):
        g = cycle_graph(4)
        lms = select_landmarks(g)
        assert lms == sorted(lms, key=repr)


@settings(max_examples=30, deadline=None)
@given(small_graphs())
def test_all_strategies_yield_valid_covers(g):
    for fn in COVERS:
        assert is_vertex_cover(g, fn(g))


class TestLandmarkBudget:
    """BatchLM re-selection trigger: bounds InsLM's monotone growth."""

    def _index(self, n=6):
        from repro.landmarks.vector import LandmarkIndex

        return LandmarkIndex(cycle_graph(n)), cycle_graph(n)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slack": 0.5},
            {"slack": float("nan")},
            {"slack": float("inf")},
            {"floor": float("nan")},
            {"floor": float("inf")},
            {"floor": -1},
        ],
        ids=["sub-one-slack", "nan-slack", "inf-slack", "nan-floor",
             "inf-floor", "negative-floor"],
    )
    def test_rejects_invalid_budget(self, kwargs):
        # A NaN slack makes the limit ``floor`` (BatchLM on every flush of
        # a pool past it); a NaN or infinite floor switches the budget off.
        with pytest.raises(ValueError):
            LandmarkBudget(**kwargs)

    def test_not_exceeded_at_baseline(self):
        lm, _ = self._index()
        assert not LandmarkBudget(slack=1.0, floor=0).exceeded(lm)

    def test_exceeded_after_inslm_growth(self):
        from repro.landmarks.vector import LandmarkIndex

        g = cycle_graph(4)
        lm = LandmarkIndex(g)
        budget = LandmarkBudget(slack=1.0, floor=0)
        # Wire fresh uncovered node pairs: each InsLM repair may add a
        # landmark, so the live set outgrows the baseline selection.
        for i in range(10):
            a, b = f"n{i}a", f"n{i}b"
            g.add_node(a)
            g.add_node(b)
            g.add_edge(a, b)
            lm.insert_edge(a, b)
        assert len(lm.landmarks()) > lm.selected_size
        assert budget.exceeded(lm)
        lm.rebuild()
        assert lm.selected_size == len(lm.landmarks())
        assert not budget.exceeded(lm)

    def test_floor_suppresses_tiny_rebuilds(self):
        from repro.landmarks.vector import LandmarkIndex

        g = cycle_graph(4)
        lm = LandmarkIndex(g)
        g.add_node("x")
        g.add_node("y")
        g.add_edge("x", "y")
        lm.insert_edge("x", "y")
        assert not LandmarkBudget(slack=1.0, floor=50).exceeded(lm)

    def test_pool_flush_triggers_batchlm_reselection(self):
        """Long-lived shared pools: landmark growth is re-selected away at
        flush once the budget trips, and matches stay correct."""
        from repro.engine import MatcherPool
        from repro.incremental.types import insert
        from repro.matching.bounded import bounded_match
        from repro.matching.relation import as_pairs, totalize
        from repro.patterns.pattern import Pattern

        g = cycle_graph(4)
        for v in g.nodes():
            g.add_node(v, label="A")
        pool = MatcherPool(g, lm_budget=LandmarkBudget(slack=1.0, floor=0))
        p = Pattern.from_spec(
            {"x": "label = A", "y": "label = A"}, [("x", "y", 2)]
        )
        q = pool.register(
            p, semantics="bounded", name="q", distance_mode="landmark"
        )
        lm = pool.substrate.landmark_index()
        grown = False
        for i in range(12):
            pool.apply([insert(f"m{i}a", f"m{i}b")])
            grown = grown or len(lm.landmarks()) > lm.selected_size
        assert pool.substrate.stats.lm_rebuilds > 0
        # Post-rebuild the live set matches a fresh selection and the
        # budget holds again.
        assert not pool.substrate.lm_budget.exceeded(lm)
        truth = as_pairs(totalize(bounded_match(p, pool.graph)))
        assert as_pairs(q.matches()) == truth
