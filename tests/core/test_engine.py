"""Tests for the Matcher facade."""

import pytest

from repro.core.engine import Matcher
from repro.graphs.digraph import DiGraph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.inciso import IsoIndex
from repro.incremental.incsim import SimulationIndex
from repro.incremental.types import delete, insert
from repro.matching.relation import as_pairs
from repro.patterns.pattern import Pattern, PatternError


def normal_pattern():
    return Pattern.normal_from_labels(
        {"c": "CTO", "d": "DB", "b": "Bio"},
        [("c", "d"), ("d", "b")],
        attribute="job",
    )


class TestConstruction:
    def test_default_semantics_bounded(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        assert isinstance(m.index, BoundedSimulationIndex)

    def test_simulation_semantics(self, friendfeed_graph):
        m = Matcher(normal_pattern(), friendfeed_graph, semantics="simulation")
        assert isinstance(m.index, SimulationIndex)

    def test_isomorphism_semantics(self, friendfeed_graph):
        m = Matcher(normal_pattern(), friendfeed_graph, semantics="isomorphism")
        assert isinstance(m.index, IsoIndex)

    def test_unknown_semantics_rejected(self, friendfeed_graph):
        with pytest.raises(ValueError):
            Matcher(normal_pattern(), friendfeed_graph, semantics="telepathy")

    def test_matrix_distance_mode_rejected(
        self, friendfeed_pattern, friendfeed_graph
    ):
        """A matcher is a one-query pool, and the pool's distance modes
        are bfs and landmark: the standalone index's matrix mode is
        refused by the pool's registration check."""
        with pytest.raises(ValueError, match="distance_mode"):
            Matcher(
                friendfeed_pattern, friendfeed_graph, distance_mode="matrix"
            )

    def test_b_pattern_rejected_for_simulation(
        self, friendfeed_pattern, friendfeed_graph
    ):
        with pytest.raises(PatternError):
            Matcher(friendfeed_pattern, friendfeed_graph, semantics="simulation")

    def test_b_pattern_rejected_for_isomorphism(
        self, friendfeed_pattern, friendfeed_graph
    ):
        with pytest.raises(PatternError):
            Matcher(friendfeed_pattern, friendfeed_graph, semantics="isomorphism")

    def test_empty_pattern_rejected(self, friendfeed_graph):
        with pytest.raises(PatternError):
            Matcher(Pattern(), friendfeed_graph)


class TestResults:
    def test_matches_for_relation_semantics(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        assert m.matches()["CTO"] == {"Ann"}
        assert m.is_match()

    def test_matches_raises_for_iso(self, friendfeed_graph):
        m = Matcher(normal_pattern(), friendfeed_graph, semantics="isomorphism")
        with pytest.raises(PatternError):
            m.matches()
        assert m.embeddings()

    def test_embeddings_raises_for_relation(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        with pytest.raises(PatternError):
            m.embeddings()

    def test_is_match_false_when_empty(self):
        g = DiGraph()
        g.add_node("x", job="Unrelated")
        m = Matcher(normal_pattern(), g, semantics="simulation")
        assert not m.is_match()

    def test_result_graph_all_semantics(self, friendfeed_graph):
        p = friendfeed_graph  # alias to satisfy line length
        for semantics in ("simulation", "isomorphism"):
            m = Matcher(normal_pattern(), friendfeed_graph.copy(), semantics=semantics)
            gr = m.result_graph()
            assert gr.has_node("Ann")

    def test_result_graph_bounded(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        assert m.result_graph().has_node("Ann")

    def test_stats_exposed(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        assert m.stats is not None
        m_iso = Matcher(normal_pattern(), friendfeed_graph.copy(), semantics="isomorphism")
        assert m_iso.stats is None


class TestUpdates:
    @pytest.mark.parametrize("semantics", ["simulation", "bounded", "isomorphism"])
    def test_insert_delete_round_trip(self, friendfeed_graph, semantics):
        pattern = (
            normal_pattern()
            if semantics != "bounded"
            else Pattern.from_spec(
                {"c": "job = CTO", "d": "job = DB"}, [("c", "d", 2)]
            )
        )
        m = Matcher(pattern, friendfeed_graph.copy(), semantics=semantics)
        assert m.insert_edge("Don", "Pat")
        assert m.delete_edge("Don", "Pat")

    def test_apply_batch(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        m.apply([insert("Don", "Pat"), insert("Pat", "Don"), insert("Don", "Tom")])
        assert "Don" in m.matches()["CTO"]

    def test_add_node_then_connect(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        m.add_node("Zoe", job="Bio")
        m.insert_edge("Ann", "Zoe")
        assert "Zoe" in m.matches()["Bio"]

    def test_incremental_equals_fresh_matcher(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph.copy())
        m.apply([insert("Don", "Pat"), insert("Pat", "Don"), delete("Ann", "Bill")])
        fresh = Matcher(friendfeed_pattern, m.graph.copy())
        assert as_pairs(m.matches()) == as_pairs(fresh.matches())
