"""Tests for attribute-update maintenance ("user edits her profile").

Differential property throughout: after any attribute change the index
equals a from-scratch recomputation on the current graph.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Matcher
from repro.graphs.digraph import DiGraph
from repro.incremental.incbsim import BoundedSimulationIndex
from repro.incremental.incsim import SimulationIndex
from repro.incremental.inciso import IsoIndex
from repro.matching.bounded import bounded_match_naive
from repro.matching.isomorphism import brute_force_embeddings
from repro.matching.relation import as_pairs
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern
from tests.strategies import LABELS, small_graphs, small_patterns


def job_pattern():
    return Pattern.normal_from_labels(
        {"c": "CTO", "d": "DB", "b": "Bio"},
        [("c", "d"), ("d", "b")],
        attribute="job",
    )


class TestSimulationIndex:
    def test_losing_eligibility_demotes(self, friendfeed_graph):
        idx = SimulationIndex(job_pattern(), friendfeed_graph)
        assert "Pat" in idx.raw_match_sets()["d"]
        idx.update_node_attrs("Pat", job="Retired")
        assert "Pat" not in idx.raw_match_sets()["d"]
        assert as_pairs(idx.raw_match_sets()) == as_pairs(
            maximum_simulation(idx.pattern, idx.graph)
        )
        idx.check_invariants()

    def test_loss_cascades_to_parents(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("b", "B"), ("c", "C")):
            g.add_node(n, label=lab)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
        )
        idx = SimulationIndex(p, g)
        idx.update_node_attrs("c", label="Z")
        assert idx.raw_match_sets() == {"x": set(), "y": set(), "z": set()}
        idx.check_invariants()

    def test_gaining_eligibility_promotes(self, friendfeed_graph):
        idx = SimulationIndex(job_pattern(), friendfeed_graph)
        # Ross (Med) becomes a DB researcher with a Bio child? Ross -> Dan
        # (DB) only; give Ross the right child first.
        idx.insert_edge("Ross", "Bill")
        idx.update_node_attrs("Ross", job="DB")
        assert "Ross" in idx.raw_match_sets()["d"]
        assert as_pairs(idx.raw_match_sets()) == as_pairs(
            maximum_simulation(idx.pattern, idx.graph)
        )
        idx.check_invariants()

    def test_gain_can_cascade_upward(self):
        g = DiGraph()
        for n, lab in (("a", "A"), ("b", "?"), ("c", "C")):
            g.add_node(n, label=lab)
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
        )
        idx = SimulationIndex(p, g)
        assert idx.matches() == {"x": set(), "y": set(), "z": set()}
        idx.update_node_attrs("b", label="B")
        assert idx.raw_match_sets() == {"x": {"a"}, "y": {"b"}, "z": {"c"}}
        idx.check_invariants()

    def test_update_unknown_node_creates_it(self):
        g = DiGraph()
        p = Pattern.normal_from_labels({"x": "A"}, [])
        idx = SimulationIndex(p, g)
        idx.update_node_attrs("new", label="A")
        assert idx.raw_match_sets()["x"] == {"new"}

    def test_irrelevant_change_is_noop(self, friendfeed_graph):
        idx = SimulationIndex(job_pattern(), friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.update_node_attrs("Ann", hobby="golf")
        assert as_pairs(idx.raw_match_sets()) == before
        idx.check_invariants()


class TestBoundedIndex:
    def test_losing_eligibility(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        idx.update_node_attrs("Bill", job="Med")
        ref = bounded_match_naive(idx.pattern, idx.graph)
        assert as_pairs(idx.raw_match_sets()) == as_pairs(ref)

    def test_gaining_eligibility(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        # Ross becomes a CTO: reaches Dan (DB, 1 hop) and needs Bio in 1.
        idx.update_node_attrs("Ross", job="CTO")
        ref = bounded_match_naive(idx.pattern, idx.graph)
        assert as_pairs(idx.raw_match_sets()) == as_pairs(ref)
        idx.check_invariants()

    def test_round_trip_restores(self, friendfeed_pattern, friendfeed_graph):
        idx = BoundedSimulationIndex(friendfeed_pattern, friendfeed_graph)
        before = as_pairs(idx.raw_match_sets())
        idx.update_node_attrs("Pat", job="Sabbatical")
        idx.update_node_attrs("Pat", job="DB")
        assert as_pairs(idx.raw_match_sets()) == before
        idx.check_invariants()


class TestIsoIndex:
    def test_invalidation(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        assert idx.count() == 1
        idx.update_node_attrs("b", label="Z")
        assert idx.count() == 0
        assert brute_force_embeddings(p, idx.graph) == []

    def test_new_embeddings_found(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        idx.update_node_attrs("c", label="A")  # c -> a is now ... no B
        idx.update_node_attrs("a", label="B")  # c(A) -> a(B)
        got = {frozenset(e.items()) for e in idx.embeddings()}
        ref = {frozenset(e.items()) for e in brute_force_embeddings(p, idx.graph)}
        assert got == ref


class TestEngine:
    def test_update_node_attrs_exposed(self, friendfeed_pattern, friendfeed_graph):
        m = Matcher(friendfeed_pattern, friendfeed_graph)
        m.update_node_attrs("Bill", job="Med")
        assert "Bill" not in m.matches().get("Bio", set())


@settings(max_examples=30, deadline=None)
@given(
    small_graphs(),
    small_patterns(max_bound=1, allow_star=False),
    st.lists(st.sampled_from(LABELS + ["Z"]), min_size=1, max_size=4),
)
def test_random_attr_flips_match_batch_sim(g, p, new_labels):
    idx = SimulationIndex(p, g.copy())
    nodes = sorted(g.nodes())
    for i, lab in enumerate(new_labels):
        v = nodes[i % len(nodes)]
        idx.update_node_attrs(v, label=lab)
        assert as_pairs(idx.raw_match_sets()) == as_pairs(
            maximum_simulation(p, idx.graph)
        )
        idx.check_invariants()


@settings(max_examples=25, deadline=None)
@given(
    small_graphs(),
    small_patterns(),
    st.lists(st.sampled_from(LABELS + ["Z"]), min_size=1, max_size=3),
)
def test_random_attr_flips_match_batch_bounded(g, p, new_labels):
    idx = BoundedSimulationIndex(p, g.copy())
    nodes = sorted(g.nodes())
    for i, lab in enumerate(new_labels):
        v = nodes[i % len(nodes)]
        idx.update_node_attrs(v, label=lab)
        assert as_pairs(idx.raw_match_sets()) == as_pairs(
            bounded_match_naive(p, idx.graph)
        )
        idx.check_invariants()
