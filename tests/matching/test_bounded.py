"""Tests for bounded simulation (algorithm Match, paper Section 3)."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.graphs.distance import DistanceMatrix
from repro.graphs.generators import chain as uniform_chain
from repro.graphs.generators import cycle_graph
from repro.matching.bounded import bounded_match, bounded_match_naive
from repro.matching.oracles import BFSOracle, MatrixOracle
from repro.matching.relation import as_pairs, totalize
from repro.matching.result_graph import simulation_result_graph
from repro.matching.simulation import maximum_simulation
from repro.patterns.pattern import Pattern
from tests.shapes import SHAPES, shape_graph
from tests.strategies import small_graphs, small_patterns


class TestPaperExamples:
    def test_example_2_2_twitter(self, twitter_pattern, twitter_graph):
        """Example 2.2(2): the match S2 in G2 for P2."""
        match = totalize(bounded_match(twitter_pattern, twitter_graph))
        assert match["CS"] == {"DB"}  # AI excluded
        assert match["Bio"] == {"Gen", "Eco"}
        assert match["Med"] == {"Med"}
        assert match["Soc"] == {"Soc"}

    def test_example_2_2_g2_prime_empty(self, twitter_pattern, twitter_graph):
        """Example 2.2(3): dropping (DB, Gen) empties the match."""
        twitter_graph.remove_edge("DB", "Gen")
        match = totalize(bounded_match(twitter_pattern, twitter_graph))
        assert all(vs == set() for vs in match.values())

    def test_friendfeed_p3(self, friendfeed_pattern, friendfeed_graph):
        """Example 4.1(1): M(P3, G3) before the updates.

        Bio is a leaf of P3, so by the maximality of bounded simulation
        *every* biologist matches it, including the (not yet connected)
        Tom; the paper's prose lists only the community members that carry
        result-graph edges.
        """
        match = totalize(bounded_match(friendfeed_pattern, friendfeed_graph))
        assert match["CTO"] == {"Ann"}
        assert match["DB"] == {"Pat", "Dan"}
        assert match["Bio"] == {"Bill", "Mat", "Tom"}


def labeled_chain(labels: str) -> DiGraph:
    """A chain whose i-th node carries the i-th character as its label."""
    g = DiGraph()
    for i, lab in enumerate(labels):
        g.add_node(i, label=lab)
    for i in range(len(labels) - 1):
        g.add_edge(i, i + 1)
    return g


class TestBounds:
    def test_bound_two_reaches_two_hops(self):
        g = labeled_chain("ABC")
        p = Pattern.from_spec(
            {"u": "label = A", "w": "label = C"}, [("u", "w", 2)]
        )
        match = totalize(bounded_match(p, g))
        assert match["u"] == {0}

    def test_bound_one_misses_two_hops(self):
        g = labeled_chain("ABC")
        p = Pattern.from_spec(
            {"u": "label = A", "w": "label = C"}, [("u", "w", 1)]
        )
        match = totalize(bounded_match(p, g))
        assert match["u"] == set()

    def test_star_bound_is_reachability(self):
        g = labeled_chain("ABCDEFGHIJ")
        p = Pattern.from_spec(
            {"u": "label = A", "w": "label = J"}, [("u", "w", "*")]
        )
        match = totalize(bounded_match(p, g))
        assert match["u"] == {0}

    def test_path_must_be_nonempty(self):
        """An edge u->u in P maps to a *cycle* in G, not to the node itself."""
        g = DiGraph()
        g.add_node("x", label="A")
        p = Pattern.from_spec({"u": "label = A"}, [("u", "u", 3)])
        assert totalize(bounded_match(p, g))["u"] == set()
        g.add_edge("x", "x")
        assert totalize(bounded_match(p, g))["u"] == {"x"}

    def test_self_edge_reaches_another_match(self):
        """A pattern self-edge maps to a path to *some* match of u — on a
        uniformly labelled cycle every node reaches the next one."""
        g = cycle_graph(3, label="A")
        p = Pattern.from_spec({"u": "label = A"}, [("u", "u", 2)])
        assert totalize(bounded_match(p, g))["u"] == {0, 1, 2}

    def test_self_edge_with_unique_label_needs_cycle(self):
        """With a unique label the only target is the node itself, so the
        self-edge really does demand a short enough cycle."""
        g = DiGraph()
        for i, lab in enumerate("ABC"):
            g.add_node(i, label=lab)
        g.add_edge(0, 1)
        g.add_edge(1, 2)
        g.add_edge(2, 0)
        p2 = Pattern.from_spec({"u": "label = A"}, [("u", "u", 2)])
        assert totalize(bounded_match(p2, g))["u"] == set()
        p3 = Pattern.from_spec({"u": "label = A"}, [("u", "u", 3)])
        assert totalize(bounded_match(p3, g))["u"] == {0}

    def test_bound_relaxation_is_monotone(self):
        g = uniform_chain(5, label="A")
        for k in (1, 2, 3, 4):
            pk = Pattern.from_spec(
                {"u": "label = A", "w": "label = A"}, [("u", "w", k)]
            )
            pk1 = Pattern.from_spec(
                {"u": "label = A", "w": "label = A"}, [("u", "w", k + 1)]
            )
            mk = bounded_match(pk, g)
            mk1 = bounded_match(pk1, g)
            assert mk["u"] <= mk1["u"]


class TestAgainstSimulation:
    @settings(max_examples=35, deadline=None)
    @given(small_graphs(), small_patterns(max_bound=1, allow_star=False))
    def test_k1_bounded_equals_simulation(self, g, p):
        """Bounded simulation with all bounds 1 is graph simulation."""
        assert as_pairs(bounded_match(p, g)) == as_pairs(maximum_simulation(p, g))


@settings(max_examples=35, deadline=None)
@given(small_graphs(), small_patterns())
def test_fast_equals_naive(g, p):
    assert as_pairs(bounded_match(p, g)) == as_pairs(bounded_match_naive(p, g))


@settings(max_examples=25, deadline=None)
@given(small_graphs(), small_patterns())
def test_oracles_agree(g, p):
    a = bounded_match(p, g, oracle=MatrixOracle(g))
    b = bounded_match(p, g, oracle=BFSOracle(g))
    assert as_pairs(a) == as_pairs(b)


# x(A) reaches a B within 2 hops, or any node at all, or returns to an A
# within 3 hops through a B.
SHAPE_PATTERNS = [
    Pattern.from_spec(
        {"x": "label = A", "y": "label = B"}, [("x", "y", 2)]
    ),
    Pattern.from_spec({"x": "label = A", "y": None}, [("x", "y", None)]),
    Pattern.from_spec(
        {"x": "label = A", "y": "label = B"},
        [("x", "y", 3), ("y", "x", 3)],
    ),
]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_default_oracle_builds_no_matrix(shape, monkeypatch):
    """``bounded_match`` and ``simulation_result_graph`` read only the
    balls of their candidates, so by default they run a BFS from each
    and build no all-pairs matrix, and they answer as a matrix oracle
    does."""
    g = shape_graph(shape)
    for i, v in enumerate(list(g.nodes())):
        g.set_attr(v, "label", "ABAC"[i % 4])
    expected = []
    for p in SHAPE_PATTERNS:
        match = bounded_match(p, g, oracle=MatrixOracle(g))
        gr = simulation_result_graph(
            p, g, totalize(match), oracle=MatrixOracle(g)
        )
        expected.append((as_pairs(match), gr.edge_set()))

    def no_matrix(self, *args, **kwargs):
        raise AssertionError("an all-pairs DistanceMatrix was built")

    monkeypatch.setattr(DistanceMatrix, "__init__", no_matrix)
    for p, (pairs, edges) in zip(SHAPE_PATTERNS, expected):
        match = bounded_match(p, g)
        assert as_pairs(match) == pairs, p
        assert simulation_result_graph(p, g, totalize(match)).edge_set() == (
            edges
        ), p


@settings(max_examples=25, deadline=None)
@given(small_graphs(), small_patterns())
def test_result_is_bounded_simulation(g, p):
    """Every surviving pair satisfies the bounded-simulation conditions."""
    from repro.graphs.traversal import path_distance

    match = bounded_match(p, g)
    for u, vs in match.items():
        for v in vs:
            assert p.predicate(u).satisfied_by(g.attrs(v))
            for u2 in p.children(u):
                bound = p.bound(u, u2)
                ok = False
                for w in match[u2]:
                    d = path_distance(g, v, w, k=bound)
                    if d != float("inf") and (bound is None or d <= bound):
                        ok = True
                        break
                assert ok, (u, v, u2)
