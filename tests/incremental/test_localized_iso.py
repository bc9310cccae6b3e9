"""Tests for the locality-bounded incremental isomorphism variant."""

from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.incremental.inciso import IsoIndex, LocalizedIsoIndex, _undirected_ball
from repro.matching.isomorphism import brute_force_embeddings
from repro.patterns.pattern import Pattern
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs, small_patterns


def emb_set(embeddings):
    return {frozenset(e.items()) for e in embeddings}


def connected_pattern():
    return Pattern.normal_from_labels(
        {"x": "A", "y": "B", "z": "C"}, [("x", "y"), ("y", "z")]
    )


class TestUndirectedBall:
    def test_radius_zero_is_sources(self):
        g = DiGraph([("a", "b"), ("b", "c")])
        assert _undirected_ball(g, ("b",), 0) == {"b"}

    def test_ball_ignores_direction(self):
        g = DiGraph([("a", "b"), ("c", "b")])
        assert _undirected_ball(g, ("a",), 2) == {"a", "b", "c"}

    def test_ball_bounded(self):
        g = DiGraph([(i, i + 1) for i in range(10)])
        ball = _undirected_ball(g, (5,), 2)
        assert ball == {3, 4, 5, 6, 7}


class TestExactnessGuarantee:
    def test_default_radius_exact_for_connected_pattern(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "C"}, [("x", "y")])
        idx = LocalizedIsoIndex(p, triangle_graph)
        idx.insert_edge("a", "c")
        assert emb_set(idx.embeddings()) == emb_set(
            brute_force_embeddings(p, idx.graph)
        )

    def test_small_radius_can_miss_far_matches(self):
        """Radius below the pattern diameter is a documented heuristic."""
        g = DiGraph()
        labels = "ABC"
        for i, lab in enumerate(labels):
            g.add_node(i, label=lab)
        g.add_edge(1, 2)  # B -> C exists; A -> B arrives later
        p = connected_pattern()
        exact = LocalizedIsoIndex(p, g.copy())   # radius = |Vp| - 1 = 2
        tight = LocalizedIsoIndex(p, g.copy(), radius=1)
        exact.insert_edge(0, 1)
        tight.insert_edge(0, 1)
        assert exact.count() == 1
        # radius 1 around (0, 1) still reaches node 2 here, so construct a
        # genuinely distant witness instead: lengthen the tail.
        g2 = DiGraph()
        for i, lab in enumerate("ABBC"):
            g2.add_node(i, label=lab)
        g2.add_edge(1, 2)
        g2.add_edge(2, 3)
        p4 = Pattern.normal_from_labels(
            {"x": "A", "y1": "B", "y2": "B", "z": "C"},
            [("x", "y1"), ("y1", "y2"), ("y2", "z")],
        )
        tight4 = LocalizedIsoIndex(p4, g2, radius=1)
        tight4.insert_edge(0, 1)
        assert tight4.count() == 0  # node 3 lies outside the radius-1 ball

    def test_deletions_remain_exact_any_radius(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = LocalizedIsoIndex(p, triangle_graph, radius=1)
        assert idx.count() == 1
        idx.delete_edge("a", "b")
        assert idx.count() == 0


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_nodes=6), small_patterns(max_nodes=3, max_bound=1, allow_star=False))
def test_localized_equals_global_for_connected_patterns(g, p):
    # Only meaningful when the pattern is weakly connected; small_patterns
    # does not guarantee it, so check (union-find) and skip otherwise.
    parent = {u: u for u in p.nodes()}

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for a, b in p.edges():
        parent[find(a)] = find(b)
    roots = {find(u) for u in p.nodes()}
    if len(roots) > 1:
        return  # disconnected pattern: the locality guarantee does not apply
    a = IsoIndex(p, g.copy())
    b = LocalizedIsoIndex(p, g.copy())
    for u in mixed_updates(g, 3, 3, seed=91):
        if u.op == "insert":
            a.insert_edge(u.source, u.target)
            b.insert_edge(u.source, u.target)
        else:
            a.delete_edge(u.source, u.target)
            b.delete_edge(u.source, u.target)
    assert emb_set(a.embeddings()) == emb_set(b.embeddings())
