"""Tests for incremental subgraph isomorphism (IsoIndex, paper Section 7)."""

import pytest
from hypothesis import given, settings

from repro.graphs.digraph import DiGraph
from repro.incremental.inciso import IsoIndex, LocalizedIsoIndex
from repro.incremental.types import delete, insert
from repro.matching import isomorphism
from repro.matching.isomorphism import (
    brute_force_embeddings,
    isomorphic_embeddings,
)
from repro.patterns.pattern import Pattern
from repro.workloads.updates import mixed_updates
from tests.strategies import small_graphs, small_patterns


def emb_set(embeddings):
    return {frozenset(e.items()) for e in embeddings}


def assert_matches_batch(idx: IsoIndex) -> None:
    assert emb_set(idx.embeddings()) == emb_set(
        brute_force_embeddings(idx.pattern, idx.graph)
    )


def tree_pattern():
    """Paper Fig. 15 flavour: a two-branch tree rooted at a0."""
    return Pattern.normal_from_labels(
        {"root": "a", "l1": "a", "l2": "a"},
        [("root", "l1"), ("root", "l2")],
    )


class TestBasics:
    def test_initial_index(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        assert idx.count() == 1
        assert idx.has_match()

    def test_delete_drops_embedding(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        idx.delete_edge("a", "b")
        assert idx.count() == 0
        assert_matches_batch(idx)

    def test_insert_creates_embedding(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "C"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        assert idx.count() == 0
        idx.insert_edge("a", "c")
        assert idx.count() == 1
        assert_matches_batch(idx)

    def test_duplicate_insert_noop(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        assert not idx.insert_edge("a", "b")
        assert idx.count() == 1

    def test_fig15_two_chains_fused(self):
        """Theorem 7.1(2) scenario: the tree appears only once both edges
        from the root exist."""
        g = DiGraph()
        for v in ("a0", "c1", "c2", "d1", "d2"):
            g.add_node(v, label="a")
        g.add_edge("c1", "c2")
        g.add_edge("d1", "d2")
        idx = IsoIndex(tree_pattern(), g)
        assert idx.count() == 0
        idx.insert_edge("a0", "c1")
        # root needs two children: still nothing.
        assert idx.count() == 0
        idx.insert_edge("a0", "d1")
        assert idx.count() > 0
        assert_matches_batch(idx)

    def test_embedding_using_edge_twice_handled(self):
        """One data edge can carry several pattern edges of one embedding
        family; postings must dedupe."""
        g = DiGraph()
        g.add_node(0, label="a")
        g.add_node(1, label="a")
        g.add_node(2, label="a")
        g.add_edge(0, 1)
        g.add_edge(0, 2)
        idx = IsoIndex(tree_pattern(), g)
        assert idx.count() == 2  # l1/l2 swap
        idx.delete_edge(0, 1)
        assert idx.count() == 0
        assert_matches_batch(idx)

    def test_max_embeddings_cap(self):
        g = DiGraph()
        for v in range(6):
            g.add_node(v, label="a")
        for w in range(1, 6):
            g.add_edge(0, w)
        idx = IsoIndex(tree_pattern(), g, max_embeddings=3)
        assert idx.count() == 3

    def test_self_loop_pattern(self):
        p = Pattern.normal_from_labels({"u": "a"}, [("u", "u")])
        g = DiGraph()
        g.add_node(0, label="a")
        idx = IsoIndex(p, g)
        assert idx.count() == 0
        idx.insert_edge(0, 0)
        assert idx.count() == 1
        assert_matches_batch(idx)


class TestBatch:
    def test_mixed_batch(self, triangle_graph):
        p = Pattern.normal_from_labels(
            {"x": "A", "y": "B", "z": "C"},
            [("x", "y"), ("y", "z")],
        )
        idx = IsoIndex(p, triangle_graph)
        idx.apply_batch([
            delete("a", "b"),
            insert("a", "c"),
            insert("a", "b"),
        ])
        assert_matches_batch(idx)

    def test_insert_then_delete_same_edge(self, triangle_graph):
        p = Pattern.normal_from_labels({"x": "A", "y": "C"}, [("x", "y")])
        idx = IsoIndex(p, triangle_graph)
        idx.apply_batch([insert("a", "c"), delete("a", "c")])
        assert idx.count() == 0
        assert_matches_batch(idx)


# Pattern specs whose TRUE node ``z`` no pattern edge touches, so an
# embedding can map it to an attribute-less node an inserted edge brings
# into the graph without using that edge: (a) ``z`` alone, (b) ``z``
# beside the component x(A) -> y(B).
FRESH_ENDPOINT_PATTERNS = {
    "true-node": ({"z": None}, []),
    "two-components": (
        {"x": "label = A", "y": "label = B", "z": None},
        [("x", "y", 1)],
    ),
}


class TestFreshEndpoints:
    """An edge between two fresh nodes gives each the pattern nodes whose
    predicates it satisfies, as batch recomputation does."""

    @pytest.mark.parametrize("case", sorted(FRESH_ENDPOINT_PATTERNS))
    @pytest.mark.parametrize("cls", [IsoIndex, LocalizedIsoIndex])
    def test_edge_between_fresh_nodes(self, cls, case):
        g = DiGraph()
        g.add_node("a", label="A")
        g.add_node("b", label="B")
        g.add_edge("a", "b")
        nodes, edges = FRESH_ENDPOINT_PATTERNS[case]
        p = Pattern.from_spec(nodes, edges)
        idx = cls(p, g)
        assert idx.insert_edge("n1", "n2")
        truth = isomorphic_embeddings(p, g)
        assert emb_set(idx.embeddings()) == emb_set(truth)
        # Each fresh node hosts z: one embedding per node for (b), where
        # x and y keep a and b; z alone also takes a and b.
        assert len(truth) == (4 if case == "true-node" else 2)


@settings(max_examples=25, deadline=None)
@given(small_graphs(max_nodes=6), small_patterns(max_nodes=3, max_bound=1, allow_star=False))
def test_random_unit_updates_match_batch(g, p):
    idx = IsoIndex(p, g.copy())
    for u in mixed_updates(g, 3, 3, seed=81):
        if u.op == "insert":
            idx.insert_edge(u.source, u.target)
        else:
            idx.delete_edge(u.source, u.target)
        assert_matches_batch(idx)


@settings(max_examples=20, deadline=None)
@given(small_graphs(max_nodes=6), small_patterns(max_nodes=3, max_bound=1, allow_star=False))
def test_random_batches_match_batch(g, p):
    idx = IsoIndex(p, g.copy())
    idx.apply_batch(mixed_updates(g, 4, 4, seed=83))
    assert_matches_batch(idx)


class TestSearchCandidates:
    """Every anchored search takes its candidates from the index's
    eligible sets, so no repair re-evaluates the predicates over the
    whole graph (``candidate_sets``)."""

    @pytest.mark.parametrize("op", ["insert_edge", "node_flip"])
    @pytest.mark.parametrize("cls", [IsoIndex, LocalizedIsoIndex])
    def test_repair_makes_no_predicate_sweep(self, cls, op, monkeypatch):
        g = DiGraph()
        for v, label in enumerate("ABCB"):
            g.add_node(v, label=label)
        g.add_edge(0, 1)
        g.add_edge(2, 3)
        p = Pattern.normal_from_labels({"x": "A", "y": "B"}, [("x", "y")])
        idx = cls(p, g)
        sweeps = []
        sweep = isomorphism.candidate_sets
        monkeypatch.setattr(
            isomorphism, "candidate_sets",
            lambda *args: sweeps.append(args) or sweep(*args),
        )
        if op == "insert_edge":
            idx.insert_edge(0, 3)
        else:
            idx.add_node(2, label="A")  # 2 gains x: a search anchored on it
        monkeypatch.undo()
        assert sweeps == []
        assert idx.count() == 2
        assert_matches_batch(idx)
